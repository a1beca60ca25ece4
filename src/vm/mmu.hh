/**
 * @file
 * The memory-management unit: a two-level TLB hierarchy in front of
 * the page table, with cycle accounting split from it (MmuTiming).
 *
 * Matches Tab. II of the SIPT paper: split L1 (64-entry 4 KiB +
 * 32-entry 2 MiB, 2-cycle) and a unified 1024-entry L2 (7-cycle).
 * Page walks are folded into a constant latency (the paper's walker
 * accesses the cache hierarchy; we substitute a calibrated constant
 * since walk frequency is tiny in all evaluated workloads).
 */

#ifndef SIPT_VM_MMU_HH
#define SIPT_VM_MMU_HH

#include <cstdint>

#include "common/bitops.hh"
#include "common/types.hh"
#include "vm/page_table.hh"
#include "vm/page_walker.hh"
#include "vm/tlb.hh"

namespace sipt::vm
{

/** MMU configuration (defaults = Tab. II). */
struct MmuParams
{
    TlbParams l1Small{64, 4};
    TlbParams l1Huge{32, 4};
    TlbParams l2{1024, 8};
    /** L1 TLB access latency (cycles). */
    Cycles l1Latency = 2;
    /** Total latency when translation is served by the L2 TLB. */
    Cycles l2Latency = 7;
    /** Additional latency of a page-table walk after an L2 miss. */
    Cycles walkLatency = 40;
};

/** Outcome of one address translation. */
struct MmuResult
{
    /** Full physical address. */
    Addr paddr = 0;
    /** True when served from a 2 MiB mapping. */
    bool hugePage = false;
    /** Translation latency in cycles (2 on an L1 TLB hit). */
    Cycles latency = 0;
    /** True when the L1 TLB hit. */
    bool l1Hit = false;
};

/** The level of the TLB hierarchy that served a translation. */
enum class TlbLevel : std::uint8_t
{
    L1,   ///< an L1 TLB hit
    L2,   ///< an L1 miss that hit the L2 TLB
    Walk, ///< an L2 miss: a page walk
};

/**
 * The machine half of translation: what a TLB outcome costs. It
 * reads no TLB state, so machines that step one reference stream
 * share that stream's TLB hierarchy (its Mmu) and each keep only
 * this: the level latencies and, optionally, a radix walker whose
 * PTE reads go through the machine's own caches.
 */
class MmuTiming
{
  public:
    explicit MmuTiming(const MmuParams &params) : params_(params) {}

    /**
     * The translation of @p vaddr, whose page-table entry is
     * @p entry, served at @p level. A Walk runs the attached
     * walker's PTE reads at issue cycle @p now (plus the L2 TLB
     * latency), else charges the constant walkLatency.
     */
    MmuResult complete(Addr vaddr, const Translation &entry,
                       TlbLevel level, Cycles now);

    /**
     * Function half of complete(): a Walk with a walker attached
     * runs the walker's PageWalker::lookup() into @p log. Nothing
     * else has a function half.
     */
    WalkShape
    lookupWalk(Addr vaddr, bool huge_page, TlbLevel level,
               dram::AccessLog &log)
    {
        if (level != TlbLevel::Walk || !walker_)
            return {};
        return walker_->lookup(vaddr, huge_page, log);
    }

    /**
     * Timing half of complete(), for a reference whose lookupWalk()
     * returned @p shape: a walker's PTE reads are timed from what
     * it recorded at @p cursor in @p log.
     */
    MmuResult complete(Addr vaddr, const Translation &entry,
                       TlbLevel level, Cycles now, WalkShape shape,
                       const dram::AccessLog &log,
                       dram::AccessLog::Cursor &cursor) const;

    /**
     * Attach a radix page walker: walks then perform dependent PTE
     * reads through it instead of charging the constant
     * walkLatency. Pass nullptr to detach.
     */
    void setWalker(PageWalker *walker) { walker_ = walker; }

    /** The attached walker, or nullptr. */
    PageWalker *walker() const { return walker_; }

    const MmuParams &params() const { return params_; }

  private:
    /** The latency of @p level, where a walker's walk takes
     *  @p walk(). */
    template <typename WalkLatency>
    MmuResult charge(const Translation &entry, TlbLevel level,
                     WalkLatency &&walk) const;

    MmuParams params_;
    PageWalker *walker_ = nullptr;
};

/**
 * Two-level TLB + page-table walker with latency accounting.
 *
 * Translation is two halves: lookup() advances the TLB hierarchy,
 * whose contents depend only on the (vpn, page size) sequence, and
 * MmuTiming::complete() charges the latency of the level that
 * served it. The pipeline runs lookup() on the stream and complete()
 * on each machine; translate() runs both at once.
 */
class Mmu
{
  public:
    explicit Mmu(const MmuParams &params = MmuParams{});

    /**
     * Translate @p vaddr using @p page_table: the page-table entry,
     * lookup(), then this MMU's MmuTiming::complete().
     *
     * @param now issue cycle, used by the radix walker's cache
     *        accesses when one is attached (ignored otherwise)
     * @pre the page is mapped (the OS faults pages in on first
     *      touch before the access reaches the MMU).
     */
    MmuResult translate(Addr vaddr, const PageTable &page_table,
                        Cycles now = 0);

    /**
     * Probe the L1 TLB of @p vaddr's page size, then the L2; fill
     * what missed and count a walk on an L2 miss.
     * @return the level that served the translation
     */
    TlbLevel lookup(Addr vaddr, bool huge_page);

    /** The latency half, for a machine that shares these TLBs. */
    MmuTiming &timing() { return timing_; }

    /** See MmuTiming::setWalker(). */
    void setWalker(PageWalker *walker) { timing_.setWalker(walker); }

    /** Invalidate all TLB state. */
    void flushAll();

    const Tlb &l1Small() const { return l1Small_; }
    const Tlb &l1Huge() const { return l1Huge_; }
    const Tlb &l2() const { return l2_; }

    std::uint64_t walks() const { return walks_; }

    /** Hit rate of the L1 TLBs together (0 when idle). */
    double l1HitRate() const;

    const MmuParams &params() const { return timing_.params(); }

    /** Zero all TLB/walk counters (entries kept: warmup). */
    void
    resetStats()
    {
        l1Small_.resetStats();
        l1Huge_.resetStats();
        l2_.resetStats();
        walks_ = 0;
    }

  private:
    Tlb l1Small_;
    Tlb l1Huge_;
    Tlb l2_;
    std::uint64_t walks_ = 0;
    MmuTiming timing_;
};

// Inline: both halves are on the per-reference critical path; the
// pipeline inlines lookup into its resolve loop and complete into
// its account loop.
inline TlbLevel
Mmu::lookup(Addr vaddr, bool huge_page)
{
    const Vpn vpn = huge_page ? hugePageNumber(vaddr)
                              : pageNumber(vaddr);
    Tlb &l1 = huge_page ? l1Huge_ : l1Small_;
    if (l1.lookup(vpn, huge_page))
        return TlbLevel::L1;
    // Each fill follows a miss in the same TLB.
    if (l2_.lookup(vpn, huge_page)) {
        l1.fill(vpn, huge_page);
        return TlbLevel::L2;
    }
    ++walks_;
    l2_.fill(vpn, huge_page);
    l1.fill(vpn, huge_page);
    return TlbLevel::Walk;
}

template <typename WalkLatency>
MmuResult
MmuTiming::charge(const Translation &entry, TlbLevel level,
                  WalkLatency &&walk) const
{
    MmuResult res;
    res.paddr = entry.paddr;
    res.hugePage = entry.hugePage;
    if (level == TlbLevel::L1) {
        res.latency = params_.l1Latency;
        res.l1Hit = true;
        return res;
    }
    res.latency = params_.l2Latency;
    if (level == TlbLevel::Walk)
        res.latency += walker_ ? walk() : params_.walkLatency;
    return res;
}

inline MmuResult
MmuTiming::complete(Addr vaddr, const Translation &entry,
                    TlbLevel level, Cycles now)
{
    return charge(entry, level, [&] {
        return walker_->walk(vaddr, now + params_.l2Latency,
                             entry.hugePage);
    });
}

inline MmuResult
MmuTiming::complete(Addr vaddr, const Translation &entry,
                    TlbLevel level, Cycles now, WalkShape shape,
                    const dram::AccessLog &log,
                    dram::AccessLog::Cursor &cursor) const
{
    return charge(entry, level, [&] {
        return walker_->latency(vaddr, entry.hugePage, shape,
                                now + params_.l2Latency, log, cursor);
    });
}

} // namespace sipt::vm

#endif // SIPT_VM_MMU_HH
