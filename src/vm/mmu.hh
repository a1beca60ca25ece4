/**
 * @file
 * The memory-management unit: a two-level TLB hierarchy in front of
 * the page table, with cycle accounting.
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

/**
 * Two-level TLB + page-table walker with latency accounting.
 */
class Mmu
{
  public:
    explicit Mmu(const MmuParams &params = MmuParams{});

    /**
     * Translate @p vaddr using @p page_table.
     *
     * @param now issue cycle, used by the radix walker's cache
     *        accesses when one is attached (ignored otherwise)
     * @pre the page is mapped (the OS faults pages in on first
     *      touch before the access reaches the MMU).
     */
    MmuResult translate(Addr vaddr, const PageTable &page_table,
                        Cycles now = 0);

    /**
     * Translate @p vaddr whose page-table entry @p entry has
     * already been resolved (the pipeline's resolve stage reads it
     * from the page table a batch ahead and charges the TLB/walk
     * accounting here, at the dispatch cycle @p now). translate()
     * is exactly a page-table lookup followed by this.
     */
    MmuResult translateEntry(Addr vaddr, const Translation &entry,
                             Cycles now = 0);

    /**
     * Attach a radix page walker: L2 TLB misses then perform
     * dependent PTE reads through it instead of charging the
     * constant walkLatency. Pass nullptr to detach.
     */
    void setWalker(PageWalker *walker) { walker_ = walker; }

    /** Invalidate all TLB state. */
    void flushAll();

    const Tlb &l1Small() const { return l1Small_; }
    const Tlb &l1Huge() const { return l1Huge_; }
    const Tlb &l2() const { return l2_; }

    std::uint64_t walks() const { return walks_; }

    const MmuParams &params() const { return params_; }

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
    MmuParams params_;
    Tlb l1Small_;
    Tlb l1Huge_;
    Tlb l2_;
    PageWalker *walker_ = nullptr;
    std::uint64_t walks_ = 0;
};

// Inline: translateEntry is on the per-reference critical path; the
// pipeline's account stage inlines the whole TLB hit path into its
// loop.
inline MmuResult
Mmu::translateEntry(Addr vaddr, const Translation &entry,
                    Cycles now)
{
    MmuResult res;
    res.paddr = entry.paddr;
    res.hugePage = entry.hugePage;

    const Vpn vpn = entry.hugePage ? hugePageNumber(vaddr)
                                   : pageNumber(vaddr);
    Tlb &l1 = entry.hugePage ? l1Huge_ : l1Small_;

    if (l1.lookup(vpn, entry.hugePage)) {
        res.latency = params_.l1Latency;
        res.l1Hit = true;
        return res;
    }

    if (l2_.lookup(vpn, entry.hugePage)) {
        res.latency = params_.l2Latency;
        l1.insert(vpn, entry.hugePage);
        return res;
    }

    ++walks_;
    const Cycles walk_latency =
        walker_ ? walker_->walk(vaddr, now + params_.l2Latency,
                                entry.hugePage)
                : params_.walkLatency;
    res.latency = params_.l2Latency + walk_latency;
    l2_.insert(vpn, entry.hugePage);
    l1.insert(vpn, entry.hugePage);
    return res;
}

} // namespace sipt::vm

#endif // SIPT_VM_MMU_HH
