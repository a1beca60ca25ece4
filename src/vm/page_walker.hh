/**
 * @file
 * A radix page-table walker that issues its PTE reads through the
 * real cache hierarchy, with a page-walk cache (PWC) for the
 * upper levels.
 *
 * The paper notes (Sec. II-B) that the x86 page walker requires
 * physically addressed caches — walker loads hit the L2/LLC like
 * any other access. The default MMU configuration folds walks
 * into a constant latency; enabling the walker replaces that
 * constant with 2-4 dependent PTE reads whose latency depends on
 * where the PTE lines are cached, and charges their traffic and
 * energy to the hierarchy.
 */

#ifndef SIPT_VM_PAGE_WALKER_HH
#define SIPT_VM_PAGE_WALKER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/dram.hh"

namespace sipt::vm
{

/**
 * Where walker PTE reads go: typically the below-L1 hierarchy.
 *
 * A read has a function half, which the access pipeline's memory
 * stage runs in reference order, and a timing half, which its
 * timing stage runs later, in the same order. A port that keeps
 * the defaults runs each read whole (walkRead()) in the timing
 * stage.
 */
class WalkPort
{
  public:
    virtual ~WalkPort() = default;

    /**
     * Read one PTE cache line.
     * @param paddr physical address of the PTE
     * @param now issue cycle
     * @return latency in cycles
     */
    virtual Cycles walkRead(Addr paddr, Cycles now) = 0;

    /** Function half of walkRead(): record in @p log what its
     *  timing half needs. @return the rest of it, passed back to
     *  walkTiming() */
    virtual std::uint8_t
    walkFunction(Addr paddr, dram::AccessLog &log)
    {
        (void)paddr;
        (void)log;
        return 0;
    }

    /** Timing half of walkRead(): the latency of the read of
     *  @p paddr issued at @p now, from what walkFunction() returned
     *  (@p outcome) and recorded at @p cursor in @p log. */
    virtual Cycles
    walkTiming(Addr paddr, std::uint8_t outcome, Cycles now,
               const dram::AccessLog &log,
               dram::AccessLog::Cursor &cursor)
    {
        (void)outcome;
        (void)log;
        (void)cursor;
        return walkRead(paddr, now);
    }
};

/** Most radix levels a walker may have. */
constexpr std::uint32_t maxWalkLevels = 6;

/** What the timing half needs of one walk's function: whether a
 *  page-walk cache hit skipped the upper levels, how many dependent
 *  PTE reads followed, and what each read's function half
 *  returned. */
struct WalkShape
{
    bool pwcHit = false;
    std::uint8_t reads = 0;
    std::array<std::uint8_t, maxWalkLevels> read{};

    bool operator==(const WalkShape &) const = default;
};

/** Walker configuration. */
struct WalkerParams
{
    /** Radix levels (x86-64: 4). */
    std::uint32_t levels = 4;
    /** Page-walk-cache entries per upper level. */
    std::uint32_t pwcEntries = 32;
    /** PWC hit latency in cycles. */
    Cycles pwcLatency = 2;
    /**
     * Physical base of the page-table pool. PTE addresses are
     * synthesised per (level, index) below this base; they only
     * need to be stable and distinct so cache behaviour is
     * realistic.
     */
    Addr tableBase = Addr{0xF0} << 32;
};

/**
 * Radix walker with per-level PWCs (covering levels above the
 * leaf; the leaf PTE read always goes to the hierarchy).
 */
class PageWalker
{
  public:
    explicit PageWalker(const WalkerParams &params,
                        WalkPort &port);

    /**
     * Walk for @p vaddr at @p now: lookup(), then latency().
     *
     * @param huge_page stop one level early (2 MiB leaf)
     * @return total walk latency in cycles
     */
    Cycles walk(Addr vaddr, Cycles now, bool huge_page);

    /**
     * Function half of a walk: look up and fill the page-walk
     * caches and run the function half of each PTE read, in order,
     * recording into @p log.
     */
    WalkShape lookup(Addr vaddr, bool huge_page,
                     dram::AccessLog &log);

    /**
     * Timing half of the walk lookup() returned @p shape for:
     * its latency from @p now, each PTE read issued when the one
     * before it returns. Touches no page-walk-cache state.
     */
    Cycles latency(Addr vaddr, bool huge_page, WalkShape shape,
                   Cycles now, const dram::AccessLog &log,
                   dram::AccessLog::Cursor &cursor) const;

    std::uint64_t walks() const { return walks_; }
    std::uint64_t pwcHits() const { return pwcHits_; }
    std::uint64_t pteReads() const { return pteReads_; }

    const WalkerParams &params() const { return params_; }

  private:
    /** The radix index for @p level (9 bits per level). */
    std::uint32_t levelIndex(Addr vaddr,
                             std::uint32_t level) const;

    /** Synthesised PTE physical address. */
    Addr pteAddr(Addr vaddr, std::uint32_t level) const;

    /** The first PTE level a walk of shape @p shape reads. */
    std::uint32_t
    firstLevel(bool huge_page, WalkShape shape) const
    {
        return (huge_page ? 1u : 0u) + shape.reads - 1;
    }

    WalkerParams params_;
    WalkPort &port_;
    /** walk()'s log of its one walk. */
    dram::AccessLog scratch_;
    // lookup()'s state, apart from the parameters latency() reads
    // on another host thread.
    /** Direct-mapped PWC per non-leaf level: tag = the VA bits
     *  that select the entry at that level. */
    alignas(64) std::vector<std::vector<std::uint64_t>> pwc_;
    std::uint64_t walks_ = 0;
    std::uint64_t pwcHits_ = 0;
    std::uint64_t pteReads_ = 0;
};

} // namespace sipt::vm

#endif // SIPT_VM_PAGE_WALKER_HH
