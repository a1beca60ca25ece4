/**
 * @file
 * The cache hierarchy below the L1: an optional private L2, a
 * (possibly shared) LLC, and DRAM. The L1 controller calls into
 * this when it misses or writes back.
 *
 * The OOO configuration of Tab. II uses L2 + LLC + DRAM; the
 * in-order configuration uses LLC + DRAM only.
 */

#ifndef SIPT_CACHE_HIERARCHY_HH
#define SIPT_CACHE_HIERARCHY_HH

#include <cstdint>
#include <memory>

#include "cache/timing_cache.hh"
#include "check/golden_model.hh"
#include "check/options.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "dram/dram.hh"

namespace sipt::cache
{

/**
 * Per-core view of the below-L1 hierarchy. The LLC and DRAM are
 * shared (not owned); the private L2 is owned. The simulation is
 * single-threaded, so sharing needs no synchronisation.
 */
class BelowL1
{
  public:
    /**
     * @param l2_params private L2 parameters, or nullptr for a
     *        two-level hierarchy
     * @param llc shared last-level cache
     * @param dram shared main memory
     * @param check arms the writeback-legitimacy shim when enabled
     */
    BelowL1(const TimingCacheParams *l2_params, TimingCache &llc,
            dram::Dram &dram, const check::Options &check = {});

    /**
     * Service an L1 miss for the line containing @p paddr.
     *
     * @param now current core cycle (for DRAM contention)
     * @return latency in cycles beyond the L1 until data returns
     */
    Cycles fill(Addr paddr, Cycles now);

    /**
     * Accept a dirty L1 eviction. Writebacks are off the critical
     * path: they cost energy and DRAM traffic but add no latency to
     * the evicting access.
     */
    void writeback(Addr paddr, Cycles now);

    /**
     * Next-line prefetch issued on an L1 miss: pulls the line into
     * the L2 (or the LLC in a two-level hierarchy) off the
     * critical path, so sequential streams are not bound by DRAM
     * latency. Energy and DRAM traffic are charged normally.
     */
    void prefetch(Addr paddr, Cycles now);

    /**
     * Host-prefetch the tag sets a miss on @p paddr would scan
     * (private L2 and shared LLC). The access pipeline calls this a
     * few references ahead; no simulated state is touched.
     */
    void
    prefetchTags(Addr paddr) const
    {
        if (l2_)
            l2_->prefetchTags(paddr);
        llc_.prefetchTags(paddr);
    }

    /** The private L2, or nullptr. */
    TimingCache *l2() { return l2_.get(); }
    const TimingCache *l2() const { return l2_.get(); }

    TimingCache &llc() { return llc_; }
    const TimingCache &llc() const { return llc_; }

    std::uint64_t dramReads() const { return dramReads_; }
    std::uint64_t dramWrites() const { return dramWrites_; }

    /** Writeback-legitimacy shim, or nullptr when checking is
     *  off. Sticky first failure is in fillTracker()->failure(). */
    const check::FillTracker *
    fillTracker() const
    {
        return fillTracker_.get();
    }

    /** Zero this view's counters and the private L2's (the shared
     *  LLC/DRAM are reset by their owner). */
    void
    resetStats()
    {
        dramReads_ = dramWrites_ = 0;
        if (l2_)
            l2_->resetStats();
    }

  private:
    /** Access the LLC and, on a miss, DRAM. */
    Cycles fillFromLlc(Addr paddr, Cycles now, bool write);

    std::unique_ptr<TimingCache> l2_;
    TimingCache &llc_;
    dram::Dram &dram_;
    std::uint64_t dramReads_ = 0;
    std::uint64_t dramWrites_ = 0;
    /** Fill/writeback legitimacy checker. */
    std::unique_ptr<check::FillTracker> fillTracker_;
    /** panic() instead of recording. */
    bool checkAbort_ = false;
    /** Tracing hook; nullptr unless SIPT_TRACE is set. */
    trace::Tracer *trace_ = nullptr;
    std::uint64_t traceLane_ = 0;
};

} // namespace sipt::cache

#endif // SIPT_CACHE_HIERARCHY_HH
