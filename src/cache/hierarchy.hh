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

/** What a fill's function half found, as its timing half needs it
 *  (BelowL1::fill(), BelowL1::timeFill()): a set of these bits. */
struct FillOutcome
{
    /** It went past the L2 to the LLC (always, with no L2). */
    static constexpr std::uint8_t llc = 1;
    /** It reached DRAM: it has accesses in the log. */
    static constexpr std::uint8_t dram = 2;
};

/**
 * Per-core view of the below-L1 hierarchy. The LLC and DRAM are
 * shared (not owned) by the cores of one config; the private L2 is
 * owned. Its work splits in two halves:
 *
 *  - function (the pipeline's memory stage): the L2 and LLC arrays
 *    and their counters, the DRAM row buffers (dram::DramRows) and
 *    the fill tracker. Each operation records its DRAM accesses in
 *    a dram::AccessLog, and a fill returns how far it went.
 *  - timing (the timing stage): charges each operation's cache
 *    latencies and replays its DRAM accesses through the DRAM
 *    queue (dram::DramQueue) at its issue cycle, and traces the
 *    fills.
 *
 * The halves share no mutable state, so they may run on two host
 * threads; the cores sharing an LLC and DRAM are stepped one after
 * another by each half, in the same order (sim::runGroup()). The
 * Cycles overloads run both halves at once.
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

    /** Function half of fill(): its DRAM accesses go to @p log.
     *  @return FillOutcome bits */
    std::uint8_t fill(Addr paddr, dram::AccessLog &log);

    /** Function half of writeback(): its DRAM accesses go to
     *  @p log. @return whether it made any */
    bool writeback(Addr paddr, dram::AccessLog &log);

    /** Function half of prefetch(): its DRAM accesses go to
     *  @p log. @return whether it made any */
    bool prefetch(Addr paddr, dram::AccessLog &log);

    /**
     * Timing half of a fill of the line at @p paddr whose function
     * half returned @p outcome, issued at @p now: its latency, its
     * DRAM accesses (if any, at @p cursor in @p log, which moves
     * past them) queued at their offsets from @p now. The fill is
     * traced.
     */
    Cycles timeFill(Addr paddr, std::uint8_t outcome,
                    const dram::AccessLog &log,
                    dram::AccessLog::Cursor &cursor, Cycles now);

    /** Timing half of a prefetch or writeback that reached DRAM:
     *  queue its accesses at @p cursor. */
    void
    time(const dram::AccessLog &log, dram::AccessLog::Cursor &cursor,
         Cycles now)
    {
        queue_.replay(log, cursor, now);
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
    /**
     * Access the LLC and, on a miss, DRAM's rows, recording each
     * DRAM access at @p offset plus the LLC latency; a read miss is
     * a @p demand access when the caller waits for it.
     */
    void fillFromLlc(Addr paddr, Cycles offset, bool write,
                     bool demand, dram::AccessLog &log);

    // The function half's state.
    std::unique_ptr<TimingCache> l2_;
    TimingCache &llc_;
    dram::Dram &dram_;
    std::uint64_t dramReads_ = 0;
    std::uint64_t dramWrites_ = 0;
    /** Fill/writeback legitimacy checker. */
    std::unique_ptr<check::FillTracker> fillTracker_;
    /** panic() instead of recording. */
    bool checkAbort_ = false;
    /** The Cycles overloads' log of their one operation. */
    dram::AccessLog scratch_;

    // The timing half's state, on lines of its own.
    /** The shared DRAM's queue half. */
    alignas(64) dram::DramQueue &queue_;
    /** The L2's latency (0 with no L2) and the LLC's; constants,
     *  read by both halves. */
    Cycles l2Latency_;
    Cycles llcLatency_;
    /** Tracing hook; nullptr unless SIPT_TRACE is set. */
    trace::Tracer *trace_ = nullptr;
    std::uint64_t traceLane_ = 0;
};

} // namespace sipt::cache

#endif // SIPT_CACHE_HIERARCHY_HH
