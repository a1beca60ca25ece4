/**
 * @file
 * The SIPT L1 data cache controller — the paper's core
 * contribution.
 *
 * The controller implements eight indexing policies over the same
 * physical tag array:
 *
 *  - Vipt: the baseline. All index bits must come from the page
 *    offset, so the geometry must satisfy way-size <= page-size;
 *    translation overlaps array access and every hit is "fast".
 *  - Ideal: an oracle that always knows the physical index bits
 *    early (the "ideal cache" the paper normalises against).
 *  - SiptNaive (Sec. IV): always access speculatively with the raw
 *    VA index bits; on an index mismatch replay with the physical
 *    index (slow access + extra array access).
 *  - SiptBypass (Sec. V): a perceptron predicts whether the VA bits
 *    will survive translation; predicted-to-change accesses wait
 *    for the TLB (slow, but no wasted array access).
 *  - SiptCombined (Sec. VI): when the perceptron predicts a change,
 *    the IDB (or single-bit reversal) predicts the changed value so
 *    the access can still go fast.
 *  - SiptVespa (related work: VESPA): SiptCombined plus a superpage
 *    gate — when the translation is a 2 MiB page the speculative
 *    index bits sit below the huge-page offset and are statically
 *    correct, so the access speculates unconditionally without
 *    touching (or training) the predictors.
 *  - SiptRevelator (related work: Revelator): a hashed, VPN-tagged
 *    translation table predicts the full physical frame; the index
 *    bits are taken from the predicted frame and verified against
 *    the real translation.
 *  - SiptPcax (related work: PCAX): the Combined stage-2 slot holds
 *    a PC-indexed full-frame delta predictor instead of the IDB.
 *
 * Every policy funnels through one per-reference decision kernel
 * (decideOne, run by decideBatch()), and every access through one
 * accessArray() + accessTimed() pair, so each policy's semantics
 * and the speculation-outcome accounting exist once.
 *
 * Correctness never depends on prediction: lines live under their
 * physical set and full physical line-address tags are compared on
 * every lookup, so a wrong speculative index can only cause a miss
 * and a replay, never a wrong-data hit. This is what lets SIPT keep
 * VIPT's simple synonym/coherence story (synonyms may be cached;
 * lookups always check full tags).
 */

#ifndef SIPT_SIPT_L1_CACHE_HH
#define SIPT_SIPT_L1_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "cache/cache_array.hh"
#include "cache/hierarchy.hh"
#include "cache/way_predictor.hh"
#include "check/golden_model.hh"
#include "check/options.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "dram/dram.hh"
#include "predictor/combined.hh"
#include "predictor/hashed_xlat.hh"
#include "predictor/perceptron.hh"
#include "vm/mmu.hh"

namespace sipt
{

/** L1 index-generation policy. */
enum class IndexingPolicy : std::uint8_t
{
    Vipt,
    Ideal,
    SiptNaive,
    SiptBypass,
    SiptCombined,
    SiptVespa,
    SiptRevelator,
    SiptPcax,
};

/** Printable name of a policy. */
const char *policyName(IndexingPolicy policy);

/** L1 configuration (geometry + policy + energy). */
struct L1Params
{
    std::string name = "L1D";
    cache::CacheGeometry geometry{32 * 1024, 8, 64};
    /** Array access latency in cycles (Tab. II). */
    Cycles hitLatency = 4;
    IndexingPolicy policy = IndexingPolicy::Vipt;
    /** MRU way prediction on top of the indexing policy. */
    bool wayPrediction = false;
    /** Dynamic energy per full-way-parallel access, nJ (Tab. II).*/
    double accessEnergyNj = 0.38;
    /** Static power in mW (Tab. II). */
    double staticPowerMw = 46.0;
    /** Stage-1 predictor configuration (Bypass/Combined). */
    predictor::PerceptronParams perceptron{};
    /** Stage-2 predictor configuration (Combined/Vespa). */
    predictor::IdbParams idb{};
    /** Hashed translation predictor (Revelator). */
    predictor::HashedXlatParams hashedXlat{};
    /** PC-indexed translation predictor (Pcax stage 2). */
    predictor::PcXlatParams pcXlat{};
    /** Differential golden-model checking; off unless the
     *  simulation layer arms it from SystemConfig::check. */
    check::Options check{};
};

/**
 * Taxonomy of one access's speculation outcome (Figs. 5, 9, 12).
 */
struct SpeculationStats
{
    /** Speculated with VA bits and they were unchanged. */
    std::uint64_t correctSpeculation = 0;
    /** Bypassed and the bits would indeed have changed. */
    std::uint64_t correctBypass = 0;
    /** Bypassed although the bits were unchanged (lost fast). */
    std::uint64_t opportunityLoss = 0;
    /** Speculated (any source) but the index was wrong: replay. */
    std::uint64_t extraAccess = 0;
    /** Bypass-predicted accesses saved by the IDB / reversal. */
    std::uint64_t idbHit = 0;
};

/** Aggregate L1 statistics. */
struct L1Stats
{
    std::uint64_t accesses = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    /** Accesses whose data was available at hitLatency. */
    std::uint64_t fastAccesses = 0;
    /** Accesses that had to wait for translation. */
    std::uint64_t slowAccesses = 0;
    /** Wasted array accesses caused by misspeculation. */
    std::uint64_t extraArrayAccesses = 0;
    /** Total array access attempts (for energy). */
    std::uint64_t arrayAccesses = 0;
    /**
     * Energy-weighted array accesses: way prediction scales a
     * predicted-way access to 1/assoc of a full access.
     */
    double weightedArrayAccesses = 0.0;
    /** Accesses whose translation was a huge (2 MiB) page. */
    std::uint64_t hugeAccesses = 0;
    /** Replays among the huge-page accesses: on huge pages the VA
     *  index bits are provably unchanged, so every one of these is
     *  a *value predictor* wasting a guaranteed-fast access — the
     *  waste the Vespa gate eliminates. */
    std::uint64_t hugeReplays = 0;
    /** Opportunity losses among the huge-page accesses (Bypass
     *  refusing a speculation that could not have failed). */
    std::uint64_t hugeBypassLosses = 0;
    SpeculationStats spec;
};

/**
 * The speculation outcome decided for one access before it probes
 * the array. Produced by SiptL1Cache::decideBatch() from predictor
 * state and the VA/PA index bits; consumed by accessTimed(), which
 * applies the corresponding statistics and latency model. Keeping
 * the decision a plain value is what lets the pipeline run the
 * predictor stage over a whole batch while deferring every counter
 * update to the in-order account stage (the per-access invariant
 * checker snapshots counters at every access, so they must advance
 * one access at a time).
 */
enum class SpecDecision : std::uint8_t
{
    /** No speculation involved (VIPT geometry or Ideal oracle). */
    Direct,
    /** Speculated with VA bits and they were unchanged. */
    Speculate,
    /** Bypass-predicted, saved by the IDB / reversal (Combined). */
    DeltaHit,
    /** Speculated (any source) with the wrong index: replay. */
    Replay,
    /** Bypassed and the bits would indeed have changed. */
    BypassCorrect,
    /** Bypassed although the bits were unchanged (lost fast). */
    BypassLoss,
};

/** Printable name of a decision: the trace's "args.outcome" value
 *  ("direct", "speculate", "delta-hit", "replay", and "bypass" for
 *  both bypass decisions). */
const char *specDecisionName(SpecDecision decision);

/** Per-access result returned to the core model. */
struct L1AccessResult
{
    /** Load-to-use latency in cycles, including below-L1 time. */
    Cycles latency = 0;
    bool hit = false;
    /** True when the access completed without waiting for the
     *  TLB (a "fast access" in the paper's terms). */
    bool fast = false;
};

/**
 * What the function half of one access (SiptL1Cache::accessArray())
 * did, as its timing half needs it: a set of these bits, one byte
 * per reference in the pipeline's memory record.
 */
struct ArrayOutcome
{
    /** The line was resident. */
    static constexpr std::uint8_t hit = 1;
    /** A hit in the way the way predictor predicted. */
    static constexpr std::uint8_t wayCorrect = 2;
    /** A miss whose next-line prefetch reached DRAM. */
    static constexpr std::uint8_t prefetchDram = 4;
    /** A miss that evicted a dirty line and wrote it back. */
    static constexpr std::uint8_t writeback = 8;
    /** ...and the writeback reached DRAM. */
    static constexpr std::uint8_t writebackDram = 16;
    /** A miss's fill's cache::FillOutcome bits, shifted up by
     *  this. */
    static constexpr unsigned fillShift = 5;
};

/** The functional facts of one access that the golden-model
 *  checker compares; accessArray() records them for a checked L1
 *  only. */
struct ArrayFacts
{
    /** The line's dirty bit after the access. */
    bool dirtyAfter = false;
    /** The fill evicted a valid line... */
    bool evicted = false;
    /** ...this one. */
    Addr evictedLine = 0;
};

/**
 * The L1 data cache with speculative indexing.
 *
 * Its state falls in three groups, each touched by one pipeline
 * stage (batch/pipeline.hh): the predictor tables (predict:
 * decideBatch()), the array and way predictor (memory:
 * accessArray(), which also drives the below-L1 hierarchy's
 * function half) and the counters, checker and tracer (timing:
 * accessTimed()). Where the physical index comes from changes only
 * when data returns, never what the array holds, so the memory
 * half needs no speculation decision.
 */
class SiptL1Cache
{
  public:
    /**
     * @param params cache configuration
     * @param below the rest of the hierarchy (L2/LLC/DRAM view)
     */
    SiptL1Cache(const L1Params &params, cache::BelowL1 &below);

    /**
     * Execute one memory reference: decide(), accessArray(), then
     * accessTimed(), the pipeline's three per-reference steps run
     * back to back.
     *
     * @param ref the trace record (PC, VA, load/store)
     * @param xlat the MMU result for ref.vaddr (the caller performs
     *        translation concurrently; xlat.latency is when the PA
     *        becomes available)
     * @param now current core cycle
     */
    L1AccessResult access(const MemRef &ref,
                          const vm::MmuResult &xlat, Cycles now);

    /** Speculation decision for one access: decideBatch() of one
     *  reference. */
    SpecDecision decide(const MemRef &ref,
                        const vm::MmuResult &xlat);

    /**
     * Speculation decisions for @p n already-translated accesses
     * in order, written to @p decisions_out. @p huge_pages carries
     * the per-reference huge-page bit (nonzero = 2 MiB backing),
     * because on 2 MiB pages the speculative index bits are
     * statically correct. Queries and trains the policy's
     * predictors (their only mutation point) but touches no
     * statistics counter.
     */
    void decideBatch(std::size_t n, const Addr *pcs,
                     const Addr *vaddrs, const Addr *paddrs,
                     const std::uint8_t *huge_pages,
                     std::uint8_t *decisions_out);

    /**
     * Function half of one access: one set scan of the array
     * at @p paddr (touch/dirty the resident way, or fill from
     * below, prefetch the next line, insert and write the victim
     * back), and the way predictor. The below-L1 work goes to
     * @p log; a checked L1 fills @p facts.
     * @return ArrayOutcome bits
     */
    std::uint8_t accessArray(MemOp op, Addr paddr,
                             dram::AccessLog &log, ArrayFacts &facts);

    /**
     * Timing half of one access, for an access whose function
     * half returned @p outcome and @p facts: every statistics
     * counter, the latency model (its below-L1 operations timed
     * from @p log at @p cursor), then the post-access observers.
     */
    L1AccessResult accessTimed(const MemRef &ref,
                               const vm::MmuResult &xlat, Cycles now,
                               SpecDecision decision,
                               std::uint8_t outcome,
                               const ArrayFacts &facts,
                               const dram::AccessLog &log,
                               dram::AccessLog::Cursor &cursor);

    /** Does nothing: the engine issues no host prefetches, and
     *  perfbench's traced replay still calls this. */
    void prefetchAccess(Addr) const {}

    const L1Params &params() const { return params_; }
    const L1Stats &stats() const { return stats_; }
    const cache::CacheArray &array() const { return array_; }

    /** Way predictor, or nullptr when disabled. */
    const cache::WayPredictor *
    wayPredictor() const
    {
        return wayPredictor_ ? &*wayPredictor_ : nullptr;
    }

    /** Number of speculative index bits this geometry needs. */
    unsigned specBits() const { return specBits_; }

    /** Lockstep differential checker, or nullptr when checking is
     *  disabled. */
    const check::DifferentialChecker *
    checker() const
    {
        return checker_.get();
    }

    /** Stable digest of the functional event stream since the last
     *  resetStats(); 0 when checking is disabled. Two runs of the
     *  same workload under different indexing policies must agree
     *  on this value. */
    std::uint64_t checkDigest() const;

    /** Events folded into checkDigest(); 0 when disabled. */
    std::uint64_t checkEventCount() const;

    /** First divergence or invariant failure recorded by the
     *  checker (sticky); empty when clean or disabled. */
    std::string checkFailure() const;

    /** Dynamic energy consumed by the L1 arrays so far (nJ),
     *  including predictor overhead (<2% per the paper). */
    double dynamicEnergyNj() const;

    /** L1 hit rate. */
    double hitRate() const;

    /** Fraction of accesses that were fast. */
    double fastFraction() const;

    /** Zero all counters; cache contents and trained predictor
     *  state are kept (end-of-warmup semantics). Both halves of
     *  resetTimingStats() and resetArrayStats(). */
    void resetStats();

    /** Zero the timing half's counters (L1Stats) and restart the
     *  checker's event stream. */
    void resetTimingStats();

    /** Zero the function half's counters (the way predictor's). */
    void resetArrayStats();

  private:
    /**
     * The per-reference decision kernel: the single place the
     * speculation outcome of one access is computed, instantiated
     * per policy and run by decideBatch() with the policy dispatch
     * hoisted out of the loop. Each predictor is queried and
     * trained in one resolve() call per access.
     */
    template <IndexingPolicy Policy>
    SpecDecision decideOne(Addr pc, Addr vaddr, Addr paddr,
                           bool huge_page);

    /** decideBatch() body for one policy: decideOne() per item. */
    template <IndexingPolicy Policy>
    void decideLoop(std::size_t n, const Addr *pcs,
                    const Addr *vaddrs, const Addr *paddrs,
                    const std::uint8_t *huge_pages,
                    std::uint8_t *decisions_out);

    /**
     * The miss half of accessArray(): fill from below, next-line
     * prefetch, insert, writeback. @return its ArrayOutcome bits
     */
    std::uint8_t missArray(MemOp op, Addr paddr, std::uint32_t set,
                           dram::AccessLog &log, ArrayFacts &facts);

    /**
     * The miss half of accessTimed(): counts the miss (and its
     * writeback) and times its below-L1 operations from @p ready.
     * @return the fill latency
     */
    Cycles missTimed(Addr paddr, std::uint8_t outcome, Cycles ready,
                     const dram::AccessLog &log,
                     dram::AccessLog::Cursor &cursor);

    /**
     * Post-access observers, called only when the checker or the
     * tracer is on: feeds the golden model the access, checks the
     * counter invariants (sipt/invariants.hh) as they stand after
     * it, and emits the trace event.
     */
    void observeAccess(const MemRef &ref, const vm::MmuResult &xlat,
                       Cycles now, SpecDecision decision,
                       const L1AccessResult &res, std::uint8_t outcome,
                       const ArrayFacts &facts);

    L1Params params_;
    cache::BelowL1 &below_;

    // Each stage's state on cache lines of its own: a lone run
    // accesses the array on another host thread than the one that
    // predicts and counts, and a line shared between them would
    // move between the two CPUs at every access.

    // The predict stage's state (decideBatch()).
    alignas(64) unsigned specBits_;
    /** mask(specBits_), precomputed for the decide loops. */
    std::uint64_t specMask_;
    /** Stage-1 perceptron for the Bypass policy, and the stage-1
     *  slot of the Pcax policy. */
    std::optional<predictor::PerceptronBypassPredictor> bypass_;
    /** Two-stage predictor for the Combined/Vespa policies. */
    std::optional<predictor::CombinedIndexPredictor> combined_;
    /** Hashed translation predictor for the Revelator policy. */
    std::optional<predictor::HashedXlatPredictor> revelator_;
    /** PC-indexed translation predictor (Pcax stage 2). */
    std::optional<predictor::PcXlatPredictor> pcax_;

    // The memory stage's state (accessArray()).
    alignas(64) cache::CacheArray array_;
    std::optional<cache::WayPredictor> wayPredictor_;
    /** Record ArrayFacts (the L1 is checked). */
    bool recordFacts_;

    // The timing stage's state (accessTimed()).
    /** Golden-model checker when params.check.enabled. */
    alignas(64) std::unique_ptr<check::DifferentialChecker> checker_;
    L1Stats stats_;
    /** Correct way predictions among the counted hits: the way
     *  predictor's own count, kept on this side. */
    std::uint64_t wayCorrect_ = 0;
    /** 1 / associativity: a correctly way-predicted read's share
     *  of a full read's energy. */
    double wayShare_;
    /** Process tracer when SIPT_TRACE is set, else nullptr; cached
     *  at construction so the per-access cost when disabled is one
     *  branch. */
    trace::Tracer *trace_ = nullptr;
    std::uint64_t traceLane_ = 0;

    /** access()'s log of its one access. */
    dram::AccessLog scratch_;
};

[[gnu::always_inline]] inline std::uint8_t
SiptL1Cache::accessArray(MemOp op, Addr paddr, dram::AccessLog &log,
                         ArrayFacts &facts)
{
    // One set scan: probe, then touch/dirty the resident way.
    const std::uint32_t set = array_.setOf(paddr);
    const int way = array_.probe(set, paddr);
    std::uint8_t outcome = 0;
    if (wayPredictor_) {
        const std::uint32_t predicted = wayPredictor_->predict(set);
        if (way < 0)
            wayPredictor_->recordMiss();
        else if (wayPredictor_->recordHit(
                     predicted, static_cast<std::uint32_t>(way)) == 0)
            outcome |= ArrayOutcome::wayCorrect;
    }
    if (way >= 0) {
        const auto w = static_cast<std::uint32_t>(way);
        array_.touch(set, w);
        if (op == MemOp::Store)
            array_.setDirty(set, w);
        if (recordFacts_) [[unlikely]]
            facts = {array_.dirtyAt(set, w), false, 0};
        return outcome | ArrayOutcome::hit;
    }
    return outcome | missArray(op, paddr, set, log, facts);
}

[[gnu::always_inline]] inline L1AccessResult
SiptL1Cache::accessTimed(const MemRef &ref, const vm::MmuResult &xlat,
                         Cycles now, SpecDecision decision,
                         std::uint8_t outcome, const ArrayFacts &facts,
                         const dram::AccessLog &log,
                         dram::AccessLog::Cursor &cursor)
{
    ++stats_.accesses;
    if (ref.op == MemOp::Load)
        ++stats_.loads;
    else
        ++stats_.stores;

    bool fast = true;
    switch (decision) {
      case SpecDecision::Direct:
        break;
      case SpecDecision::Speculate:
        ++stats_.spec.correctSpeculation;
        break;
      case SpecDecision::DeltaHit:
        ++stats_.spec.idbHit;
        break;
      case SpecDecision::Replay:
        // Wasted speculative probe, then replay with the physical
        // index once translation completes. The wasted probe went
        // to the *wrong set*: way prediction cannot salvage it, so
        // it costs a full read regardless of the predictor.
        ++stats_.spec.extraAccess;
        ++stats_.extraArrayAccesses;
        ++stats_.arrayAccesses;
        stats_.weightedArrayAccesses += 1.0;
        fast = false;
        break;
      case SpecDecision::BypassCorrect:
        // Bypass: wait for the PA; single array access.
        ++stats_.spec.correctBypass;
        fast = false;
        break;
      case SpecDecision::BypassLoss:
        ++stats_.spec.opportunityLoss;
        fast = false;
        break;
    }

    if (xlat.hugePage) {
        ++stats_.hugeAccesses;
        if (decision == SpecDecision::Replay)
            ++stats_.hugeReplays;
        else if (decision == SpecDecision::BypassLoss)
            ++stats_.hugeBypassLosses;
    }

    if (fast)
        ++stats_.fastAccesses;
    else
        ++stats_.slowAccesses;

    // A fast access proceeds in parallel with translation and
    // completes at max(array, translation); otherwise the array
    // access starts only after translation.
    const Cycles ready =
        fast ? now + std::max<Cycles>(params_.hitLatency,
                                      xlat.latency)
             : now + xlat.latency + params_.hitLatency;

    // The array access itself: a predicted way reads 1/assoc of
    // the array, any other read all of it.
    ++stats_.arrayAccesses;
    const bool way_correct = (outcome & ArrayOutcome::wayCorrect) != 0;
    if (way_correct) {
        ++wayCorrect_;
        stats_.weightedArrayAccesses += wayShare_;
    } else {
        stats_.weightedArrayAccesses += 1.0;
    }
    L1AccessResult res;
    res.fast = fast;
    if (outcome & ArrayOutcome::hit) {
        ++stats_.hits;
        res.hit = true;
        res.latency = ready - now;
        if (params_.wayPrediction && !way_correct)
            res.latency += cache::WayPredictor::mispredictPenalty;
    } else {
        res.latency = (ready - now) +
                      missTimed(xlat.paddr, outcome, ready, log, cursor);
    }
    if (checker_ || trace_) [[unlikely]]
        observeAccess(ref, xlat, now, decision, res, outcome, facts);
    return res;
}

} // namespace sipt

#endif // SIPT_SIPT_L1_CACHE_HH
