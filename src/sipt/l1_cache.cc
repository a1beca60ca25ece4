#include "sipt/l1_cache.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt
{

const char *
policyName(IndexingPolicy policy)
{
    switch (policy) {
      case IndexingPolicy::Vipt:
        return "VIPT";
      case IndexingPolicy::Ideal:
        return "Ideal";
      case IndexingPolicy::SiptNaive:
        return "SIPT-naive";
      case IndexingPolicy::SiptBypass:
        return "SIPT-bypass";
      case IndexingPolicy::SiptCombined:
        return "SIPT-combined";
      case IndexingPolicy::SiptVespa:
        return "SIPT-vespa";
      case IndexingPolicy::SiptRevelator:
        return "SIPT-revelator";
      case IndexingPolicy::SiptPcax:
        return "SIPT-pcax";
    }
    return "?";
}

namespace
{

/** Relative dynamic energy of the predictor tables per access:
 *  the paper bounds the combined predictor at < 2% of an L1 access
 *  (perceptron read = 0.34%, similar for training, IDB smaller).
 *  The translation-value tables are costed the same way: the
 *  hashed Revelator table is a single tagged read (slightly under
 *  the two-stage combined predictor), the PCAX table adds a full
 *  frame-delta read to the perceptron. Vespa charges the combined
 *  fraction only on accesses that actually consult the predictor
 *  (the superpage gate pre-empts it on huge pages). */
constexpr double bypassPredictorEnergyFraction = 0.007;
constexpr double combinedPredictorEnergyFraction = 0.012;
constexpr double revelatorPredictorEnergyFraction = 0.010;
constexpr double pcaxPredictorEnergyFraction = 0.013;

/** Explicit SpecDecision -> check::SpecClass map (no enum-value
 *  punning between the layers). */
check::SpecClass
specClassOf(SpecDecision decision)
{
    switch (decision) {
      case SpecDecision::Direct:
        return check::SpecClass::Direct;
      case SpecDecision::Speculate:
        return check::SpecClass::Speculate;
      case SpecDecision::DeltaHit:
        return check::SpecClass::DeltaHit;
      case SpecDecision::Replay:
        return check::SpecClass::Replay;
      case SpecDecision::BypassCorrect:
        return check::SpecClass::BypassCorrect;
      case SpecDecision::BypassLoss:
        return check::SpecClass::BypassLoss;
    }
    return check::SpecClass::Direct;
}

/** The tracer's view of a decision: both bypass flavours are one
 *  outcome there. */
trace::AccessOutcome
traceOutcomeOf(SpecDecision decision)
{
    switch (decision) {
      case SpecDecision::Direct:
        return trace::AccessOutcome::Direct;
      case SpecDecision::Speculate:
        return trace::AccessOutcome::Speculate;
      case SpecDecision::DeltaHit:
        return trace::AccessOutcome::DeltaHit;
      case SpecDecision::Replay:
        return trace::AccessOutcome::Replay;
      case SpecDecision::BypassCorrect:
      case SpecDecision::BypassLoss:
        return trace::AccessOutcome::Bypass;
    }
    return trace::AccessOutcome::Direct;
}

} // namespace

SiptL1Cache::SiptL1Cache(const L1Params &params,
                         cache::BelowL1 &below)
    : params_(params), below_(below), array_(params.geometry),
      specBits_(params.geometry.speculativeBits()),
      specMask_(mask(params.geometry.speculativeBits()))
{
    if (params.policy == IndexingPolicy::Vipt && specBits_ != 0) {
        fatal("VIPT geometry infeasible: way size ",
              params.geometry.sizeBytes / params.geometry.assoc,
              " B exceeds the 4 KiB page (needs ", specBits_,
              " speculative bits)");
    }
    if (params.wayPrediction) {
        wayPredictor_ =
            std::make_unique<cache::WayPredictor>(array_);
    }
    if (specBits_ > 0 &&
        (params.policy == IndexingPolicy::SiptBypass ||
         params.policy == IndexingPolicy::SiptPcax)) {
        bypass_ =
            std::make_unique<predictor::PerceptronBypassPredictor>(
                params.perceptron);
    }
    if (specBits_ > 0 &&
        (params.policy == IndexingPolicy::SiptCombined ||
         params.policy == IndexingPolicy::SiptVespa)) {
        combined_ =
            std::make_unique<predictor::CombinedIndexPredictor>(
                specBits_, params.perceptron, params.idb);
    }
    if (specBits_ > 0 &&
        params.policy == IndexingPolicy::SiptRevelator) {
        revelator_ =
            std::make_unique<predictor::HashedXlatPredictor>(
                params.hashedXlat);
    }
    if (specBits_ > 0 &&
        params.policy == IndexingPolicy::SiptPcax) {
        pcax_ = std::make_unique<predictor::PcXlatPredictor>(
            params.pcXlat);
    }
    if (params.check.enabled) {
        checker_ = std::make_unique<check::DifferentialChecker>(
            params.check, params.geometry.sizeBytes,
            params.geometry.assoc, params.geometry.lineBytes,
            params.geometry.repl == cache::ReplPolicy::Lru);
    }
    trace_ = trace::Tracer::globalIfEnabled();
    if (trace_)
        traceLane_ = trace_->newLane();
}

L1AccessResult
SiptL1Cache::access(const MemRef &ref, const vm::MmuResult &xlat,
                    Cycles now)
{
    return accessDecided(ref, xlat, now, decide(ref, xlat));
}

template <IndexingPolicy Policy>
SpecDecision
SiptL1Cache::decideOne(Addr pc, Addr vaddr, Addr paddr,
                       bool huge_page)
{
    const Vpn vpn = pageNumber(vaddr);
    const Pfn pfn = pageNumber(paddr);
    const auto va_bits =
        static_cast<std::uint32_t>(vpn & specMask_);
    const auto pa_bits =
        static_cast<std::uint32_t>(pfn & specMask_);
    const bool unchanged = va_bits == pa_bits;

    if constexpr (Policy == IndexingPolicy::SiptNaive) {
        return unchanged ? SpecDecision::Speculate
                         : SpecDecision::Replay;
    } else if constexpr (Policy == IndexingPolicy::SiptBypass) {
        const bool speculate = bypass_->resolve(pc, unchanged);
        return speculate ? (unchanged ? SpecDecision::Speculate
                                      : SpecDecision::Replay)
                         : (unchanged
                                ? SpecDecision::BypassLoss
                                : SpecDecision::BypassCorrect);
    } else if constexpr (Policy == IndexingPolicy::SiptCombined ||
                         Policy == IndexingPolicy::SiptVespa) {
        if constexpr (Policy == IndexingPolicy::SiptVespa) {
            // Superpage gate: the speculative index bits sit below
            // the 2 MiB offset, so translation preserves them.
            // Speculate unconditionally and leave the predictors
            // untouched — no capacity burnt on the tautology.
            if (huge_page)
                return SpecDecision::Speculate;
        }
        const auto pred = combined_->resolve(pc, vpn, pfn);
        return pred.bits == pa_bits
                   ? (pred.source ==
                              predictor::IndexSource::VaBits
                          ? SpecDecision::Speculate
                          : SpecDecision::DeltaHit)
                   : SpecDecision::Replay;
    } else if constexpr (Policy ==
                         IndexingPolicy::SiptRevelator) {
        const Pfn pred_pfn = revelator_->resolve(vpn, pfn);
        const auto pred_bits =
            static_cast<std::uint32_t>(pred_pfn & specMask_);
        return pred_bits == pa_bits
                   ? (pred_bits == va_bits
                          ? SpecDecision::Speculate
                          : SpecDecision::DeltaHit)
                   : SpecDecision::Replay;
    } else {
        static_assert(Policy == IndexingPolicy::SiptPcax);
        // Same two-stage shape as Combined: the perceptron decides
        // between the VA bits and the stage-2 value, which here is
        // the PC-indexed full-frame prediction.
        const int y = bypass_->outputFor(pc);
        bypass_->notePrediction();
        std::uint32_t pred_bits = va_bits;
        bool from_va = true;
        if (y < 0) {
            pred_bits = static_cast<std::uint32_t>(
                pcax_->predictPfn(pc, vpn) & specMask_);
            from_va = false;
        }
        bypass_->trainWithOutput(pc, unchanged, y);
        pcax_->update(pc, vpn, pfn);
        return pred_bits == pa_bits
                   ? (from_va ? SpecDecision::Speculate
                              : SpecDecision::DeltaHit)
                   : SpecDecision::Replay;
    }
}

SpecDecision
SiptL1Cache::decide(const MemRef &ref, const vm::MmuResult &xlat)
{
    if (specBits_ == 0)
        return SpecDecision::Direct;

    switch (params_.policy) {
      case IndexingPolicy::Ideal:
        // Oracle index: always fast.
        return SpecDecision::Direct;
      case IndexingPolicy::SiptNaive:
        return decideOne<IndexingPolicy::SiptNaive>(
            ref.pc, ref.vaddr, xlat.paddr, xlat.hugePage);
      case IndexingPolicy::SiptBypass:
        return decideOne<IndexingPolicy::SiptBypass>(
            ref.pc, ref.vaddr, xlat.paddr, xlat.hugePage);
      case IndexingPolicy::SiptCombined:
        return decideOne<IndexingPolicy::SiptCombined>(
            ref.pc, ref.vaddr, xlat.paddr, xlat.hugePage);
      case IndexingPolicy::SiptVespa:
        return decideOne<IndexingPolicy::SiptVespa>(
            ref.pc, ref.vaddr, xlat.paddr, xlat.hugePage);
      case IndexingPolicy::SiptRevelator:
        return decideOne<IndexingPolicy::SiptRevelator>(
            ref.pc, ref.vaddr, xlat.paddr, xlat.hugePage);
      case IndexingPolicy::SiptPcax:
        return decideOne<IndexingPolicy::SiptPcax>(
            ref.pc, ref.vaddr, xlat.paddr, xlat.hugePage);
      case IndexingPolicy::Vipt:
        panic("VIPT with speculative bits");
    }
    return SpecDecision::Direct;
}

template <IndexingPolicy Policy>
void
SiptL1Cache::decideLoop(std::size_t n, const Addr *pcs,
                        const Addr *vaddrs, const Addr *paddrs,
                        const std::uint8_t *huge_pages,
                        std::uint8_t *decisions_out)
{
    for (std::size_t i = 0; i < n; ++i) {
        decisions_out[i] =
            static_cast<std::uint8_t>(decideOne<Policy>(
                pcs[i], vaddrs[i], paddrs[i],
                huge_pages[i] != 0));
    }
}

void
SiptL1Cache::decideBatch(std::size_t n, const Addr *pcs,
                         const Addr *vaddrs, const Addr *paddrs,
                         const std::uint8_t *huge_pages,
                         std::uint8_t *decisions_out)
{
    if (specBits_ == 0 ||
        params_.policy == IndexingPolicy::Ideal) {
        std::fill(
            decisions_out, decisions_out + n,
            static_cast<std::uint8_t>(SpecDecision::Direct));
        return;
    }

    switch (params_.policy) {
      case IndexingPolicy::SiptNaive:
        decideLoop<IndexingPolicy::SiptNaive>(
            n, pcs, vaddrs, paddrs, huge_pages, decisions_out);
        break;
      case IndexingPolicy::SiptBypass:
        decideLoop<IndexingPolicy::SiptBypass>(
            n, pcs, vaddrs, paddrs, huge_pages, decisions_out);
        break;
      case IndexingPolicy::SiptCombined:
        decideLoop<IndexingPolicy::SiptCombined>(
            n, pcs, vaddrs, paddrs, huge_pages, decisions_out);
        break;
      case IndexingPolicy::SiptVespa:
        decideLoop<IndexingPolicy::SiptVespa>(
            n, pcs, vaddrs, paddrs, huge_pages, decisions_out);
        break;
      case IndexingPolicy::SiptRevelator:
        decideLoop<IndexingPolicy::SiptRevelator>(
            n, pcs, vaddrs, paddrs, huge_pages, decisions_out);
        break;
      case IndexingPolicy::SiptPcax:
        decideLoop<IndexingPolicy::SiptPcax>(
            n, pcs, vaddrs, paddrs, huge_pages, decisions_out);
        break;
      case IndexingPolicy::Vipt:
      case IndexingPolicy::Ideal:
        panic("unreachable decideBatch policy");
    }
}

void
SiptL1Cache::observeAccess(const MemRef &ref,
                           const vm::MmuResult &xlat, Cycles now,
                           SpecDecision decision,
                           const L1AccessResult &res,
                           std::uint32_t set, int way,
                           const std::optional<cache::Eviction>
                               &evicted)
{
    if (checker_) {
        check::Observation obs;
        obs.vaddr = ref.vaddr;
        obs.paddr = xlat.paddr;
        obs.op = ref.op;
        obs.hugePage = xlat.hugePage;
        obs.spec = specClassOf(decision);
        obs.hit = res.hit;
        if (res.hit) {
            obs.dirtyAfter =
                array_.dirtyAt(set, static_cast<std::uint32_t>(way));
        } else {
            obs.dirtyAfter = ref.op == MemOp::Store;
            if (evicted) {
                obs.evicted = true;
                obs.evictedLine = evicted->lineAddr;
                obs.evictedDirty = evicted->dirty;
                obs.writeback = evicted->dirty;
            }
        }
        checker_->onAccess(obs, statsView());
    }
    if (trace_) {
        trace::AccessEvent event;
        event.policy = policyName(params_.policy);
        event.outcome = traceOutcomeOf(decision);
        event.pc = ref.pc;
        event.vaddr = ref.vaddr;
        event.cycle = now;
        event.tlbLatency = xlat.latency;
        event.l1Latency = res.latency;
        event.hit = res.hit;
        event.fast = res.fast;
        trace_->access(traceLane_, event);
    }
}

L1AccessResult
SiptL1Cache::missFill(const MemRef &ref, Addr paddr,
                      std::uint32_t set, Cycles now, Cycles ready,
                      bool fast,
                      std::optional<cache::Eviction> &evicted_out)
{
    ++stats_.misses;
    const Cycles fill_latency = below_.fill(paddr, ready);
    // Next-line prefetch into the level below (simple sequential
    // prefetcher, present in any contemporary baseline). The
    // prefetcher works on physical addresses, so it must stop at
    // the page boundary: the next physical line past the last line
    // of a page belongs to an unrelated frame, and prefetching it
    // would fabricate traffic no hardware prefetcher could emit
    // without a translation of the *next* virtual page.
    const Addr next_line = paddr + lineSize;
    if (pageNumber(next_line) == pageNumber(paddr))
        below_.prefetch(next_line, ready);
    evicted_out = array_.insert(set, paddr, ref.op == MemOp::Store);
    if (evicted_out && evicted_out->dirty) {
        ++stats_.writebacks;
        below_.writeback(evicted_out->lineAddr,
                         ready + fill_latency);
    }
    L1AccessResult res;
    res.hit = false;
    res.fast = fast;
    res.latency = (ready - now) + fill_latency;
    return res;
}

check::StatsView
SiptL1Cache::statsView() const
{
    check::StatsView view;
    switch (params_.policy) {
      case IndexingPolicy::Vipt:
      case IndexingPolicy::Ideal:
        view.policy = check::PolicyClass::Direct;
        break;
      case IndexingPolicy::SiptNaive:
        view.policy = specBits_ ? check::PolicyClass::Naive
                                : check::PolicyClass::Direct;
        break;
      case IndexingPolicy::SiptBypass:
        view.policy = specBits_ ? check::PolicyClass::Bypass
                                : check::PolicyClass::Direct;
        break;
      case IndexingPolicy::SiptCombined:
        view.policy = specBits_ ? check::PolicyClass::Combined
                                : check::PolicyClass::Direct;
        break;
      case IndexingPolicy::SiptVespa:
        view.policy = specBits_ ? check::PolicyClass::Vespa
                                : check::PolicyClass::Direct;
        break;
      case IndexingPolicy::SiptRevelator:
        view.policy = specBits_ ? check::PolicyClass::Revelator
                                : check::PolicyClass::Direct;
        break;
      case IndexingPolicy::SiptPcax:
        view.policy = specBits_ ? check::PolicyClass::Pcax
                                : check::PolicyClass::Direct;
        break;
    }
    view.assoc = array_.assoc();
    view.accesses = stats_.accesses;
    view.loads = stats_.loads;
    view.stores = stats_.stores;
    view.hits = stats_.hits;
    view.misses = stats_.misses;
    view.fastAccesses = stats_.fastAccesses;
    view.slowAccesses = stats_.slowAccesses;
    view.extraArrayAccesses = stats_.extraArrayAccesses;
    view.arrayAccesses = stats_.arrayAccesses;
    view.weightedArrayAccesses = stats_.weightedArrayAccesses;
    view.correctSpeculation = stats_.spec.correctSpeculation;
    view.correctBypass = stats_.spec.correctBypass;
    view.opportunityLoss = stats_.spec.opportunityLoss;
    view.extraAccess = stats_.spec.extraAccess;
    view.idbHit = stats_.spec.idbHit;
    view.wayPredCorrect =
        wayPredictor_ ? wayPredictor_->correct() : 0;
    view.hugeAccesses = stats_.hugeAccesses;
    view.hugeReplays = stats_.hugeReplays;
    view.hugeBypassLosses = stats_.hugeBypassLosses;
    return view;
}

std::uint64_t
SiptL1Cache::checkDigest() const
{
    return checker_ ? checker_->digest() : 0;
}

std::uint64_t
SiptL1Cache::checkEventCount() const
{
    return checker_ ? checker_->eventCount() : 0;
}

std::string
SiptL1Cache::checkFailure() const
{
    return checker_ ? checker_->failure() : std::string{};
}

double
SiptL1Cache::dynamicEnergyNj() const
{
    double energy =
        stats_.weightedArrayAccesses * params_.accessEnergyNj;
    double fraction = 0.0;
    std::uint64_t charged = stats_.accesses;
    switch (params_.policy) {
      case IndexingPolicy::SiptBypass:
        if (bypass_)
            fraction = bypassPredictorEnergyFraction;
        break;
      case IndexingPolicy::SiptCombined:
        if (combined_)
            fraction = combinedPredictorEnergyFraction;
        break;
      case IndexingPolicy::SiptVespa:
        // The superpage gate pre-empts the predictor on huge
        // pages, so those accesses never read the tables.
        if (combined_) {
            fraction = combinedPredictorEnergyFraction;
            charged = stats_.accesses - stats_.hugeAccesses;
        }
        break;
      case IndexingPolicy::SiptRevelator:
        if (revelator_)
            fraction = revelatorPredictorEnergyFraction;
        break;
      case IndexingPolicy::SiptPcax:
        if (pcax_)
            fraction = pcaxPredictorEnergyFraction;
        break;
      case IndexingPolicy::Vipt:
      case IndexingPolicy::Ideal:
      case IndexingPolicy::SiptNaive:
        break;
    }
    energy += static_cast<double>(charged) * fraction *
              params_.accessEnergyNj;
    return energy;
}

void
SiptL1Cache::resetStats()
{
    stats_ = L1Stats{};
    if (wayPredictor_)
        wayPredictor_->resetStats();
    // The golden model keeps its cache contents (they mirror the
    // array, which survives the reset) but restarts the event
    // stream so measured-phase digests compare across policies.
    if (checker_)
        checker_->resetStream();
}

double
SiptL1Cache::hitRate() const
{
    return stats_.accesses
               ? static_cast<double>(stats_.hits) /
                     static_cast<double>(stats_.accesses)
               : 0.0;
}

double
SiptL1Cache::fastFraction() const
{
    return stats_.accesses
               ? static_cast<double>(stats_.fastAccesses) /
                     static_cast<double>(stats_.accesses)
               : 0.0;
}

} // namespace sipt
