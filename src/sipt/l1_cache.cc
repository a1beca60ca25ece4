#include "sipt/l1_cache.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "sipt/invariants.hh"

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

const char *
specDecisionName(SpecDecision decision)
{
    switch (decision) {
      case SpecDecision::Direct:
        return "direct";
      case SpecDecision::Speculate:
        return "speculate";
      case SpecDecision::DeltaHit:
        return "delta-hit";
      case SpecDecision::Replay:
        return "replay";
      case SpecDecision::BypassCorrect:
      case SpecDecision::BypassLoss:
        return "bypass";
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

} // namespace

SiptL1Cache::SiptL1Cache(const L1Params &params,
                         cache::BelowL1 &below)
    : params_(params), below_(below),
      specBits_(params.geometry.speculativeBits()),
      specMask_(mask(params.geometry.speculativeBits())),
      array_(params.geometry), recordFacts_(params.check.enabled),
      wayShare_(1.0 / static_cast<double>(params.geometry.assoc))
{
    if (params.policy == IndexingPolicy::Vipt && specBits_ != 0) {
        fatal("VIPT geometry infeasible: way size ",
              params.geometry.sizeBytes / params.geometry.assoc,
              " B exceeds the 4 KiB page (needs ", specBits_,
              " speculative bits)");
    }
    if (params.wayPrediction) {
        wayPredictor_.emplace(array_);
    }
    if (specBits_ > 0 &&
        (params.policy == IndexingPolicy::SiptBypass ||
         params.policy == IndexingPolicy::SiptPcax)) {
        bypass_.emplace(params.perceptron);
    }
    if (specBits_ > 0 &&
        (params.policy == IndexingPolicy::SiptCombined ||
         params.policy == IndexingPolicy::SiptVespa)) {
        combined_.emplace(specBits_, params.perceptron, params.idb);
    }
    if (specBits_ > 0 &&
        params.policy == IndexingPolicy::SiptRevelator) {
        revelator_.emplace(params.hashedXlat);
    }
    if (specBits_ > 0 &&
        params.policy == IndexingPolicy::SiptPcax) {
        pcax_.emplace(params.pcXlat);
    }
    if (params.check.enabled) {
        checker_ = std::make_unique<check::DifferentialChecker>(
            params.check, params.geometry.sizeBytes,
            params.geometry.assoc, params.geometry.lineBytes);
    }
    trace_ = trace::Tracer::globalIfEnabled();
    if (trace_)
        traceLane_ = trace_->newLane();
}

L1AccessResult
SiptL1Cache::access(const MemRef &ref, const vm::MmuResult &xlat,
                    Cycles now)
{
    const SpecDecision decision = decide(ref, xlat);
    scratch_.clear();
    ArrayFacts facts;
    const std::uint8_t outcome =
        accessArray(ref.op, xlat.paddr, scratch_, facts);
    dram::AccessLog::Cursor cursor;
    return accessTimed(ref, xlat, now, decision, outcome, facts,
                       scratch_, cursor);
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
        const bool from_va = bypass_->resolve(pc, unchanged);
        const auto pred_bits =
            from_va ? va_bits
                    : static_cast<std::uint32_t>(
                          pcax_->predictPfn(pc, vpn) & specMask_);
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
    const std::uint8_t huge_page = xlat.hugePage ? 1 : 0;
    std::uint8_t decision;
    decideBatch(1, &ref.pc, &ref.vaddr, &xlat.paddr, &huge_page,
                &decision);
    return static_cast<SpecDecision>(decision);
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
                           std::uint8_t outcome,
                           const ArrayFacts &facts)
{
    if (checker_) {
        check::Observation obs;
        obs.vaddr = ref.vaddr;
        obs.paddr = xlat.paddr;
        obs.op = ref.op;
        obs.hit = res.hit;
        obs.dirtyAfter = facts.dirtyAfter;
        if (!res.hit && facts.evicted) {
            obs.evicted = true;
            obs.evictedLine = facts.evictedLine;
            obs.evictedDirty =
                (outcome & ArrayOutcome::writeback) != 0;
            obs.writeback = obs.evictedDirty;
        }
        if (checker_->onAccess(obs)) {
            // Huge-page legality first: on a 2 MiB page the
            // speculative index bits sit below the page offset, so
            // some decisions are contradictions.
            std::string violation =
                xlat.hugePage ? checkHugePageDecision(params_.policy,
                                                      specBits_,
                                                      decision)
                              : std::string{};
            if (violation.empty()) {
                std::string closure = checkStatsClosure(
                    stats_, params_.policy, specBits_);
                if (closure.empty()) {
                    closure = checkEnergyClosure(
                        stats_, params_.geometry.assoc, wayCorrect_);
                }
                if (!closure.empty())
                    violation = "invariant violated: " + closure;
            }
            if (!violation.empty())
                checker_->failAccess(violation);
        }
    }
    if (trace_) {
        trace::AccessEvent event;
        event.policy = policyName(params_.policy);
        event.outcome = specDecisionName(decision);
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

std::uint8_t
SiptL1Cache::missArray(MemOp op, Addr paddr, std::uint32_t set,
                       dram::AccessLog &log, ArrayFacts &facts)
{
    auto outcome = static_cast<std::uint8_t>(
        below_.fill(paddr, log) << ArrayOutcome::fillShift);
    // Next-line prefetch into the level below (simple sequential
    // prefetcher, present in any contemporary baseline). The
    // prefetcher works on physical addresses, so it must stop at
    // the page boundary: the next physical line past the last line
    // of a page belongs to an unrelated frame, and prefetching it
    // would fabricate traffic no hardware prefetcher could emit
    // without a translation of the *next* virtual page.
    const Addr next_line = paddr + lineSize;
    if (pageNumber(next_line) == pageNumber(paddr) &&
        below_.prefetch(next_line, log))
        outcome |= ArrayOutcome::prefetchDram;
    const auto evicted = array_.insert(set, paddr, op == MemOp::Store);
    if (evicted && evicted->dirty) {
        outcome |= ArrayOutcome::writeback;
        if (below_.writeback(evicted->lineAddr, log))
            outcome |= ArrayOutcome::writebackDram;
    }
    if (recordFacts_) {
        facts = {op == MemOp::Store, evicted.has_value(),
                 evicted ? evicted->lineAddr : 0};
    }
    return outcome;
}

Cycles
SiptL1Cache::missTimed(Addr paddr, std::uint8_t outcome, Cycles ready,
                       const dram::AccessLog &log,
                       dram::AccessLog::Cursor &cursor)
{
    ++stats_.misses;
    const Cycles fill_latency = below_.timeFill(
        paddr, static_cast<std::uint8_t>(outcome >> ArrayOutcome::fillShift),
        log, cursor, ready);
    if (outcome & ArrayOutcome::prefetchDram)
        below_.time(log, cursor, ready);
    if (outcome & ArrayOutcome::writeback)
        ++stats_.writebacks;
    if (outcome & ArrayOutcome::writebackDram)
        below_.time(log, cursor, ready + fill_latency);
    return fill_latency;
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
    resetTimingStats();
    resetArrayStats();
}

void
SiptL1Cache::resetTimingStats()
{
    stats_ = L1Stats{};
    wayCorrect_ = 0;
    // The golden model keeps its cache contents (they mirror the
    // array, which survives the reset) but restarts the event
    // stream so measured-phase digests compare across policies.
    if (checker_)
        checker_->resetStream();
}

void
SiptL1Cache::resetArrayStats()
{
    if (wayPredictor_)
        wayPredictor_->resetStats();
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
