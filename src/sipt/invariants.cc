#include "sipt/invariants.hh"

#include <cmath>
#include <sstream>

namespace sipt
{

namespace
{

/** Format "name (lhs) != name (rhs)" for a failed identity. */
std::string
identity(const char *what, std::uint64_t lhs, std::uint64_t rhs)
{
    std::ostringstream os;
    os << what << ": " << lhs << " != " << rhs;
    return os.str();
}

/** The policy whose partition governs the counters: Ideal, and a
 *  SIPT policy on a geometry with no speculative bits, never enter
 *  the speculation path, so they are held to VIPT's. */
IndexingPolicy
partitionOf(IndexingPolicy policy, unsigned spec_bits)
{
    return spec_bits == 0 || policy == IndexingPolicy::Ideal
               ? IndexingPolicy::Vipt
               : policy;
}

/** True for the policies whose stage 2 predicts a changed index
 *  value (and so may produce DeltaHit, or Replay a huge page). */
bool
predictsValue(IndexingPolicy partition)
{
    return partition == IndexingPolicy::SiptCombined ||
           partition == IndexingPolicy::SiptRevelator ||
           partition == IndexingPolicy::SiptPcax;
}

} // namespace

std::string
checkStatsClosure(const L1Stats &s, IndexingPolicy policy,
                  unsigned spec_bits)
{
    const SpeculationStats &spec = s.spec;
    if (s.loads + s.stores != s.accesses) {
        return identity("loads+stores != accesses",
                        s.loads + s.stores, s.accesses);
    }
    if (s.hits + s.misses != s.accesses) {
        return identity("hits+misses != accesses",
                        s.hits + s.misses, s.accesses);
    }
    // Only a miss fill evicts, so only a miss can write back.
    if (s.writebacks > s.misses) {
        return identity("writebacks > misses", s.writebacks,
                        s.misses);
    }
    if (s.fastAccesses + s.slowAccesses != s.accesses) {
        return identity("fast+slow != accesses",
                        s.fastAccesses + s.slowAccesses,
                        s.accesses);
    }
    if (s.accesses + s.extraArrayAccesses != s.arrayAccesses) {
        return identity("accesses+extra != arrayAccesses",
                        s.accesses + s.extraArrayAccesses,
                        s.arrayAccesses);
    }
    if (spec.extraAccess != s.extraArrayAccesses) {
        return identity("spec.extraAccess != extraArrayAccesses",
                        spec.extraAccess, s.extraArrayAccesses);
    }
    if (s.hugeAccesses > s.accesses) {
        return identity("hugeAccesses > accesses", s.hugeAccesses,
                        s.accesses);
    }
    if (s.hugeReplays > s.hugeAccesses ||
        s.hugeBypassLosses > s.hugeAccesses) {
        return identity("huge outcome counters > hugeAccesses",
                        s.hugeReplays + s.hugeBypassLosses,
                        s.hugeAccesses);
    }
    if (s.hugeReplays > spec.extraAccess) {
        return identity("hugeReplays > spec.extraAccess",
                        s.hugeReplays, spec.extraAccess);
    }
    if (s.hugeBypassLosses > spec.opportunityLoss) {
        return identity("hugeBypassLosses > spec.opportunityLoss",
                        s.hugeBypassLosses, spec.opportunityLoss);
    }

    // Per-policy partition of the speculation taxonomy: every
    // access lands in exactly one bucket of the buckets the policy
    // can produce, and the other buckets stay zero.
    const IndexingPolicy partition = partitionOf(policy, spec_bits);
    switch (partition) {
      case IndexingPolicy::Vipt:
      case IndexingPolicy::Ideal:
        if (spec.correctSpeculation || spec.correctBypass ||
            spec.opportunityLoss || spec.extraAccess ||
            spec.idbHit) {
            return "direct policy must keep all speculation "
                   "counters zero";
        }
        break;
      case IndexingPolicy::SiptNaive:
        if (spec.correctSpeculation + spec.extraAccess !=
            s.accesses) {
            return identity(
                "naive: correctSpec+extra != accesses",
                spec.correctSpeculation + spec.extraAccess,
                s.accesses);
        }
        if (spec.correctBypass || spec.opportunityLoss ||
            spec.idbHit) {
            return "naive policy cannot bypass or hit the IDB";
        }
        if (s.hugeReplays) {
            return "naive policy replayed a huge-page access "
                   "whose index bits are provably unchanged";
        }
        break;
      case IndexingPolicy::SiptBypass:
        if (spec.correctSpeculation + spec.extraAccess +
                spec.correctBypass + spec.opportunityLoss !=
            s.accesses) {
            return identity(
                "bypass: spec buckets != accesses",
                spec.correctSpeculation + spec.extraAccess +
                    spec.correctBypass + spec.opportunityLoss,
                s.accesses);
        }
        if (spec.idbHit)
            return "bypass policy cannot hit the IDB";
        if (s.hugeReplays) {
            return "bypass policy replayed a huge-page access "
                   "whose index bits are provably unchanged";
        }
        break;
      case IndexingPolicy::SiptCombined:
      case IndexingPolicy::SiptVespa:
      case IndexingPolicy::SiptRevelator:
      case IndexingPolicy::SiptPcax:
        // The value-predicting policies share one partition: every
        // access speculated (with VA bits or a predicted value) and
        // either matched or replayed; none ever bypasses outright.
        if (spec.correctSpeculation + spec.idbHit +
                spec.extraAccess !=
            s.accesses) {
            return identity(
                "predicting: correctSpec+idb+extra != accesses",
                spec.correctSpeculation + spec.idbHit +
                    spec.extraAccess,
                s.accesses);
        }
        if (spec.correctBypass || spec.opportunityLoss)
            return "predicting policies never bypass outright";
        // Vespa's superpage gate makes every huge access a plain
        // VA-bits speculation: no stage-2 prediction may run, so
        // a huge replay (or delta hit) is structurally impossible.
        if (partition == IndexingPolicy::SiptVespa &&
            s.hugeReplays) {
            return "vespa gate failed: huge-page access replayed "
                   "despite unconditional speculation";
        }
        break;
    }
    // No policy in this taxonomy loses a huge-page fast access to
    // a bypass: Bypass is the only class that bypasses at all, and
    // for it a huge BypassLoss is precisely the predictor waste
    // this counter exists to expose — bounded but legal.
    if (partition != IndexingPolicy::SiptBypass &&
        s.hugeBypassLosses) {
        return "non-bypass policy recorded a huge bypass loss";
    }
    return {};
}

std::string
checkEnergyClosure(const L1Stats &s, std::uint32_t assoc,
                   std::uint64_t way_pred_correct)
{
    // Absolute tolerance scaled by the number of accumulations:
    // each += can contribute half an ulp of drift.
    const double tolerance =
        1e-9 * (static_cast<double>(s.arrayAccesses) + 1.0);

    if (s.weightedArrayAccesses >
        static_cast<double>(s.arrayAccesses) + tolerance) {
        std::ostringstream os;
        os << "weightedArrayAccesses ("
           << s.weightedArrayAccesses
           << ") exceeds arrayAccesses (" << s.arrayAccesses
           << ")";
        return os.str();
    }

    // Exact conservation: the only discount way prediction may ever
    // apply is 1/assoc on a correctly predicted hit; every other
    // probe — including a wasted replay probe of the wrong set — is
    // a full-cost read.
    const double discount =
        static_cast<double>(way_pred_correct) *
        (1.0 - 1.0 / static_cast<double>(assoc));
    const double expected =
        static_cast<double>(s.arrayAccesses) - discount;
    if (std::fabs(s.weightedArrayAccesses - expected) > tolerance) {
        std::ostringstream os;
        os << "energy conservation: weightedArrayAccesses ("
           << s.weightedArrayAccesses << ") != arrayAccesses - "
           << "wayPredCorrect*(1-1/assoc) (" << expected << ")";
        return os.str();
    }
    return {};
}

std::string
checkHugePageDecision(IndexingPolicy policy, unsigned spec_bits,
                      SpecDecision decision)
{
    const IndexingPolicy partition = partitionOf(policy, spec_bits);
    const bool direct = partition == IndexingPolicy::Vipt;
    const char *illegal = nullptr;
    switch (decision) {
      case SpecDecision::Direct:
        if (!direct)
            illegal = "speculating policy produced Direct";
        break;
      case SpecDecision::Speculate:
        if (direct)
            illegal = "direct policy speculated";
        break;
      case SpecDecision::DeltaHit:
        // Only a stage-2 value prediction can produce DeltaHit,
        // and Vespa's gate must have pre-empted stage 2.
        if (!predictsValue(partition)) {
            illegal = "DeltaHit without a stage-2 predictor (or "
                      "past the vespa gate)";
        }
        break;
      case SpecDecision::Replay:
        // The VA index bits sit below the huge-page offset, so a
        // VA-bits speculation can never be wrong; only a *value*
        // predictor can manufacture a wrong index here.
        if (!predictsValue(partition))
            illegal = "replay of provably-unchanged index bits";
        break;
      case SpecDecision::BypassCorrect:
        // "The bits would have changed" contradicts the huge-page
        // offset argument under every policy.
        illegal = "bypass declared correct, but the bits cannot "
                  "have changed";
        break;
      case SpecDecision::BypassLoss:
        if (partition != IndexingPolicy::SiptBypass)
            illegal = "non-bypass policy bypassed";
        break;
    }
    if (!illegal)
        return {};
    std::ostringstream os;
    os << "huge-page decision " << specDecisionName(decision)
       << " illegal under " << policyName(policy) << " (" << illegal
       << ")";
    return os.str();
}

} // namespace sipt
