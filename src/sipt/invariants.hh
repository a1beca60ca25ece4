/**
 * @file
 * Pure closure/conservation invariants over the L1's own counters.
 *
 * These encode the paper's accounting identities: speculation can
 * move an access between the fast and slow buckets and can add
 * wasted array probes, but every access is counted exactly once in
 * each partition, and the energy-weighted probe count can never
 * exceed the raw probe count (way prediction only ever discounts a
 * correctly predicted hit). SiptL1Cache runs them after every
 * checked access and reports a violation through its differential
 * checker's failure policy; they are also unit-tested directly, so
 * a counter that silently drifts is caught the moment it happens
 * rather than after it has corrupted a figure.
 *
 * The partition an access falls in depends on the policy *and* the
 * geometry: VIPT, Ideal, and any SIPT policy on a geometry with
 * zero speculative bits never enter the speculation path, so all
 * three are held to the direct partition.
 */

#ifndef SIPT_SIPT_INVARIANTS_HH
#define SIPT_SIPT_INVARIANTS_HH

#include <cstdint>
#include <string>

#include "sipt/l1_cache.hh"

namespace sipt
{

/**
 * Check the counting identities (hits+misses == accesses,
 * writebacks <= misses, fast+slow == accesses, the per-policy
 * speculation partition, arrayAccesses == accesses +
 * extraArrayAccesses).
 *
 * @param spec_bits the geometry's speculative index bits
 * @return empty string when all identities hold, else a
 *         description of the first violated identity
 */
std::string checkStatsClosure(const L1Stats &stats,
                              IndexingPolicy policy,
                              unsigned spec_bits);

/**
 * Check energy conservation: weightedArrayAccesses never exceeds
 * arrayAccesses, and equals arrayAccesses minus the way-prediction
 * discount exactly — every probe is a full-cost read except a
 * correctly way-predicted hit at 1/assoc. A replayed (wasted)
 * probe of the wrong set must be charged as a full read.
 *
 * @param way_pred_correct way-prediction hits charged at 1/assoc
 *        (0 when way prediction is disabled)
 * @return empty string when conserved, else a description
 */
std::string checkEnergyClosure(const L1Stats &stats,
                               std::uint32_t assoc,
                               std::uint64_t way_pred_correct);

/**
 * Check one huge-page access's speculation decision for legality.
 * On a 2 MiB page the <= 3 speculative index bits sit entirely
 * below the 21-bit huge-page offset, so translation provably
 * preserves them: speculating with the VA bits can never need a
 * replay, and a bypass can never be "correct". Consequently, on a
 * huge-page reference:
 *
 *  - BypassCorrect is a contradiction under every policy;
 *  - Replay is illegal for the VA-bits speculators (Naive, Bypass,
 *    Vespa) but legal for the value predictors (Combined,
 *    Revelator, Pcax), whose stage-2 may predict *changed* bits
 *    and be wrong — exactly the waste the VESPA gate removes;
 *  - Vespa's gate must fire: anything but Speculate is a bug.
 *
 * Only call for huge-page references; small pages carry no such
 * guarantee.
 *
 * @return empty string when legal, else a description
 */
std::string checkHugePageDecision(IndexingPolicy policy,
                                  unsigned spec_bits,
                                  SpecDecision decision);

} // namespace sipt

#endif // SIPT_SIPT_INVARIANTS_HH
