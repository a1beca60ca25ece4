/**
 * @file
 * Tests for the differential golden-model harness: the invariant
 * closures, the untimed GoldenL1 reference, the lockstep
 * DifferentialChecker embedded in SiptL1Cache, mutation self-tests
 * (a corrupted oracle must be detected, proving a corrupted cache
 * would be), the below-L1 FillTracker, the pipeline's latency
 * check, and the 0-or-1 parsing of SIPT_CHECK.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "batch/pipeline.hh"
#include "cache/hierarchy.hh"
#include "cache/timing_cache.hh"
#include "check/golden_model.hh"
#include "check/options.hh"
#include "common/hash.hh"
#include "common/types.hh"
#include "cpu/core.hh"
#include "cpu/trace_source.hh"
#include "dram/dram.hh"
#include "sim/system.hh"
#include "sipt/invariants.hh"
#include "sipt/l1_cache.hh"
#include "vm/mmu.hh"
#include "vm/page_table.hh"

namespace sipt
{
namespace
{

using check::Mutation;
using check::Observation;

// ---------------------------------------------------------------
// Invariant closures on hand-built L1 counters.
// ---------------------------------------------------------------

/** Counters the closures accept under a direct policy. */
L1Stats
cleanDirectView()
{
    L1Stats v;
    v.accesses = 10;
    v.loads = 6;
    v.stores = 4;
    v.hits = 7;
    v.misses = 3;
    v.fastAccesses = 10;
    v.slowAccesses = 0;
    v.extraArrayAccesses = 0;
    v.arrayAccesses = 10;
    v.weightedArrayAccesses = 10.0;
    return v;
}

/** The stats closure under @p policy on a geometry with one
 *  speculative bit, where every SIPT policy speculates. */
std::string
closure(const L1Stats &v, IndexingPolicy policy = IndexingPolicy::Vipt)
{
    return checkStatsClosure(v, policy, 1);
}

/** The energy closure at associativity @p assoc with
 *  @p way_pred_correct correctly way-predicted hits. */
std::string
energy(const L1Stats &v, std::uint32_t assoc = 2,
       std::uint64_t way_pred_correct = 0)
{
    return checkEnergyClosure(v, assoc, way_pred_correct);
}

/** The huge-page legality check at one speculative bit. */
std::string
huge(IndexingPolicy policy, SpecDecision decision)
{
    return checkHugePageDecision(policy, 1, decision);
}

TEST(Invariants, CleanViewPasses)
{
    const L1Stats v = cleanDirectView();
    EXPECT_EQ(closure(v), "");
    EXPECT_EQ(energy(v), "");
}

TEST(Invariants, HitsAndMissesMustPartitionAccesses)
{
    L1Stats v = cleanDirectView();
    v.hits = 8; // 8 + 3 != 10
    EXPECT_NE(closure(v), "");
}

TEST(Invariants, WritebacksBoundedByMisses)
{
    // Only a miss fill's dirty victim is written back.
    L1Stats v = cleanDirectView();
    v.writebacks = 3;
    EXPECT_EQ(closure(v), "");
    v.writebacks = 4; // > 3 misses
    const std::string msg = closure(v);
    EXPECT_NE(msg.find("writebacks"), std::string::npos) << msg;
}

TEST(Invariants, FastAndSlowMustPartitionAccesses)
{
    L1Stats v = cleanDirectView();
    v.fastAccesses = 9;
    v.slowAccesses = 0;
    EXPECT_NE(closure(v), "");
}

TEST(Invariants, ArrayAccessesMustAccountExtras)
{
    L1Stats v = cleanDirectView();
    v.extraArrayAccesses = 2; // accesses + extra != array
    EXPECT_NE(closure(v), "");
}

TEST(Invariants, DirectPolicyForbidsSpecCounters)
{
    L1Stats v = cleanDirectView();
    v.spec.correctSpeculation = 1;
    EXPECT_NE(closure(v), "");
    EXPECT_NE(closure(v, IndexingPolicy::Ideal), "");
    // A SIPT policy on a geometry with no speculative bits never
    // speculates, so it is held to the direct partition too.
    EXPECT_NE(checkStatsClosure(v, IndexingPolicy::SiptCombined, 0),
              "");
    EXPECT_EQ(checkStatsClosure(cleanDirectView(),
                                IndexingPolicy::SiptCombined, 0),
              "");
}

TEST(Invariants, NaiveSpeculationPartition)
{
    L1Stats v = cleanDirectView();
    v.spec.correctSpeculation = 7;
    v.spec.extraAccess = 3;
    v.extraArrayAccesses = 3;
    v.arrayAccesses = 13;
    v.weightedArrayAccesses = 13.0;
    v.fastAccesses = 7;
    v.slowAccesses = 3;
    EXPECT_EQ(closure(v, IndexingPolicy::SiptNaive), "");
    v.spec.correctSpeculation = 6; // 6 + 3 != 10
    EXPECT_NE(closure(v, IndexingPolicy::SiptNaive), "");
}

TEST(Invariants, BypassSpeculationPartition)
{
    L1Stats v = cleanDirectView();
    v.spec.correctSpeculation = 4;
    v.spec.extraAccess = 2;
    v.spec.correctBypass = 3;
    v.spec.opportunityLoss = 1;
    v.extraArrayAccesses = 2;
    v.arrayAccesses = 12;
    v.weightedArrayAccesses = 12.0;
    v.fastAccesses = 4;
    v.slowAccesses = 6;
    EXPECT_EQ(closure(v, IndexingPolicy::SiptBypass), "");
    v.spec.opportunityLoss = 2;
    EXPECT_NE(closure(v, IndexingPolicy::SiptBypass), "");
}

TEST(Invariants, CombinedSpeculationPartition)
{
    L1Stats v = cleanDirectView();
    v.spec.correctSpeculation = 5;
    v.spec.idbHit = 3;
    v.spec.extraAccess = 2;
    v.extraArrayAccesses = 2;
    v.arrayAccesses = 12;
    v.weightedArrayAccesses = 12.0;
    v.fastAccesses = 8;
    v.slowAccesses = 2;
    EXPECT_EQ(closure(v, IndexingPolicy::SiptCombined), "");
    v.spec.idbHit = 4;
    EXPECT_NE(closure(v, IndexingPolicy::SiptCombined), "");
}

TEST(Invariants, VespaSpeculationPartitionAndHugeBounds)
{
    L1Stats v = cleanDirectView();
    v.spec.correctSpeculation = 5;
    v.spec.idbHit = 3;
    v.spec.extraAccess = 2;
    v.extraArrayAccesses = 2;
    v.arrayAccesses = 12;
    v.weightedArrayAccesses = 12.0;
    v.fastAccesses = 8;
    v.slowAccesses = 2;
    v.hugeAccesses = 4;
    EXPECT_EQ(closure(v, IndexingPolicy::SiptVespa), "");
    // The gate makes a huge replay structurally impossible.
    v.hugeReplays = 1;
    EXPECT_NE(closure(v, IndexingPolicy::SiptVespa), "");
    v.hugeReplays = 0;
    // Predicting policies never bypass, so no huge bypass loss.
    v.hugeBypassLosses = 1;
    EXPECT_NE(closure(v, IndexingPolicy::SiptVespa), "");
}

TEST(Invariants, RevelatorAndPcaxShareThePredictingPartition)
{
    for (const IndexingPolicy policy :
         {IndexingPolicy::SiptRevelator, IndexingPolicy::SiptPcax}) {
        L1Stats v = cleanDirectView();
        v.spec.correctSpeculation = 4;
        v.spec.idbHit = 4;
        v.spec.extraAccess = 2;
        v.extraArrayAccesses = 2;
        v.arrayAccesses = 12;
        v.weightedArrayAccesses = 12.0;
        v.fastAccesses = 8;
        v.slowAccesses = 2;
        // Unlike Vespa, these may replay on huge pages (a wrong
        // *value* prediction), bounded by the replay total.
        v.hugeAccesses = 3;
        v.hugeReplays = 2;
        EXPECT_EQ(closure(v, policy), "");
        v.spec.correctBypass = 1;
        v.spec.correctSpeculation = 3;
        EXPECT_NE(closure(v, policy), "")
            << "predicting policies never bypass outright";
    }
}

TEST(Invariants, HugeCountersAreBounded)
{
    L1Stats v = cleanDirectView();
    v.spec.correctSpeculation = 7;
    v.spec.extraAccess = 3;
    v.extraArrayAccesses = 3;
    v.arrayAccesses = 13;
    v.weightedArrayAccesses = 13.0;
    v.fastAccesses = 7;
    v.slowAccesses = 3;
    EXPECT_EQ(closure(v, IndexingPolicy::SiptNaive), "");
    // More huge accesses than accesses.
    v.hugeAccesses = 11;
    EXPECT_NE(closure(v, IndexingPolicy::SiptNaive), "");
    v.hugeAccesses = 2;
    // Naive can only replay when the bits changed, which cannot
    // happen on a huge page.
    v.hugeReplays = 1;
    EXPECT_NE(closure(v, IndexingPolicy::SiptNaive), "");
    v.hugeReplays = 0;
    // Outcome counters above the huge-access total.
    v.hugeBypassLosses = 3;
    EXPECT_NE(closure(v, IndexingPolicy::SiptNaive), "");
}

TEST(Invariants, BypassMayLoseHugeAccessesBoundedly)
{
    L1Stats v = cleanDirectView();
    v.spec.correctSpeculation = 4;
    v.spec.extraAccess = 2;
    v.spec.correctBypass = 3;
    v.spec.opportunityLoss = 1;
    v.extraArrayAccesses = 2;
    v.arrayAccesses = 12;
    v.weightedArrayAccesses = 12.0;
    v.fastAccesses = 4;
    v.slowAccesses = 6;
    v.hugeAccesses = 2;
    // A huge BypassLoss is legal for Bypass (predictor waste the
    // counter exists to expose), bounded by opportunityLoss.
    v.hugeBypassLosses = 1;
    EXPECT_EQ(closure(v, IndexingPolicy::SiptBypass), "");
    v.hugeBypassLosses = 2; // > opportunityLoss
    EXPECT_NE(closure(v, IndexingPolicy::SiptBypass), "");
}

TEST(Invariants, HugePageDecisionLegality)
{
    // BypassCorrect contradicts the superpage offset argument
    // under every policy.
    for (const IndexingPolicy policy :
         {IndexingPolicy::Vipt, IndexingPolicy::SiptNaive,
          IndexingPolicy::SiptBypass, IndexingPolicy::SiptCombined,
          IndexingPolicy::SiptVespa, IndexingPolicy::SiptRevelator,
          IndexingPolicy::SiptPcax}) {
        EXPECT_NE(huge(policy, SpecDecision::BypassCorrect), "")
            << policyName(policy);
    }
    // Replay and DeltaHit need a stage-2 value predictor that
    // survived the gate: legal only for Combined/Revelator/Pcax.
    for (const SpecDecision spec :
         {SpecDecision::Replay, SpecDecision::DeltaHit}) {
        EXPECT_EQ(huge(IndexingPolicy::SiptCombined, spec), "");
        EXPECT_EQ(huge(IndexingPolicy::SiptRevelator, spec), "");
        EXPECT_EQ(huge(IndexingPolicy::SiptPcax, spec), "");
        EXPECT_NE(huge(IndexingPolicy::SiptVespa, spec), "")
            << "vespa stage 2 must be gated off on huge pages";
        EXPECT_NE(huge(IndexingPolicy::SiptNaive, spec), "");
        EXPECT_NE(huge(IndexingPolicy::SiptBypass, spec), "")
            << specDecisionName(spec);
    }
    // Speculate is the huge-page happy path for every policy that
    // speculates at all; Direct is only for direct policies.
    EXPECT_EQ(huge(IndexingPolicy::SiptVespa, SpecDecision::Speculate),
              "");
    EXPECT_NE(huge(IndexingPolicy::Vipt, SpecDecision::Speculate),
              "");
    EXPECT_EQ(huge(IndexingPolicy::Vipt, SpecDecision::Direct), "");
    EXPECT_NE(huge(IndexingPolicy::SiptVespa, SpecDecision::Direct),
              "");
    // BypassLoss is Bypass-only.
    EXPECT_EQ(huge(IndexingPolicy::SiptBypass,
                   SpecDecision::BypassLoss),
              "");
    EXPECT_NE(huge(IndexingPolicy::SiptCombined,
                   SpecDecision::BypassLoss),
              "");
    // Failures carry the decision and policy names.
    const std::string msg =
        huge(IndexingPolicy::SiptVespa, SpecDecision::Replay);
    EXPECT_NE(msg.find("replay"), std::string::npos) << msg;
    EXPECT_NE(msg.find("vespa"), std::string::npos) << msg;
}

TEST(Invariants, WeightedEnergyNeverExceedsRaw)
{
    L1Stats v = cleanDirectView();
    v.weightedArrayAccesses = 10.5;
    EXPECT_NE(energy(v), "");
}

TEST(Invariants, WayPredictionDiscountIsExact)
{
    L1Stats v = cleanDirectView();
    // 10 probes, 4 correctly way-predicted at 1/4 cost each.
    v.weightedArrayAccesses = 10.0 - 4.0 * (1.0 - 0.25);
    EXPECT_EQ(energy(v, 4, 4), "");

    // The historical replay bug: a wasted wrong-set probe charged
    // at 1/assoc instead of full cost. The closure must reject the
    // resulting under-count.
    v.weightedArrayAccesses -= 0.75;
    EXPECT_NE(energy(v, 4, 4), "");
}

// ---------------------------------------------------------------
// GoldenL1 reference model, driven directly with Observations.
// Geometry: 256 B, 2-way, 64 B lines -> 2 sets; set 0 holds lines
// 0x0, 0x80, 0x100, 0x180, ...
// ---------------------------------------------------------------

check::GoldenL1
tinyGolden(Mutation mutation = Mutation::None)
{
    return check::GoldenL1(256, 2, 64, mutation);
}

Observation
obs(Addr paddr, MemOp op, bool hit)
{
    Observation o;
    o.vaddr = paddr;
    o.paddr = paddr;
    o.op = op;
    o.hit = hit;
    o.dirtyAfter = hit ? false : op == MemOp::Store;
    return o;
}

TEST(GoldenL1, MissThenHit)
{
    auto g = tinyGolden();
    EXPECT_EQ(g.access(obs(0x0, MemOp::Load, false)), "");
    EXPECT_EQ(g.access(obs(0x0, MemOp::Load, true)), "");
    EXPECT_EQ(g.residentLines(), 1u);
    EXPECT_TRUE(g.contains(0x0));
    EXPECT_FALSE(g.isDirty(0x0));
}

TEST(GoldenL1, SameLineOffsetsShareResidency)
{
    auto g = tinyGolden();
    EXPECT_EQ(g.access(obs(0x100, MemOp::Load, false)), "");
    // Any offset within the 64 B line hits.
    EXPECT_EQ(g.access(obs(0x13f, MemOp::Load, true)), "");
    EXPECT_EQ(g.residentLines(), 1u);
}

TEST(GoldenL1, DetectsFalseHit)
{
    auto g = tinyGolden();
    const std::string diff = g.access(obs(0x0, MemOp::Load, true));
    EXPECT_NE(diff, "");
    EXPECT_NE(diff.find("hit/miss divergence"), std::string::npos);
}

TEST(GoldenL1, DetectsMissedEviction)
{
    auto g = tinyGolden();
    g.access(obs(0x0, MemOp::Load, false));
    g.access(obs(0x80, MemOp::Load, false));
    // Set 0 is full: the third fill must report an eviction.
    EXPECT_NE(g.access(obs(0x100, MemOp::Load, false)), "");
}

TEST(GoldenL1, StrictLruVictimIsChecked)
{
    auto g = tinyGolden();
    g.access(obs(0x0, MemOp::Load, false));
    g.access(obs(0x80, MemOp::Load, false));
    g.access(obs(0x0, MemOp::Load, true)); // 0x0 becomes MRU

    Observation wrong = obs(0x100, MemOp::Load, false);
    wrong.evicted = true;
    wrong.evictedLine = 0x0; // the MRU line: not the LRU victim
    EXPECT_NE(g.access(wrong), "");

    auto g2 = tinyGolden();
    g2.access(obs(0x0, MemOp::Load, false));
    g2.access(obs(0x80, MemOp::Load, false));
    g2.access(obs(0x0, MemOp::Load, true));
    Observation right = obs(0x100, MemOp::Load, false);
    right.evicted = true;
    right.evictedLine = 0x80;
    EXPECT_EQ(g2.access(right), "");
    EXPECT_FALSE(g2.contains(0x80));
}

TEST(GoldenL1, NeverResidentVictimIsRejected)
{
    auto g = tinyGolden();
    g.access(obs(0x0, MemOp::Load, false));
    g.access(obs(0x80, MemOp::Load, false));
    // The fill must evict, but 0x200 was never resident.
    Observation bogus = obs(0x100, MemOp::Load, false);
    bogus.evicted = true;
    bogus.evictedLine = 0x200;
    const std::string diff = g.access(bogus);
    EXPECT_NE(diff.find("not resident"), std::string::npos) << diff;
}

TEST(GoldenL1, WritebackExactlyWhenVictimDirty)
{
    auto g = tinyGolden();
    g.access(obs(0x0, MemOp::Store, false)); // dirty
    g.access(obs(0x80, MemOp::Load, false));

    Observation evict = obs(0x100, MemOp::Load, false);
    evict.evicted = true;
    evict.evictedLine = 0x0;
    evict.evictedDirty = true;
    evict.writeback = false; // dirty victim silently dropped
    EXPECT_NE(g.access(evict), "");
}

TEST(GoldenL1, CleanVictimMustNotWriteback)
{
    auto g = tinyGolden();
    g.access(obs(0x0, MemOp::Load, false));
    g.access(obs(0x80, MemOp::Load, false));

    Observation evict = obs(0x100, MemOp::Load, false);
    evict.evicted = true;
    evict.evictedLine = 0x0;
    evict.writeback = true; // fabricated writeback
    EXPECT_NE(g.access(evict), "");
}

TEST(GoldenL1, HitMustNotEvict)
{
    auto g = tinyGolden();
    g.access(obs(0x0, MemOp::Load, false));
    Observation bad = obs(0x0, MemOp::Load, true);
    bad.writeback = true;
    EXPECT_NE(g.access(bad), "");
}

TEST(GoldenL1, SynonymsResolveToOnePhysicalLine)
{
    // Two virtual pages mapping to one physical line: the model is
    // keyed purely by PA, so the second synonym access hits and
    // dirty state is shared.
    auto g = tinyGolden();
    Observation store = obs(0x100, MemOp::Store, false);
    store.vaddr = 0x40100;
    EXPECT_EQ(g.access(store), "");

    Observation alias = obs(0x100, MemOp::Load, true);
    alias.vaddr = 0x80100;
    alias.dirtyAfter = true; // store dirty persists across synonym
    EXPECT_EQ(g.access(alias), "");
    EXPECT_TRUE(g.isDirty(0x100));
    EXPECT_EQ(g.residentLines(), 1u);
}

TEST(GoldenL1, MutationDropTagCheckFalseHits)
{
    auto g = tinyGolden(Mutation::DropTagCheck);
    g.access(obs(0x0, MemOp::Load, false));
    // 0x80 maps to the same set: the mutated model "hits" on the
    // resident 0x0 line and must disagree with the real miss.
    const std::string diff =
        g.access(obs(0x80, MemOp::Load, false));
    EXPECT_NE(diff, "");
}

TEST(GoldenL1, MutationDropDirtyDiverges)
{
    auto g = tinyGolden(Mutation::DropDirty);
    const std::string diff =
        g.access(obs(0x0, MemOp::Store, false));
    EXPECT_NE(diff, "");
    EXPECT_NE(diff.find("dirty"), std::string::npos);
}

TEST(GoldenL1, MutationDropWritebackDiverges)
{
    auto g = tinyGolden(Mutation::DropWriteback);
    g.access(obs(0x0, MemOp::Store, false));
    g.access(obs(0x80, MemOp::Load, false));
    Observation evict = obs(0x100, MemOp::Load, false);
    evict.evicted = true;
    evict.evictedLine = 0x0;
    evict.evictedDirty = true;
    evict.writeback = true; // correct, but the oracle disagrees
    EXPECT_NE(g.access(evict), "");
}

// ---------------------------------------------------------------
// DifferentialChecker in lockstep with the real SiptL1Cache.
// ---------------------------------------------------------------

/** Self-contained harness: L1 + L2-less hierarchy + DRAM. */
struct Harness
{
    dram::Dram dram;
    cache::TimingCache llc;
    cache::BelowL1 below;
    SiptL1Cache l1;

    explicit Harness(const L1Params &params)
        : llc(llcParams()), below(nullptr, llc, dram),
          l1(params, below)
    {
    }

    static cache::TimingCacheParams
    llcParams()
    {
        cache::TimingCacheParams p;
        p.geometry.sizeBytes = 1 << 20;
        p.geometry.assoc = 16;
        p.latency = 20;
        return p;
    }

    L1AccessResult
    access(Addr vaddr, Addr paddr, MemOp op = MemOp::Load,
           Addr pc = 0x400000, Cycles now = 0)
    {
        MemRef ref;
        ref.pc = pc;
        ref.vaddr = vaddr;
        ref.op = op;
        vm::MmuResult xlat;
        xlat.paddr = paddr;
        xlat.latency = 2;
        xlat.l1Hit = true;
        return l1.access(ref, xlat, now);
    }
};

L1Params
checkedParams(IndexingPolicy policy, std::uint32_t assoc = 2,
              std::uint64_t size = 32 * 1024,
              Mutation mutation = Mutation::None)
{
    L1Params p;
    p.geometry.sizeBytes = size;
    p.geometry.assoc = assoc;
    p.hitLatency = 2;
    p.policy = policy;
    p.accessEnergyNj = 0.10;
    p.check.enabled = true;
    p.check.abortOnDivergence = false;
    p.check.mutation = mutation;
    return p;
}

/** A mixed workload with replays, stores, and evictions. */
void
driveMixed(Harness &h)
{
    for (int i = 0; i < 40; ++i) {
        const Addr base = static_cast<Addr>(i % 7) * 0x8000;
        // Index bits sometimes change under translation.
        const Addr va = base + 0x40 * static_cast<Addr>(i);
        const Addr pa = (i % 3 == 0) ? va + 0x1000 : va;
        const MemOp op = (i % 4 == 0) ? MemOp::Store : MemOp::Load;
        h.access(va, pa, op, 0x400000 + 8 * (i % 5));
    }
}

/** Every speculating policy. */
constexpr IndexingPolicy siptPolicies[] = {
    IndexingPolicy::SiptNaive,     IndexingPolicy::SiptBypass,
    IndexingPolicy::SiptCombined,  IndexingPolicy::SiptVespa,
    IndexingPolicy::SiptRevelator, IndexingPolicy::SiptPcax,
};

/** 8 KiB 2-way: 4 KiB ways, so no speculative index bits. */
constexpr std::uint64_t noSpecBitsSize = 8 * 1024;

/** Run driveMixed() under @p policy on a 2-way L1 of @p size
 *  bytes and expect the checker to stay clean. @return the run's
 *  speculation counters. */
SpeculationStats
expectCleanRun(IndexingPolicy policy, std::uint64_t size)
{
    Harness h(checkedParams(policy, 2, size));
    driveMixed(h);
    EXPECT_NE(h.l1.checker(), nullptr);
    EXPECT_EQ(h.l1.checkFailure(), "")
        << "policy " << policyName(policy) << " at " << size
        << " B";
    EXPECT_EQ(h.l1.checkEventCount(), 40u);
    return h.l1.stats().spec;
}

TEST(Differential, CleanUnderEveryPolicy)
{
    (void)expectCleanRun(IndexingPolicy::Ideal, 32 * 1024);
    for (const IndexingPolicy policy : siptPolicies)
        (void)expectCleanRun(policy, 32 * 1024);

    // With no speculative bits every policy is direct: clean, and
    // every speculation counter stays zero.
    (void)expectCleanRun(IndexingPolicy::Vipt, noSpecBitsSize);
    for (const IndexingPolicy policy : siptPolicies) {
        const SpeculationStats spec =
            expectCleanRun(policy, noSpecBitsSize);
        EXPECT_EQ(spec.correctSpeculation + spec.correctBypass +
                      spec.opportunityLoss + spec.extraAccess +
                      spec.idbHit,
                  0u)
            << "policy " << policyName(policy);
    }
}

TEST(Differential, DigestIsPolicyInvariant)
{
    // The paper's core claim in executable form: the functional
    // event stream must not depend on the indexing policy.
    for (const std::uint64_t size :
         {std::uint64_t{32 * 1024}, noSpecBitsSize}) {
        Harness ref(checkedParams(size == noSpecBitsSize
                                      ? IndexingPolicy::Vipt
                                      : IndexingPolicy::Ideal,
                                  2, size));
        driveMixed(ref);
        const std::uint64_t want = ref.l1.checkDigest();
        ASSERT_NE(want, 0u);

        for (const IndexingPolicy policy : siptPolicies) {
            Harness h(checkedParams(policy, 2, size));
            driveMixed(h);
            EXPECT_EQ(h.l1.checkDigest(), want)
                << "policy " << policyName(policy) << " at "
                << size << " B";
            EXPECT_EQ(h.l1.checkEventCount(),
                      ref.l1.checkEventCount());
        }
    }
}

TEST(Differential, DigestReactsToTheWorkload)
{
    Harness a(checkedParams(IndexingPolicy::Ideal));
    Harness b(checkedParams(IndexingPolicy::Ideal));
    a.access(0x1000, 0x1000, MemOp::Load);
    b.access(0x1000, 0x1000, MemOp::Store);
    EXPECT_NE(a.l1.checkDigest(), b.l1.checkDigest());
}

TEST(Differential, DigestCoversOpHitAndDirtyAfter)
{
    Harness h(checkedParams(IndexingPolicy::Ideal));
    h.access(0x1000, 0x1000, MemOp::Store); // miss, inserts dirty
    h.access(0x1000, 0x1000, MemOp::Load);  // hit, stays dirty
    // Each event folds 18 bytes into one FNV-1a stream: the op
    // (1 = store), the flags (hit | dirtyAfter << 1 |
    // writeback << 2), then the line and the written-back line as
    // little-endian 64-bit values.
    const auto event = [](char op, char flags) {
        std::string bytes{op, flags, 0x00, 0x10};
        bytes.append(6 + 8, '\0');
        return bytes;
    };
    EXPECT_EQ(h.l1.checkEventCount(), 2u);
    EXPECT_EQ(h.l1.checkDigest(),
              fnv1a64(event(1, 0b10) + event(0, 0b11)));
}

TEST(Differential, ResetStreamKeepsGoldenContents)
{
    Harness h(checkedParams(IndexingPolicy::Ideal));
    h.access(0x5000, 0x5000);
    h.l1.resetStats();
    EXPECT_EQ(h.l1.checkEventCount(), 0u);
    // The golden model kept the line, so the post-reset hit still
    // agrees with the DUT (which also keeps its contents).
    const auto r = h.access(0x5000, 0x5000);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(h.l1.checkFailure(), "");
    EXPECT_EQ(h.l1.checkEventCount(), 1u);
}

TEST(Differential, MutationTagCheckIsDetected)
{
    Harness h(checkedParams(IndexingPolicy::SiptNaive, 2,
                            32 * 1024, Mutation::DropTagCheck));
    // 32 KiB 2-way: 16 KiB ways, so 0x0 and 0x4000 share a set.
    // The real L1's tag comparison misses on the second line; the
    // tagless oracle "hits" on the first and must be caught.
    h.access(0x0, 0x0);
    h.access(0x4000, 0x4000);
    EXPECT_NE(h.l1.checkFailure(), "");
}

TEST(Differential, MutationDropDirtyIsDetected)
{
    Harness h(checkedParams(IndexingPolicy::Ideal, 2, 32 * 1024,
                            Mutation::DropDirty));
    h.access(0x1000, 0x1000, MemOp::Store);
    EXPECT_NE(h.l1.checkFailure(), "");
}

TEST(Differential, MutationDropWritebackIsDetected)
{
    // 2 sets x 2 ways: three same-set lines force a dirty
    // eviction, which the mutated oracle refuses to expect.
    Harness h(checkedParams(IndexingPolicy::Ideal, 2, 2 * 64 * 2,
                            Mutation::DropWriteback));
    h.access(0, 0, MemOp::Store);
    h.access(256, 256, MemOp::Load);
    h.access(512, 512, MemOp::Load);
    EXPECT_NE(h.l1.checkFailure(), "");
}

TEST(Differential, FailureIsStickyAndFirst)
{
    Harness h(checkedParams(IndexingPolicy::Ideal, 2, 32 * 1024,
                            Mutation::DropDirty));
    h.access(0x1000, 0x1000, MemOp::Store);
    const std::string first = h.l1.checkFailure();
    ASSERT_NE(first, "");
    h.access(0x2000, 0x2000, MemOp::Store);
    EXPECT_EQ(h.l1.checkFailure(), first);
}

// S4: store-dirty propagation, cross-checked against the golden
// model's own dirty bookkeeping.

TEST(Differential, StoreMissInsertsDirtyLine)
{
    Harness h(checkedParams(IndexingPolicy::Ideal));
    h.access(0x3000, 0x3000, MemOp::Store);
    EXPECT_EQ(h.l1.checkFailure(), "");
    EXPECT_TRUE(h.l1.checker()->golden().isDirty(0x3000));
}

TEST(Differential, StoreHitDirtiesResidentWay)
{
    Harness h(checkedParams(IndexingPolicy::Ideal));
    h.access(0x3000, 0x3000, MemOp::Load);
    EXPECT_FALSE(h.l1.checker()->golden().isDirty(0x3000));
    h.access(0x3000, 0x3000, MemOp::Store);
    EXPECT_EQ(h.l1.checkFailure(), "");
    EXPECT_TRUE(h.l1.checker()->golden().isDirty(0x3000));
}

TEST(Differential, DirtyEvictionWritesBackExactlyOnce)
{
    // 2 sets x 2 ways; lines 0/256/512 share set 0.
    Harness h(checkedParams(IndexingPolicy::Ideal, 2, 2 * 64 * 2));
    h.access(0, 0, MemOp::Store);
    h.access(0, 0, MemOp::Store); // re-dirtying must not stack
    h.access(256, 256, MemOp::Load);
    h.access(512, 512, MemOp::Load); // evicts dirty line 0
    EXPECT_EQ(h.l1.stats().writebacks, 1u);
    EXPECT_EQ(h.l1.checkFailure(), "");
    EXPECT_FALSE(h.l1.checker()->golden().contains(0));
}

// ---------------------------------------------------------------
// FillTracker: writeback legitimacy below the L1.
// ---------------------------------------------------------------

TEST(FillTracker, WritebackOfFilledLinePasses)
{
    check::FillTracker t(64);
    t.onFill(0x1040);
    EXPECT_EQ(t.fills(), 1u);
    EXPECT_EQ(t.onWriteback(0x1040), "");
    EXPECT_EQ(t.failure(), "");
}

TEST(FillTracker, WritebackOfUnfilledLineFails)
{
    check::FillTracker t(64);
    t.onFill(0x1040);
    EXPECT_NE(t.onWriteback(0x2040), "");
    EXPECT_NE(t.failure(), "");
}

TEST(FillTracker, MisalignedWritebackFails)
{
    check::FillTracker t(64);
    t.onFill(0x1040);
    // 0x1048 is inside the filled line but not its base: the L1
    // must write back line addresses only.
    EXPECT_NE(t.onWriteback(0x1048), "");
}

// ---------------------------------------------------------------
// The pipeline's latency plausibility check.
// ---------------------------------------------------------------

/** Loads sweeping the lines of one virtual page. */
class OnePageSource : public cpu::TraceSource
{
  public:
    bool
    next(MemRef &ref) override
    {
        ref = MemRef{};
        ref.vaddr = 0x1000 + 64 * (count_++ % 64);
        return true;
    }

  private:
    std::uint64_t count_ = 0;
};

/** The failure a checked pipeline records over 100 loads from a
 *  VIPT L1 whose hit latency is @p hit_latency. */
std::string
pipelineFailure(Cycles hit_latency, bool abort_on_divergence)
{
    vm::PageTable table;
    table.mapPage(0x1000, 7);
    OnePageSource source;
    batch::StreamStages stream(source, table);
    vm::Mmu mmu;
    dram::Dram dram;
    cache::TimingCache llc(Harness::llcParams());
    cache::BelowL1 below(nullptr, llc, dram);
    L1Params p = checkedParams(IndexingPolicy::Vipt, 8);
    p.hitLatency = hit_latency;
    p.check.abortOnDivergence = abort_on_divergence;
    SiptL1Cache l1(p, below);
    cpu::TraceCore core(cpu::outOfOrderCoreParams());
    batch::MachineStages machine(mmu, table, l1, core);
    batch::MachineStages *const machines[] = {&machine};
    batch::runPhase(stream, machines, 100);
    EXPECT_FALSE(machine.error());
    return machine.checkFailure();
}

TEST(MachineStages, ImplausibleLatencyIsRecordedOrAborts)
{
    EXPECT_EQ(pipelineFailure(2, false), "");
    // Above the 10M-cycle bound: recorded, and the run goes on...
    const std::string failure = pipelineFailure(20'000'000, false);
    EXPECT_NE(failure.find("implausible latency"), std::string::npos)
        << failure;
    // ...or, under abortOnDivergence, fatal.
    EXPECT_DEATH(pipelineFailure(20'000'000, true),
                 "implausible latency");
}

// ---------------------------------------------------------------
// SIPT_CHECK accepts only 0 or 1.
// ---------------------------------------------------------------

TEST(CheckOptions, SwitchesAcceptOnlyZeroOrOne)
{
    const char *saved = std::getenv("SIPT_CHECK");
    const std::string restore = saved ? saved : "";
    const auto enabled = [](const char *value) {
        setenv("SIPT_CHECK", value, 1);
        return sim::defaultCheck();
    };
    // Anything but 0 or 1 warns and reads as 0: "false" must not
    // arm the checker, and "yes" is not a way to arm it either.
    EXPECT_FALSE(enabled("false"));
    EXPECT_FALSE(enabled("yes"));
    EXPECT_FALSE(enabled("0"));
    EXPECT_TRUE(enabled("1"));
    if (saved)
        setenv("SIPT_CHECK", restore.c_str(), 1);
    else
        unsetenv("SIPT_CHECK");
}

} // namespace
} // namespace sipt
