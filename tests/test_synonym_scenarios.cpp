/**
 * @file
 * The synonym & coherence scenario pack, end to end: multi-mapping
 * workloads (alias / fork-COW / shared segments, small and huge
 * pages) run with the differential checker on, under every
 * indexing policy.
 *
 * The differential claim under test: SIPT's functional digest
 * stays byte-identical to the golden physically-indexed model on
 * every alias workload — synonyms are a non-event — while the
 * VIVT strawman running in lockstep on the same stream *must*
 * count reverse-map invalidations, i.e. the scenarios do exercise
 * real synonym traffic and a virtually tagged design would have
 * paid for it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "check/vivt_model.hh"
#include "sim/system.hh"
#include "workload/synonym.hh"
#include "workload/trace_format.hh"

namespace sipt
{
namespace
{

using workload::SynonymSpec;

// ---------------------------------------------------------------
// Profile grammar.
// ---------------------------------------------------------------

TEST(SynonymSpecParse, DefaultsAndFullForm)
{
    ASSERT_TRUE(workload::isSynonymApp("synonym:alias"));
    EXPECT_FALSE(workload::isSynonymApp("mcf"));
    EXPECT_FALSE(workload::isSynonymApp("trace:foo"));

    const auto d = workload::parseSynonymSpec("synonym:alias");
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->mode, SynonymSpec::Mode::Alias);
    EXPECT_EQ(d->mappings, 2u);
    EXPECT_EQ(d->skewPages, 1u);
    EXPECT_FALSE(d->hugePages);

    const auto f =
        workload::parseSynonymSpec("synonym:shared-a4-k3-huge");
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->mode, SynonymSpec::Mode::Shared);
    EXPECT_EQ(f->mappings, 4u);
    EXPECT_EQ(f->skewPages, 3u);
    EXPECT_TRUE(f->hugePages);
}

TEST(SynonymSpecParse, CanonicalNameRoundTrips)
{
    // Every valid spec must survive name -> parse -> name: this is
    // what lets SIPT-FUZZ-REPRO lines and the sweep cache key carry
    // sampled synonym knobs as plain app names.
    for (const auto mode :
         {SynonymSpec::Mode::Alias, SynonymSpec::Mode::Cow,
          SynonymSpec::Mode::Shared}) {
        for (std::uint32_t a = 2; a <= 8; a += 3) {
            for (std::uint32_t k : {0u, 1u, 7u, 64u}) {
                for (const bool huge : {false, true}) {
                    if (huge && mode != SynonymSpec::Mode::Shared)
                        continue;
                    SynonymSpec spec;
                    spec.mode = mode;
                    spec.mappings = a;
                    spec.skewPages = k;
                    spec.hugePages = huge;
                    const std::string name =
                        workload::synonymAppName(spec);
                    const auto back =
                        workload::parseSynonymSpec(name);
                    ASSERT_TRUE(back.has_value()) << name;
                    EXPECT_EQ(*back, spec) << name;
                }
            }
        }
    }
}

TEST(SynonymSpecParse, RejectsMalformedProfiles)
{
    const char *bad[] = {
        "synonym:",           // no mode
        "synonym:bogus",      // unknown mode
        "synonym:alias-huge", // huge needs shared
        "synonym:cow-huge",   // huge needs shared
        "synonym:alias-a1",   // too few mappings
        "synonym:alias-a9",   // too many mappings
        "synonym:alias-k65",  // skew out of range
        "synonym:alias-a2-a3",   // duplicate knob
        "synonym:shared-k1-k2",  // duplicate knob
        "synonym:alias-x2",      // unknown knob
        "synonym:alias-a",       // missing number
        "synonym:alias-a2x",     // trailing junk
    };
    for (const char *name : bad) {
        EXPECT_FALSE(
            workload::parseSynonymSpec(name).has_value())
            << name;
    }
    EXPECT_EXIT(workload::synonymSpec("synonym:bogus"),
                ::testing::ExitedWithCode(1), "bad synonym app");
}

// ---------------------------------------------------------------
// VIVT strawman unit behaviour.
// ---------------------------------------------------------------

TEST(VivtModel, SynonymReaccessInvalidatesOldCopy)
{
    check::VivtSynonymModel vivt(8 * 1024, 2, 64);

    // First touch: vtag miss, reverse map probed, nothing found.
    vivt.access(0x10000, 0x5000, MemOp::Load);
    EXPECT_EQ(vivt.stats().reverseMapProbes, 1u);
    EXPECT_EQ(vivt.stats().synonymInvalidations, 0u);
    EXPECT_TRUE(vivt.containsVirtual(0x10000));

    // Same name again: a plain virtual hit, no synonym work.
    vivt.access(0x10000, 0x5000, MemOp::Load);
    EXPECT_EQ(vivt.stats().virtualHits, 1u);
    EXPECT_EQ(vivt.stats().reverseMapProbes, 1u);

    // Same physical line under a different name: the old copy
    // must be found via the reverse map and invalidated.
    vivt.access(0x20000, 0x5000, MemOp::Load);
    EXPECT_EQ(vivt.stats().synonymInvalidations, 1u);
    EXPECT_FALSE(vivt.containsVirtual(0x10000));
    EXPECT_TRUE(vivt.containsVirtual(0x20000));
    // One copy per physical line, always.
    EXPECT_EQ(vivt.residentLines(), 1u);
    EXPECT_EQ(vivt.reverseMapSize(), 1u);
}

TEST(VivtModel, DirtyCopyForwardsOnInvalidation)
{
    check::VivtSynonymModel vivt(8 * 1024, 2, 64);

    vivt.access(0x10000, 0x5000, MemOp::Store); // dirty under A
    vivt.access(0x20000, 0x5000, MemOp::Load);  // re-named
    EXPECT_EQ(vivt.stats().synonymInvalidations, 1u);
    EXPECT_EQ(vivt.stats().dirtyForwards, 1u);

    // The forwarded dirty data stays dirty in the new copy: a
    // third renaming forwards again.
    vivt.access(0x30000, 0x5000, MemOp::Load);
    EXPECT_EQ(vivt.stats().dirtyForwards, 2u);
}

TEST(VivtModel, CleanInvalidationDoesNotForward)
{
    check::VivtSynonymModel vivt(8 * 1024, 2, 64);
    vivt.access(0x10000, 0x5000, MemOp::Load);
    vivt.access(0x20000, 0x5000, MemOp::Load);
    EXPECT_EQ(vivt.stats().synonymInvalidations, 1u);
    EXPECT_EQ(vivt.stats().dirtyForwards, 0u);
}

TEST(VivtModel, EvictionKeepsReverseMapConsistent)
{
    // 2 sets x 2 ways of 64 B lines: fill one set beyond assoc
    // and make sure evicted lines leave the reverse map too.
    check::VivtSynonymModel vivt(256, 2, 64);
    for (Addr i = 0; i < 8; ++i) {
        const Addr a = 0x10000 + i * 128; // same set every time
        vivt.access(a, 0x40000 + i * 128, MemOp::Load);
        EXPECT_EQ(vivt.residentLines(), vivt.reverseMapSize());
        EXPECT_LE(vivt.residentLines(), 2u);
    }
}

TEST(VivtModel, ResetStatsKeepsContents)
{
    check::VivtSynonymModel vivt(8 * 1024, 2, 64);
    vivt.access(0x10000, 0x5000, MemOp::Store);
    vivt.resetStats();
    EXPECT_EQ(vivt.stats().lookups, 0u);
    // Contents survive the warmup boundary: the next access under
    // the same name is still a virtual hit.
    vivt.access(0x10000, 0x5000, MemOp::Load);
    EXPECT_EQ(vivt.stats().virtualHits, 1u);
}

// ---------------------------------------------------------------
// End-to-end differential runs.
// ---------------------------------------------------------------

sim::SystemConfig
scenarioConfig()
{
    sim::SystemConfig c;
    c.physMemBytes = 256ull << 20;
    c.warmupRefs = 1'000;
    c.measureRefs = 3'000;
    c.seed = 11;
    c.check = true;
    return c;
}

/** Every synonym profile the matrix tests run. */
const std::vector<std::string> &
scenarioApps()
{
    static const std::vector<std::string> apps = {
        "synonym:alias-a2-k1",  "synonym:alias-a3-k3",
        "synonym:cow-a2-k1",    "synonym:cow-a3-k2",
        "synonym:shared-a2-k1", "synonym:shared-a4-k2",
        "synonym:shared-a2-k1-huge",
    };
    return apps;
}

TEST(SynonymScenarios, DigestPolicyInvariantWithNonzeroVivtWork)
{
    // 32 KiB 2-way: 2 speculative index bits, so every SIPT
    // policy actually speculates on the skewed alias bits.
    for (const std::string &app : scenarioApps()) {
        sim::SystemConfig config = scenarioConfig();
        config.l1SizeBytes = 32 * 1024;
        config.l1Assoc = 2;

        std::uint64_t ref_digest = 0;
        std::uint64_t ref_events = 0;
        std::uint64_t ref_invals = 0;
        bool first = true;
        for (const IndexingPolicy policy :
             {IndexingPolicy::Ideal, IndexingPolicy::SiptNaive,
              IndexingPolicy::SiptBypass,
              IndexingPolicy::SiptCombined}) {
            config.policy = policy;
            const sim::RunResult r =
                sim::runSingleCore(app, config);
            EXPECT_TRUE(r.checkFailure.empty())
                << app << " under " << policyName(policy) << ": "
                << r.checkFailure;
            EXPECT_GT(r.checkEvents, 0u) << app;
            // The scenarios must generate real synonym traffic:
            // a VIVT L1 would have needed invalidations.
            EXPECT_GT(r.vivtInvalidations, 0u)
                << app << " under " << policyName(policy);
            EXPECT_GE(r.vivtReverseProbes, r.vivtInvalidations);
            if (first) {
                ref_digest = r.checkDigest;
                ref_events = r.checkEvents;
                ref_invals = r.vivtInvalidations;
                first = false;
            } else {
                EXPECT_EQ(r.checkDigest, ref_digest)
                    << app << " under " << policyName(policy);
                EXPECT_EQ(r.checkEvents, ref_events) << app;
                EXPECT_EQ(r.vivtInvalidations, ref_invals) << app;
            }
        }
    }
}

TEST(SynonymScenarios, VipFeasibleGeometryMatchesIdeal)
{
    // Default 32 KiB 8-way geometry has zero speculative bits, so
    // VIPT itself is feasible and must agree with Ideal.
    for (const std::string &app : scenarioApps()) {
        sim::SystemConfig config = scenarioConfig();
        config.policy = IndexingPolicy::Vipt;
        const sim::RunResult vipt = sim::runSingleCore(app, config);
        config.policy = IndexingPolicy::Ideal;
        const sim::RunResult ideal =
            sim::runSingleCore(app, config);
        EXPECT_TRUE(vipt.checkFailure.empty()) << vipt.checkFailure;
        EXPECT_TRUE(ideal.checkFailure.empty())
            << ideal.checkFailure;
        EXPECT_EQ(vipt.checkDigest, ideal.checkDigest) << app;
        EXPECT_GT(vipt.vivtInvalidations, 0u) << app;
    }
}

TEST(SynonymScenarios, MulticoreSharedSegmentRunsClean)
{
    // Two cores attach the *same* shared segment (plus figure
    // apps for contention); the whole mix must stay golden. The
    // LLC preset scales with core count, so mixes use a
    // power-of-two number of cores.
    sim::SystemConfig config = scenarioConfig();
    config.footprintScale = 0.05;
    const std::vector<std::string> mix = {
        "synonym:shared-a2-k1", "synonym:shared-a2-k1", "mcf",
        "gcc"};
    const sim::MulticoreResult r =
        sim::runMulticore(mix, config);
    ASSERT_EQ(r.perCore.size(), 4u);
    for (const auto &core : r.perCore) {
        EXPECT_TRUE(core.checkFailure.empty())
            << core.app << ": " << core.checkFailure;
        EXPECT_GT(core.checkEvents, 0u) << core.app;
    }
    EXPECT_GT(r.perCore[0].vivtInvalidations, 0u);
    EXPECT_GT(r.perCore[1].vivtInvalidations, 0u);
    // 1:1-mapped apps never re-name a physical line, so the
    // strawman does zero synonym work for them.
    EXPECT_EQ(r.perCore[2].vivtInvalidations, 0u);
    EXPECT_EQ(r.perCore[3].vivtInvalidations, 0u);
}

TEST(SynonymScenarios, HugeSharedMulticoreRunsClean)
{
    sim::SystemConfig config = scenarioConfig();
    const std::vector<std::string> mix = {
        "synonym:shared-a2-k1-huge", "synonym:shared-a2-k1-huge"};
    const sim::MulticoreResult r =
        sim::runMulticore(mix, config);
    for (const auto &core : r.perCore) {
        EXPECT_TRUE(core.checkFailure.empty())
            << core.checkFailure;
        // 2 MiB mappings: index bits below bit 21 are identical
        // across the alias set, but virtual *tags* still differ,
        // so a VIVT cache still needs its reverse map.
        EXPECT_GT(core.vivtInvalidations, 0u);
        EXPECT_GT(core.hugeCoverage, 0.99);
    }
}

// ---------------------------------------------------------------
// Trace round trip over a multi-mapping layout.
// ---------------------------------------------------------------

TEST(SynonymScenarios, TraceRoundTripManyToOneLayout)
{
    const std::string path = testing::TempDir() +
                             "/sipt-synonym-trace-" +
                             std::to_string(::getpid()) + ".trc";
    sim::SystemConfig config = scenarioConfig();
    config.l1SizeBytes = 32 * 1024;
    config.l1Assoc = 2;
    config.policy = IndexingPolicy::SiptCombined;
    const std::string app = "synonym:alias-a3-k2";

    sim::recordTrace(app, config, path);

    std::string error;
    ASSERT_TRUE(workload::verifyTrace(path, error)) << error;

    // The snapshot must capture the many-to-one VA->PA layout:
    // at least one PFN appears under several virtual pages.
    workload::TraceReader reader;
    ASSERT_TRUE(reader.open(path).empty());
    std::unordered_map<std::uint64_t, unsigned> pfn_names;
    unsigned max_names = 0;
    for (const auto &m : reader.mappings()) {
        EXPECT_FALSE(m.huge);
        max_names = std::max(max_names, ++pfn_names[m.pfn]);
    }
    EXPECT_GE(max_names, 3u)
        << "alias-a3 layout should map one frame thrice";

    // Replay is digest-identical to the live run.
    const sim::RunResult live = sim::runSingleCore(app, config);
    const sim::RunResult replay =
        sim::runSingleCore("trace:" + path, config);
    EXPECT_TRUE(replay.checkFailure.empty()) << replay.checkFailure;
    EXPECT_EQ(replay.checkDigest, live.checkDigest);
    EXPECT_EQ(replay.checkEvents, live.checkEvents);
    EXPECT_EQ(replay.vivtInvalidations, live.vivtInvalidations);
    EXPECT_GT(replay.vivtInvalidations, 0u);
    std::remove(path.c_str());
}

} // namespace
} // namespace sipt
