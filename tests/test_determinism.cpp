/**
 * @file
 * The invariant the SweepRunner memo cache depends on: a run's
 * Stats are a pure function of (app, SystemConfig). Two fresh
 * back-to-back runs of the same key must produce bit-identical
 * results — directly, through fresh runners at several thread
 * counts, and across single/multicore entry points. If any of
 * these fail, every memoized figure downstream is suspect.
 */

#include <gtest/gtest.h>

#include <vector>

#include "run_jobs.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

namespace sipt::sim
{
namespace
{

SystemConfig
quick(IndexingPolicy policy, std::uint64_t seed = 42)
{
    SystemConfig cfg;
    cfg.l1Config = policy == IndexingPolicy::Vipt
                       ? L1Config::Baseline32K8
                       : L1Config::Sipt32K2;
    cfg.policy = policy;
    cfg.warmupRefs = 2'000;
    cfg.measureRefs = 5'000;
    cfg.seed = seed;
    return cfg;
}

/** Bit-identical, not just close: EXPECT_DOUBLE_EQ on every
 *  floating field, EXPECT_EQ on every counter. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.app, b.app);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l1.accesses, b.l1.accesses);
    EXPECT_EQ(a.l1.loads, b.l1.loads);
    EXPECT_EQ(a.l1.stores, b.l1.stores);
    EXPECT_EQ(a.l1.hits, b.l1.hits);
    EXPECT_EQ(a.l1.misses, b.l1.misses);
    EXPECT_EQ(a.l1.writebacks, b.l1.writebacks);
    EXPECT_EQ(a.l1.fastAccesses, b.l1.fastAccesses);
    EXPECT_EQ(a.l1.slowAccesses, b.l1.slowAccesses);
    EXPECT_EQ(a.l1.extraArrayAccesses, b.l1.extraArrayAccesses);
    EXPECT_EQ(a.l1.arrayAccesses, b.l1.arrayAccesses);
    EXPECT_DOUBLE_EQ(a.l1.weightedArrayAccesses,
                     b.l1.weightedArrayAccesses);
    EXPECT_EQ(a.l1.spec.correctSpeculation,
              b.l1.spec.correctSpeculation);
    EXPECT_EQ(a.l1.spec.correctBypass, b.l1.spec.correctBypass);
    EXPECT_EQ(a.l1.spec.opportunityLoss,
              b.l1.spec.opportunityLoss);
    EXPECT_EQ(a.l1.spec.extraAccess, b.l1.spec.extraAccess);
    EXPECT_EQ(a.l1.spec.idbHit, b.l1.spec.idbHit);
    EXPECT_DOUBLE_EQ(a.l1HitRate, b.l1HitRate);
    EXPECT_DOUBLE_EQ(a.fastFraction, b.fastFraction);
    EXPECT_DOUBLE_EQ(a.energy.l1Dynamic, b.energy.l1Dynamic);
    EXPECT_DOUBLE_EQ(a.energy.l2Dynamic, b.energy.l2Dynamic);
    EXPECT_DOUBLE_EQ(a.energy.llcDynamic, b.energy.llcDynamic);
    EXPECT_DOUBLE_EQ(a.energy.l1Static, b.energy.l1Static);
    EXPECT_DOUBLE_EQ(a.energy.l2Static, b.energy.l2Static);
    EXPECT_DOUBLE_EQ(a.energy.llcStatic, b.energy.llcStatic);
    EXPECT_DOUBLE_EQ(a.hugeCoverage, b.hugeCoverage);
    EXPECT_DOUBLE_EQ(a.wayPredAccuracy, b.wayPredAccuracy);
    EXPECT_DOUBLE_EQ(a.dtlbHitRate, b.dtlbHitRate);
    EXPECT_EQ(a.pageWalks, b.pageWalks);
    EXPECT_DOUBLE_EQ(a.l1Mpki, b.l1Mpki);
}

std::vector<testfix::Job>
probeJobs()
{
    return {
        {"mcf", quick(IndexingPolicy::Vipt)},
        {"gcc", quick(IndexingPolicy::SiptCombined)},
        {"lbm", quick(IndexingPolicy::SiptNaive, 7)},
        {"sjeng", quick(IndexingPolicy::SiptBypass)},
    };
}

TEST(Determinism, BackToBackRunsAreBitIdentical)
{
    for (const auto &job : probeJobs()) {
        const RunResult first =
            runSingleCore(job.app, job.config);
        const RunResult second =
            runSingleCore(job.app, job.config);
        expectIdentical(first, second);
    }
}

TEST(Determinism, FreshRunnersAgreeAcrossThreadCounts)
{
    const auto jobs = probeJobs();
    // Reference: a fresh sequential runner with no disk cache.
    SweepRunner reference(SweepOptions{1, "-"});
    const auto expected = testfix::runJobs(reference, jobs);

    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        // Fresh runner per thread count: nothing memoized, every
        // job actually re-simulates.
        SweepRunner runner(SweepOptions{threads, "-"});
        const auto got = testfix::runJobs(runner, jobs);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            SCOPED_TRACE(jobs[i].app);
            expectIdentical(expected[i], got[i]);
        }
        EXPECT_EQ(runner.stats().executed, jobs.size());
    }
}

TEST(Determinism, MulticoreBackToBackRunsAreBitIdentical)
{
    auto cfg = quick(IndexingPolicy::SiptCombined);
    cfg.footprintScale = 0.5;
    const std::vector<std::string> mix = {"mcf", "gcc", "mcf",
                                          "gcc"};
    const MulticoreResult first = runMulticore(mix, cfg);
    const MulticoreResult second = runMulticore(mix, cfg);

    EXPECT_DOUBLE_EQ(first.sumIpc, second.sumIpc);
    ASSERT_EQ(first.perCore.size(), second.perCore.size());
    for (std::size_t i = 0; i < first.perCore.size(); ++i)
        expectIdentical(first.perCore[i], second.perCore[i]);
}

TEST(Determinism, SeedChangesResults)
{
    // Guard against the degenerate way to pass the tests above:
    // the seed must actually steer the simulation.
    const auto base = quick(IndexingPolicy::SiptCombined, 42);
    auto reseeded = base;
    reseeded.seed = 43;
    const RunResult a = runSingleCore("mcf", base);
    const RunResult b = runSingleCore("mcf", reseeded);
    EXPECT_NE(a.cycles, b.cycles);
}

} // namespace
} // namespace sipt::sim
