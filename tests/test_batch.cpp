/**
 * @file
 * Engine timing fixtures. Every test runs a handful of small,
 * fully specified experiments through runSingleCore/runMulticore
 * and compares one row per run — cycles, instructions, every
 * L1Stats counter, page walks, and the SIPT_CHECK functional digest
 * for checked runs — against a committed table in
 * tests/fixtures/engine/<TestName>.txt. The golden model checks
 * function; these tables check timing, so any drift in the
 * pipeline's stage order, the core model or the L1 latency model
 * shows up as a row diff.
 *
 * Each run writes its actual table to the build tree
 * (build/tests/engine_fixtures/<TestName>.txt). After an
 * intentional timing change, regenerate with:
 *
 *   ctest --test-dir build -R BatchEngine
 *   cp -r build/tests/engine_fixtures/. tests/fixtures/engine/
 *
 * Warmup and measure sizes are set explicitly, so SIPT_REFS and
 * SIPT_WARMUP do not change the rows.
 *
 * GroupedRunsMatchFixtures runs the same single-core configs again,
 * grouped by stream key (runGroup() and a 4-thread
 * SweepRunner), and checks that grouping changes no row.
 */

#include <cstdint>
#include <filesystem>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/ref_batch.hh"
#include "fixture_table.hh"
#include "run_jobs.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

namespace sipt::sim
{
namespace
{

/** Small but non-trivial run sizes: several full batches plus a
 *  partial tail (cpu::RefBatch::capacity is 1024). */
SystemConfig
smallConfig()
{
    SystemConfig config;
    config.warmupRefs = 3'000;
    config.measureRefs = 12'500;
    config.l1Config = L1Config::Sipt32K2;
    config.policy = IndexingPolicy::SiptCombined;
    config.check = true; // populate the functional digest
    return config;
}

/** One fixture row: @p label followed by the timing-relevant
 *  fields of @p r. Doubles print with 17 significant digits, which
 *  round-trips them exactly. */
std::string
row(const std::string &label, const RunResult &r)
{
    const L1Stats &s = r.l1;
    std::ostringstream os;
    os << std::setprecision(17) << label << " cycles=" << r.cycles
       << " instructions=" << r.instructions
       << " accesses=" << s.accesses << " loads=" << s.loads
       << " stores=" << s.stores << " hits=" << s.hits
       << " misses=" << s.misses << " writebacks=" << s.writebacks
       << " fastAccesses=" << s.fastAccesses
       << " slowAccesses=" << s.slowAccesses
       << " extraArrayAccesses=" << s.extraArrayAccesses
       << " arrayAccesses=" << s.arrayAccesses
       << " weightedArrayAccesses=" << s.weightedArrayAccesses
       << " hugeAccesses=" << s.hugeAccesses
       << " hugeReplays=" << s.hugeReplays
       << " hugeBypassLosses=" << s.hugeBypassLosses
       << " correctSpeculation=" << s.spec.correctSpeculation
       << " correctBypass=" << s.spec.correctBypass
       << " opportunityLoss=" << s.spec.opportunityLoss
       << " extraAccess=" << s.spec.extraAccess
       << " idbHit=" << s.spec.idbHit
       << " pageWalks=" << r.pageWalks << " checkDigest="
       << std::hex << std::setw(16) << std::setfill('0')
       << r.checkDigest;
    return os.str();
}

/** One single-core fixture run: its row label, app and system. */
struct Case
{
    std::string label;
    std::string app;
    SystemConfig config;
};

/** Run @p c (whose config must set check), assert the run stayed
 *  golden, and return its fixture row. */
std::string
checkedRow(const Case &c, RunResult *out = nullptr)
{
    const RunResult r = runSingleCore(c.app, c.config);
    EXPECT_TRUE(r.checkFailure.empty())
        << c.label << ": " << r.checkFailure;
    if (out)
        *out = r;
    return row(c.label, r);
}

/** checkedRow() of every case, in order. */
std::vector<std::string>
checkedRows(const std::vector<Case> &cases)
{
    std::vector<std::string> rows;
    for (const Case &c : cases)
        rows.push_back(checkedRow(c));
    return rows;
}

/** Compare @p rows with tests/fixtures/engine/<TestName>.txt. */
void
expectMatchesFixture(const std::vector<std::string> &rows)
{
    const std::string name = testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name();
    testfix::expectMatchesFixture(
        rows, SIPT_ENGINE_FIXTURE_DIR, SIPT_ENGINE_FIXTURE_OUT,
        "BatchEngine." + name +
            ": one row per run (tests/test_batch.cpp)");
}

// One case table per single-core fixture, shared by its own test
// and by GroupedRunsMatchFixtures.

/** L1 geometries spanning 0..3 speculative index bits at 2-way
 *  (32 KiB / 2-way = 2 bits above the 4 KiB page offset, etc.). */
std::vector<Case>
policiesAndSpecBitsCases()
{
    std::vector<Case> cases;
    for (const std::uint64_t kib : {8, 16, 32, 64}) {
        std::vector<IndexingPolicy> policies;
        if (kib == 8) {
            // VIPT-feasible geometry: no bits to speculate on.
            policies = {IndexingPolicy::Vipt,
                        IndexingPolicy::Ideal};
        } else {
            policies = {IndexingPolicy::Ideal,
                        IndexingPolicy::SiptNaive,
                        IndexingPolicy::SiptBypass,
                        IndexingPolicy::SiptCombined,
                        IndexingPolicy::SiptVespa,
                        IndexingPolicy::SiptRevelator,
                        IndexingPolicy::SiptPcax};
        }
        for (const IndexingPolicy policy : policies) {
            SystemConfig config = smallConfig();
            config.l1SizeBytes = kib * 1024;
            config.l1Assoc = 2;
            config.policy = policy;
            cases.push_back({"gcc/" + std::to_string(kib) +
                                 "K-2way/" + policyName(policy),
                             "gcc", config});
        }
    }
    return cases;
}

std::vector<Case>
wayPredictionAndInOrderCases()
{
    SystemConfig config = smallConfig();
    config.wayPrediction = true;
    SystemConfig inorder = smallConfig();
    inorder.outOfOrder = false;
    inorder.policy = IndexingPolicy::SiptBypass;
    return {{"hmmer/way-prediction", "hmmer", config},
            {"mcf/in-order", "mcf", inorder}};
}

/** The conditions change the page-table shape (small-page heavy,
 *  scattered frames), exercising both the small-page table and
 *  its huge-page lane. */
std::vector<Case>
memoryConditionCases()
{
    std::vector<Case> cases;
    for (const MemCondition condition :
         {MemCondition::Normal, MemCondition::Fragmented,
          MemCondition::ThpOff, MemCondition::NoContiguity}) {
        SystemConfig config = smallConfig();
        config.condition = condition;
        cases.push_back({std::string("astar/") +
                             conditionName(condition),
                         "astar", config});
    }
    return cases;
}

/** A 2 MiB-backed shared-synonym stream drives the pipeline's
 *  huge-page lane: the VESPA gate fires on every reference, and the
 *  translation predictors see huge frames. */
std::vector<Case>
hugePageSynonymCases()
{
    std::vector<Case> cases;
    for (const IndexingPolicy policy :
         {IndexingPolicy::SiptCombined, IndexingPolicy::SiptVespa,
          IndexingPolicy::SiptRevelator,
          IndexingPolicy::SiptPcax}) {
        SystemConfig config = smallConfig();
        config.policy = policy;
        cases.push_back({std::string("shared-huge/") +
                             policyName(policy),
                         "synonym:shared-huge", config});
    }
    return cases;
}

/** A run one short of a batch, one a reference past it, and a
 *  multiple-plus-tail run, whatever cpu::RefBatch::capacity is. */
std::vector<Case>
partialBatchCases()
{
    constexpr std::uint64_t batch = cpu::RefBatch::capacity;
    std::vector<Case> cases;
    for (const std::uint64_t measure :
         {batch - 1, batch + 1, 3 * batch + 7}) {
        SystemConfig config = smallConfig();
        config.warmupRefs = 100;
        config.measureRefs = measure;
        cases.push_back({"libquantum/measure=" +
                             std::to_string(measure),
                         "libquantum", config});
    }
    return cases;
}

/** Walk latency depends on the dispatch cycle, and PTE reads share
 *  the below-L1 hierarchy with L1 fills. */
std::vector<Case>
radixWalkerCases()
{
    std::vector<Case> cases;
    for (const char *app : {"gcc", "mcf"}) {
        SystemConfig config = smallConfig();
        config.radixWalker = true;
        cases.push_back({std::string(app) + "/radix", app, config});
    }
    return cases;
}

/** Record milc's stream to @p path; the replay case reads it. */
Case
traceReplayCase(const std::string &path)
{
    const SystemConfig config = smallConfig();
    recordTrace("milc", config, path);
    return {"milc/replay", "trace:" + path, config};
}

/** A scratch trace file path under the temp directory. */
std::string
tracePath(const std::string &name)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_test_batch";
    std::filesystem::create_directories(dir);
    return (dir / name).string();
}

TEST(BatchEngine, BitIdenticalAcrossPoliciesAndSpecBits)
{
    std::vector<std::string> rows;
    std::map<std::uint64_t, std::uint64_t> digest_by_size;
    for (const Case &c : policiesAndSpecBitsCases()) {
        RunResult r;
        rows.push_back(checkedRow(c, &r));
        // The functional stream is policy-invariant.
        const auto [it, first] = digest_by_size.emplace(
            c.config.l1SizeBytes, r.checkDigest);
        if (!first) {
            EXPECT_EQ(it->second, r.checkDigest) << c.label;
        }
    }
    expectMatchesFixture(rows);
}

TEST(BatchEngine, BitIdenticalWithWayPredictionAndInOrder)
{
    expectMatchesFixture(checkedRows(wayPredictionAndInOrderCases()));
}

TEST(BatchEngine, BitIdenticalUnderMemoryConditions)
{
    expectMatchesFixture(checkedRows(memoryConditionCases()));
}

TEST(BatchEngine, BitIdenticalOnHugePageSynonyms)
{
    expectMatchesFixture(checkedRows(hugePageSynonymCases()));
}

TEST(BatchEngine, PartialFinalBatchSizes)
{
    expectMatchesFixture(checkedRows(partialBatchCases()));
}

TEST(BatchEngine, TraceReplayRoundTripBitIdentical)
{
    const std::string path = tracePath("replay.sipttrace");
    const Case replay_case = traceReplayCase(path);

    RunResult live;
    RunResult replay;
    checkedRow({"milc/live", "milc", replay_case.config}, &live);
    const std::string replay_row = checkedRow(replay_case, &replay);
    EXPECT_EQ(live.checkDigest, replay.checkDigest);
    EXPECT_EQ(live.ipc, replay.ipc);
    expectMatchesFixture({replay_row});
    std::filesystem::remove(path);
}

TEST(BatchEngine, RadixWalkerConfigs)
{
    expectMatchesFixture(checkedRows(radixWalkerCases()));
}

TEST(BatchEngine, MixedWalkGroupMatchesSoloRuns)
{
    // One stream's TLB hierarchy serves a radix-walker machine and
    // a constant-walk machine at once: each must still report its
    // solo run's cycles, walks and L1 TLB hit rate.
    SystemConfig constant = smallConfig();
    SystemConfig radix = smallConfig();
    radix.radixWalker = true;
    const std::vector<SystemConfig> configs = {radix, constant};
    const std::vector<MulticoreResult> grouped =
        runGroup(JobKind::Single, {"mcf"}, configs);
    ASSERT_EQ(grouped.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const RunResult solo = runSingleCore("mcf", configs[i]);
        const RunResult &r = grouped[i].perCore[0];
        EXPECT_TRUE(r.checkFailure.empty()) << r.checkFailure;
        EXPECT_GT(r.pageWalks, 0u);
        EXPECT_EQ(r.cycles, solo.cycles) << i;
        EXPECT_EQ(r.pageWalks, solo.pageWalks) << i;
        EXPECT_EQ(r.dtlbHitRate, solo.dtlbHitRate) << i;
    }
    // The walks are the stream's; their latency is the machine's.
    EXPECT_EQ(grouped[0].perCore[0].pageWalks,
              grouped[1].perCore[0].pageWalks);
    EXPECT_NE(grouped[0].perCore[0].cycles,
              grouped[1].perCore[0].cycles);
}

TEST(BatchEngine, MulticoreBitIdentical)
{
    SystemConfig config = smallConfig();
    config.warmupRefs = 1'000;
    config.measureRefs = 4'000;
    const std::vector<std::string> mix = {"mcf", "hmmer", "gcc",
                                          "astar"};
    const MulticoreResult result = runMulticore(mix, config);
    ASSERT_EQ(result.perCore.size(), mix.size());
    std::vector<std::string> rows;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        const RunResult &r = result.perCore[i];
        EXPECT_TRUE(r.checkFailure.empty()) << r.checkFailure;
        rows.push_back(
            row("quad/core" + std::to_string(i) + "/" + mix[i], r));
    }
    expectMatchesFixture(rows);
}

TEST(BatchEngine, GroupedRunsMatchFixtures)
{
    // Every single-core fixture config, plus every runnable
    // RunKeys.txt config, with the row each must produce.
    const std::string path = tracePath("grouped.sipttrace");
    const std::pair<const char *, std::vector<Case>> fixtures[] = {
        {"BitIdenticalAcrossPoliciesAndSpecBits",
         policiesAndSpecBitsCases()},
        {"BitIdenticalWithWayPredictionAndInOrder",
         wayPredictionAndInOrderCases()},
        {"BitIdenticalUnderMemoryConditions", memoryConditionCases()},
        {"BitIdenticalOnHugePageSynonyms", hugePageSynonymCases()},
        {"PartialFinalBatchSizes", partialBatchCases()},
        {"TraceReplayRoundTripBitIdentical", {traceReplayCase(path)}},
        {"RadixWalkerConfigs", radixWalkerCases()},
    };
    std::vector<Case> cases;
    std::vector<std::string> expected;
    for (const auto &[name, fixture_cases] : fixtures) {
        const std::vector<std::string> rows = testfix::readFixture(
            std::filesystem::path(SIPT_ENGINE_FIXTURE_DIR) /
            (std::string(name) + ".txt"));
        ASSERT_EQ(rows.size(), fixture_cases.size()) << name;
        cases.insert(cases.end(), fixture_cases.begin(),
                     fixture_cases.end());
        expected.insert(expected.end(), rows.begin(), rows.end());
    }
    // RunKeys.txt pins these configs' keys, not their results: the
    // expected row is the solo run's.
    const std::vector<std::string> key_rows = testfix::readFixture(
        std::filesystem::path(SIPT_SWEEP_FIXTURE_DIR) / "RunKeys.txt");
    for (const auto &[label, job] : testfix::runKeyJobs()) {
        if (label == "escaped-app")
            continue; // pins key escaping; not a runnable app
        const std::string key = runKeyJson(job.app, job.config);
        bool pinned = false;
        for (const std::string &r : key_rows) {
            pinned = pinned || (r.rfind(label + " ", 0) == 0 &&
                                r.size() >= key.size() &&
                                r.compare(r.size() - key.size(),
                                          key.size(), key) == 0);
        }
        EXPECT_TRUE(pinned) << label << " is not in RunKeys.txt";
        cases.push_back({label, job.app, job.config});
        expected.push_back(checkedRow(cases.back()));
    }

    // Through runGroup(), one call per stream key.
    std::map<std::string, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        groups[streamKeyJson(cases[i].app, cases[i].config)]
            .push_back(i);
    }
    EXPECT_LT(groups.size(), cases.size()) << "nothing shares a stream";
    std::vector<std::string> grouped(cases.size());
    for (const auto &[key, members] : groups) {
        std::vector<SystemConfig> configs;
        for (const std::size_t i : members)
            configs.push_back(cases[i].config);
        const std::vector<MulticoreResult> results = runGroup(
            JobKind::Single, {cases[members[0]].app}, configs);
        for (std::size_t m = 0; m < members.size(); ++m) {
            const Case &c = cases[members[m]];
            const RunResult &r = results[m].perCore[0];
            EXPECT_TRUE(r.checkFailure.empty())
                << c.label << ": " << r.checkFailure;
            grouped[members[m]] = row(c.label, r);
        }
    }

    // Through a 4-thread runner, which groups whatever it finds
    // queued.
    SweepRunner runner(SweepOptions{4, "-"});
    std::vector<testfix::Job> jobs;
    for (const Case &c : cases)
        jobs.push_back({c.app, c.config});
    const std::vector<RunResult> pooled = testfix::runJobs(runner, jobs);

    for (std::size_t i = 0; i < cases.size(); ++i) {
        EXPECT_EQ(grouped[i], expected[i]) << "runGroup";
        EXPECT_EQ(row(cases[i].label, pooled[i]), expected[i])
            << "SweepRunner";
    }
    std::filesystem::remove(path);
}

} // namespace
} // namespace sipt::sim
