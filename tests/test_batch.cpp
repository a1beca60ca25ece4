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
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/system.hh"

namespace sipt::sim
{
namespace
{

/** Small but non-trivial run sizes: several full batches plus a
 *  partial tail (batch capacity is 256). */
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

/** Run @p app under @p config (which must set check), assert the
 *  run stayed golden, and return its fixture row. */
std::string
checkedRow(const std::string &label, const std::string &app,
           const SystemConfig &config, RunResult *out = nullptr)
{
    const RunResult r = runSingleCore(app, config);
    EXPECT_TRUE(r.checkFailure.empty())
        << label << ": " << r.checkFailure;
    if (out)
        *out = r;
    return row(label, r);
}

/**
 * Write @p rows as the current test's actual table, then compare
 * them line by line with the committed fixture of the same name.
 */
void
expectMatchesFixture(const std::vector<std::string> &rows)
{
    const std::string name = testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name();
    const std::filesystem::path out_dir(SIPT_ENGINE_FIXTURE_OUT);
    std::filesystem::create_directories(out_dir);
    const auto out_path = out_dir / (name + ".txt");
    {
        std::ofstream out(out_path);
        out << "# BatchEngine." << name
            << ": one row per run (tests/test_batch.cpp)\n";
        for (const std::string &r : rows)
            out << r << '\n';
    }

    const auto fixture_path =
        std::filesystem::path(SIPT_ENGINE_FIXTURE_DIR) /
        (name + ".txt");
    std::ifstream in(fixture_path);
    ASSERT_TRUE(in) << "missing fixture " << fixture_path
                    << "; actual table written to " << out_path;
    std::vector<std::string> expected;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#')
            expected.push_back(line);
    }
    ASSERT_EQ(expected.size(), rows.size())
        << "row count differs; actual table in " << out_path;
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(expected[i], rows[i]) << "actual: " << out_path;
}

TEST(BatchEngine, BitIdenticalAcrossPoliciesAndSpecBits)
{
    // L1 geometries spanning 0..3 speculative index bits at 2-way
    // (32 KiB / 2-way = 2 bits above the 4 KiB page offset, etc.).
    const std::uint64_t sizes_kib[] = {8, 16, 32, 64};
    std::vector<std::string> rows;
    for (const std::uint64_t kib : sizes_kib) {
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
        std::uint64_t digest = 0;
        for (const IndexingPolicy policy : policies) {
            SystemConfig config = smallConfig();
            config.l1SizeBytes = kib * 1024;
            config.l1Assoc = 2;
            config.policy = policy;
            RunResult r;
            rows.push_back(checkedRow(
                "gcc/" + std::to_string(kib) + "K-2way/" +
                    policyName(policy),
                "gcc", config, &r));
            // The functional stream is policy-invariant.
            if (digest == 0)
                digest = r.checkDigest;
            EXPECT_EQ(digest, r.checkDigest)
                << policyName(policy) << " at " << kib << " KiB";
        }
    }
    expectMatchesFixture(rows);
}

TEST(BatchEngine, BitIdenticalWithWayPredictionAndInOrder)
{
    SystemConfig config = smallConfig();
    config.wayPrediction = true;
    SystemConfig inorder = smallConfig();
    inorder.outOfOrder = false;
    inorder.policy = IndexingPolicy::SiptBypass;
    expectMatchesFixture({
        checkedRow("hmmer/way-prediction", "hmmer", config),
        checkedRow("mcf/in-order", "mcf", inorder),
    });
}

TEST(BatchEngine, BitIdenticalUnderMemoryConditions)
{
    // The conditions change the page-table shape (small-page
    // heavy, scattered frames), exercising both the flat page-map
    // snapshot and its huge-page lane.
    std::vector<std::string> rows;
    for (const MemCondition condition :
         {MemCondition::Normal, MemCondition::Fragmented,
          MemCondition::ThpOff, MemCondition::NoContiguity}) {
        SystemConfig config = smallConfig();
        config.condition = condition;
        rows.push_back(checkedRow(
            std::string("astar/") + conditionName(condition),
            "astar", config));
    }
    expectMatchesFixture(rows);
}

TEST(BatchEngine, BitIdenticalOnHugePageSynonyms)
{
    // A 2 MiB-backed shared-synonym stream drives the pipeline's
    // huge-page lane: the VESPA gate fires on every reference, and
    // the translation predictors see huge frames.
    std::vector<std::string> rows;
    for (const IndexingPolicy policy :
         {IndexingPolicy::SiptCombined, IndexingPolicy::SiptVespa,
          IndexingPolicy::SiptRevelator,
          IndexingPolicy::SiptPcax}) {
        SystemConfig config = smallConfig();
        config.policy = policy;
        rows.push_back(checkedRow(
            std::string("shared-huge/") + policyName(policy),
            "synonym:shared-huge", config));
    }
    expectMatchesFixture(rows);
}

TEST(BatchEngine, PartialFinalBatchSizes)
{
    // Batch capacity is 256: cover a run smaller than one batch, a
    // prime-size run, and a multiple-plus-tail run.
    std::vector<std::string> rows;
    for (const std::uint64_t measure : {100ull, 257ull, 1000ull}) {
        SystemConfig config = smallConfig();
        config.warmupRefs = 100;
        config.measureRefs = measure;
        rows.push_back(checkedRow(
            "libquantum/measure=" + std::to_string(measure),
            "libquantum", config));
    }
    expectMatchesFixture(rows);
}

TEST(BatchEngine, TraceReplayRoundTripBitIdentical)
{
    const SystemConfig config = smallConfig();
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_test_batch";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "replay.sipttrace").string();
    recordTrace("milc", config, path);

    RunResult live;
    RunResult replay;
    checkedRow("milc/live", "milc", config, &live);
    const std::string replay_row =
        checkedRow("milc/replay", "trace:" + path, config, &replay);
    EXPECT_EQ(live.checkDigest, replay.checkDigest);
    EXPECT_EQ(live.ipc, replay.ipc);
    expectMatchesFixture({replay_row});
    std::filesystem::remove(path);
}

TEST(BatchEngine, RadixWalkerConfigs)
{
    // Walk latency depends on the dispatch cycle, and PTE reads
    // share the below-L1 hierarchy with L1 fills.
    std::vector<std::string> rows;
    for (const char *app : {"gcc", "mcf"}) {
        SystemConfig config = smallConfig();
        config.radixWalker = true;
        rows.push_back(
            checkedRow(std::string(app) + "/radix", app, config));
    }
    expectMatchesFixture(rows);
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

} // namespace
} // namespace sipt::sim
