/**
 * @file
 * Tests for the policy-invariance fuzzer: deterministic sample
 * derivation, sampled-geometry bounds, policy feasibility, repro
 * line round-tripping, and a small end-to-end campaign through the
 * sweep engine (clean on healthy code, failing under a deliberate
 * golden-model mutation).
 */

#include <cstdlib>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "sim/fuzz.hh"
#include "common/bitops.hh"
#include "sim/sweep.hh"

namespace sipt::sim
{
namespace
{

/** Memo-only runner (no disk cache) for in-process campaigns. */
sim::SweepOptions
memoOnly()
{
    sim::SweepOptions options;
    options.cacheDir = "-";
    return options;
}

TEST(Fuzz, SampleDerivationIsDeterministic)
{
    const FuzzSample a = sampleAt(42, 7);
    const FuzzSample b = sampleAt(42, 7);
    EXPECT_EQ(a.app, b.app);
    EXPECT_EQ(sim::configToJson(a.config).dump(),
              sim::configToJson(b.config).dump());
    EXPECT_EQ(reproLine(a), reproLine(b));
}

TEST(Fuzz, SamplesStayInsideTheSpecifiedSpace)
{
    for (std::uint64_t i = 0; i < 200; ++i) {
        const FuzzSample s = sampleAt(1, i);
        const sim::SystemConfig &c = s.config;
        EXPECT_GE(c.l1SizeBytes, 8u * 1024) << "sample " << i;
        EXPECT_LE(c.l1SizeBytes, 64u * 1024) << "sample " << i;
        EXPECT_TRUE(isPowerOfTwo(c.l1SizeBytes));
        EXPECT_GE(c.l1Assoc, 1u);
        EXPECT_LE(c.l1Assoc, 8u);
        EXPECT_TRUE(isPowerOfTwo(c.l1Assoc));
        EXPECT_LE(l1Geometry(c).speculativeBits(), 3u) << "sample " << i;
        EXPECT_TRUE(c.check)
            << "fuzz samples must force checking on";
        EXPECT_FALSE(s.app.empty());
        EXPECT_GE(c.measureRefs, 1000u);
    }
}

TEST(Fuzz, SamplesActuallyVary)
{
    std::set<std::uint64_t> sizes;
    std::set<std::string> apps;
    std::set<unsigned> spec_bits;
    for (std::uint64_t i = 0; i < 64; ++i) {
        const FuzzSample s = sampleAt(1, i);
        sizes.insert(s.config.l1SizeBytes);
        apps.insert(s.app);
        spec_bits.insert(l1Geometry(s.config).speculativeBits());
    }
    EXPECT_GE(sizes.size(), 3u);
    EXPECT_GE(apps.size(), 3u);
    // Both the VIPT-feasible and the speculative regions of the
    // geometry space must be exercised.
    EXPECT_TRUE(spec_bits.count(0));
    EXPECT_GE(spec_bits.size(), 3u);
}

TEST(Fuzz, ViptRunsOnlyOnFeasibleGeometry)
{
    sim::SystemConfig vipt_ok;
    vipt_ok.l1SizeBytes = 32 * 1024;
    vipt_ok.l1Assoc = 8; // 4 KiB ways
    const auto with_vipt = policiesFor(vipt_ok);
    EXPECT_EQ(with_vipt.size(), 8u);
    EXPECT_EQ(with_vipt.front(), IndexingPolicy::Vipt);

    sim::SystemConfig spec;
    spec.l1SizeBytes = 32 * 1024;
    spec.l1Assoc = 2; // 16 KiB ways: 2 speculative bits
    const auto without_vipt = policiesFor(spec);
    EXPECT_EQ(without_vipt.size(), 7u);
    for (const IndexingPolicy p : without_vipt)
        EXPECT_NE(p, IndexingPolicy::Vipt);
}

TEST(Fuzz, ReproLineRoundTrips)
{
    const FuzzSample s = sampleAt(1234567, 89);
    const std::string line = reproLine(s);
    EXPECT_EQ(line.rfind("SIPT-FUZZ-REPRO ", 0), 0u);

    std::uint64_t seed = 0;
    std::uint64_t index = 0;
    ASSERT_TRUE(parseRepro(line, seed, index));
    EXPECT_EQ(seed, 1234567u);
    EXPECT_EQ(index, 89u);

    // Replaying the parsed coordinates regenerates the identical
    // sample — the repro line is self-contained.
    EXPECT_EQ(reproLine(sampleAt(seed, index)), line);
}

TEST(Fuzz, ParseReproRejectsGarbage)
{
    std::uint64_t seed = 0;
    std::uint64_t index = 0;
    EXPECT_FALSE(parseRepro("", seed, index));
    EXPECT_FALSE(parseRepro("unrelated log line", seed, index));
    EXPECT_FALSE(parseRepro("seed=5 but no index", seed, index));
    EXPECT_FALSE(parseRepro("index=5 but no seed", seed, index));
    // Each seed=/index= token is a whole decimal, or the line is
    // refused: no wrapped negative, trailing junk, sign, blank or
    // look-alike key.
    EXPECT_FALSE(parseRepro("seed=-1 index=3", seed, index));
    EXPECT_FALSE(parseRepro("seed=1 index=3x", seed, index));
    EXPECT_FALSE(parseRepro("seed= 7 index=+2", seed, index));
    EXPECT_FALSE(parseRepro("xseed=5 yindex=6", seed, index));
}

TEST(Fuzz, SmallCampaignIsCleanOnHealthyCode)
{
    sim::SweepRunner runner(memoOnly());
    std::ostringstream out;
    EXPECT_EQ(runCampaign(11, 4, runner, out), 0u);
    EXPECT_EQ(out.str(), "");
}

TEST(Fuzz, RunSamplePassesAndCarriesNoRepro)
{
    sim::SweepRunner runner(memoOnly());
    const SampleResult r = runSample(sampleAt(11, 0), runner);
    EXPECT_TRUE(r.passed);
    EXPECT_EQ(r.failure, "");
    EXPECT_EQ(r.repro, "");
}

TEST(Fuzz, MutatedOracleFailsTheCampaignWithRepro)
{
    // Corrupt the golden model via the environment (set before the
    // runner spawns its workers) and require the campaign to catch
    // it and emit a parsable repro line. Divergences must be
    // *recorded* here, so pin SIPT_CHECK_ABORT off even when the
    // surrounding CI job sets it.
    const char *abort_env = getenv("SIPT_CHECK_ABORT");
    const std::string saved_abort = abort_env ? abort_env : "";
    setenv("SIPT_CHECK_MUTATE", "dirty", 1);
    setenv("SIPT_CHECK_ABORT", "0", 1);
    std::ostringstream out;
    std::uint64_t failures = 0;
    {
        sim::SweepRunner runner(memoOnly());
        failures = runCampaign(1, 2, runner, out);
    }
    unsetenv("SIPT_CHECK_MUTATE");
    if (abort_env)
        setenv("SIPT_CHECK_ABORT", saved_abort.c_str(), 1);
    else
        unsetenv("SIPT_CHECK_ABORT");

    EXPECT_GT(failures, 0u);
    const std::string log = out.str();
    const auto pos = log.find("SIPT-FUZZ-REPRO ");
    ASSERT_NE(pos, std::string::npos) << log;
    std::uint64_t seed = 0;
    std::uint64_t index = 0;
    const std::string line =
        log.substr(pos, log.find('\n', pos) - pos);
    ASSERT_TRUE(parseRepro(line, seed, index));
    EXPECT_EQ(seed, 1u);
}

} // namespace
} // namespace sipt::sim
