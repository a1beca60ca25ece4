/**
 * @file
 * sipt-fuzz: policy-invariance fuzzing driver.
 *
 * Samples seeded (geometry, memory-condition, workload) points —
 * a quarter of them multi-mapping synonym scenarios (alias count,
 * index-bit skew, huge-page mix over alias / COW / shared-segment
 * modes) — runs each under every feasible indexing policy with
 * the differential golden-model checker enabled, and requires every
 * policy's checker to stay clean; the sweep's functional oracle
 * records a failure on any policy whose functional events differ
 * from another's. Synonym samples additionally require the VIVT
 * strawman to have counted reverse-map invalidations (the
 * bookkeeping SIPT avoids). A failure prints a one-line repro:
 *
 *   SIPT-FUZZ-REPRO seed=<N> index=<M> app=<app> config={...}
 *
 * which `sipt-fuzz --repro '<line>'` replays exactly.
 *
 * Usage:
 *   sipt-fuzz [--seed N] [--count N] [--expect-fail]
 *   sipt-fuzz --repro '<repro line>'
 *
 * SIPT_CHECK_MUTATE=tag|dirty|writeback corrupts the golden model
 * deliberately, and =probe the index the pipeline probes the L1
 * with (harness self-tests); combined with --expect-fail the exit
 * code proves the oracle would catch a broken cache.
 */

#include <iostream>
#include <string>

#include "check/options.hh"
#include "common/env.hh"
#include "sim/fuzz.hh"
#include "sim/sweep.hh"

namespace
{

/** Largest --count accepted. */
constexpr std::uint64_t maxCount = std::uint64_t{1} << 32;

int
usage()
{
    std::cerr
        << "usage: sipt-fuzz [--seed N] [--count N]"
        << " [--expect-fail]\n"
        << "       sipt-fuzz --repro '<repro line>'\n";
    return 2;
}

/** Strict flag values; a missing or bad one exits with usage. */
const sipt::FlagParser flags{"sipt-fuzz", usage};

/** Replay one sample and report every policy's verdict. */
int
replay(std::uint64_t seed, std::uint64_t index,
       sipt::sim::SweepRunner &runner)
{
    using namespace sipt;
    const sim::FuzzSample sample = sim::sampleAt(seed, index);
    std::cout << "replaying " << sim::reproLine(sample) << "\n";

    const sim::SampleResult verdict = sim::runSample(sample, runner);
    for (const auto &[policy, r] : verdict.runs) {
        std::cout << "  " << policyName(policy) << ": digest "
                  << r.checkDigest << ", " << r.checkEvents
                  << " events"
                  << (r.checkFailure.empty()
                          ? std::string{}
                          : ", FAIL: " + r.checkFailure)
                  << "\n";
    }
    if (verdict.passed) {
        std::cout << "sample is policy-invariant and clean\n";
        return 0;
    }
    std::cout << "DIVERGENCE: " << verdict.failure << "\n"
              << verdict.repro << "\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 1;
    std::uint64_t count = 200;
    bool expect_fail = false;
    std::string repro;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--seed") {
            seed = flags.u64(argc, argv, i, 0, ~std::uint64_t{0});
        } else if (arg == "--count") {
            count = flags.u64(argc, argv, i, 1, maxCount);
        } else if (arg == "--repro") {
            repro = flags.value(argc, argv, i);
        } else if (arg == "--expect-fail") {
            expect_fail = true;
        } else {
            return usage();
        }
    }

    // Fuzz runs are tiny and parameter-diverse: the on-disk run
    // cache would only collect clutter, so keep this process
    // memo-only.
    sipt::sim::SweepOptions options;
    options.cacheDir = "-";
    sipt::sim::SweepRunner runner(options);

    if (!repro.empty()) {
        std::uint64_t r_seed = 0;
        std::uint64_t r_index = 0;
        if (!sipt::sim::parseRepro(repro, r_seed, r_index)) {
            std::cerr << "sipt-fuzz: unparsable repro line\n";
            return 2;
        }
        return replay(r_seed, r_index, runner);
    }

    const auto mutation =
        sipt::check::Options::fromEnv(false).mutation;
    std::cout << "sipt-fuzz: " << count << " samples, seed "
              << seed << ", mutation "
              << sipt::check::mutationName(mutation) << "\n";
    const std::uint64_t failures =
        sipt::sim::runCampaign(seed, count, runner, std::cout);
    std::cout << "sipt-fuzz: " << failures << "/" << count
              << " samples diverged\n";

    if (expect_fail)
        return failures > 0 ? 0 : 1;
    return failures > 0 ? 1 : 0;
}
