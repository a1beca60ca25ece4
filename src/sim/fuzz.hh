/**
 * @file
 * Seeded config/workload fuzzer for the policy-invariance oracle.
 *
 * A fuzz campaign is a pure function of one master seed: sample
 * #i deterministically derives an L1 geometry (8-64 KiB, 1-8 way,
 * 0-3 speculative bits), a fragmentation/THP memory condition, and
 * a synthetic workload, then runs it under every feasible indexing
 * policy through the sweep engine with golden-model checking on.
 * The sweep's functional oracle (sim/sweep.hh) compares the
 * policies with each other, so every policy must report a clean
 * checker; any failure prints a one-line repro (master seed,
 * sample index, app and configToJson()) that `sipt-fuzz --repro`
 * replays exactly.
 */

#ifndef SIPT_SIM_FUZZ_HH
#define SIPT_SIM_FUZZ_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sim/sweep.hh"
#include "sim/system.hh"
#include "sipt/l1_cache.hh"

namespace sipt::sim
{

/** One fully specified fuzz sample (policy chosen per run). */
struct FuzzSample
{
    std::uint64_t masterSeed = 0;
    std::uint64_t index = 0;
    std::string app;
    sim::SystemConfig config;
};

/**
 * Deterministically derive sample @p index of the campaign seeded
 * by @p master_seed. Stable across processes and platforms (the
 * derivation uses only the project Rng).
 */
FuzzSample sampleAt(std::uint64_t master_seed,
                    std::uint64_t index);

/**
 * The indexing policies runnable on @p config: all eight when the
 * geometry is VIPT-feasible, otherwise the seven besides VIPT
 * (whose constructor rejects speculative bits by design).
 */
std::vector<IndexingPolicy>
policiesFor(const sim::SystemConfig &config);

/** Verdict for one sample across all its policies. */
struct SampleResult
{
    bool passed = true;
    /** Description of the first failure (empty when passed). */
    std::string failure;
    /** Machine-parseable repro line (empty when passed). */
    std::string repro;
    /** Each feasible policy's result, in policiesFor() order. */
    std::vector<std::pair<IndexingPolicy, sim::RunResult>> runs;
};

/** Run @p sample under every feasible policy on @p runner's pool
 *  and judge it: every policy's checkFailure (the sweep's
 *  functional oracle included), events recorded, and VIVT
 *  invalidations on a multi-mapping workload. */
SampleResult runSample(const FuzzSample &sample,
                       sim::SweepRunner &runner);

/**
 * Run samples [0, @p count) of @p master_seed. Failures print
 * their repro line to @p out as they are found.
 *
 * @return the number of failing samples
 */
std::uint64_t runCampaign(std::uint64_t master_seed,
                          std::uint64_t count,
                          sim::SweepRunner &runner,
                          std::ostream &out);

/**
 * Extract (seed, index) from a repro line as printed by
 * runCampaign()/reproLine(). Each space-delimited token must be
 * the leading "SIPT-FUZZ-REPRO" marker, seed=<N> or index=<N>
 * (a whole decimal, once each), or app=; config= ends the line.
 *
 * @return false when @p line is not a repro line
 */
bool parseRepro(const std::string &line, std::uint64_t &seed_out,
                std::uint64_t &index_out);

/** The repro line for @p sample (also what failures print). */
std::string reproLine(const FuzzSample &sample);

} // namespace sipt::sim

#endif // SIPT_SIM_FUZZ_HH
