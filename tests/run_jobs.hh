/**
 * @file
 * A list of single-core sweep jobs and the helper the sweep tests
 * run it with: enqueue every job, then wait for the results in
 * submission order, as the figure benches do. Also the labelled
 * jobs whose run keys tests/fixtures/sweep/RunKeys.txt pins.
 */

#ifndef SIPT_TESTS_RUN_JOBS_HH
#define SIPT_TESTS_RUN_JOBS_HH

#include <future>
#include <string>
#include <utility>
#include <vector>

#include "sim/sweep.hh"
#include "sim/system.hh"

namespace sipt::testfix
{

/** One single-core run: an app on a system. */
struct Job
{
    std::string app;
    sim::SystemConfig config;
};

/** Enqueue all of @p jobs on @p runner, then return their results
 *  in submission order. */
inline std::vector<sim::RunResult>
runJobs(sim::SweepRunner &runner, const std::vector<Job> &jobs)
{
    std::vector<std::shared_future<sim::RunResult>> futures;
    futures.reserve(jobs.size());
    for (const Job &job : jobs)
        futures.push_back(runner.enqueue(job.app, job.config));
    std::vector<sim::RunResult> results;
    results.reserve(jobs.size());
    for (const auto &future : futures)
        results.push_back(future.get());
    return results;
}

/**
 * The single-core jobs of tests/fixtures/sweep/RunKeys.txt, in row
 * order, each under its row label. Every field the environment
 * defaults is set explicitly (warmupRefs would otherwise read
 * SIPT_WARMUP, check SIPT_CHECK). The last,
 * "escaped-app", names no runnable app: it pins the key's string
 * escaping.
 */
inline std::vector<std::pair<std::string, Job>>
runKeyJobs()
{
    using sim::L1Config;
    using sim::MemCondition;
    std::vector<std::pair<std::string, Job>> jobs;

    sim::SystemConfig base;
    base.warmupRefs = 150'000;
    base.measureRefs = 400'000;
    base.check = false;
    jobs.push_back({"default-vipt", {"mcf", base}});

    sim::SystemConfig sipt = base;
    sipt.l1Config = L1Config::Sipt32K2;
    sipt.policy = IndexingPolicy::SiptCombined;
    sipt.condition = MemCondition::Fragmented;
    sipt.wayPrediction = true;
    sipt.radixWalker = true;
    jobs.push_back({"sipt32k2-combined", {"gcc", sipt}});

    // A fuzzer-style sample: overridden geometry, shrunken
    // predictor tables, a small machine, a non-dyadic footprint
    // scale (pins the double formatting) and a full-width seed.
    sim::SystemConfig fuzz = base;
    fuzz.outOfOrder = false;
    fuzz.l1SizeBytes = 16 * 1024;
    fuzz.l1Assoc = 2;
    fuzz.l1HitLatency = 3;
    fuzz.policy = IndexingPolicy::SiptPcax;
    fuzz.xlatPredEntries = 32;
    fuzz.condition = MemCondition::ThpOff;
    fuzz.physMemBytes = 256ull << 20;
    fuzz.warmupRefs = 977;
    fuzz.measureRefs = 2'345;
    fuzz.seed = 0x9e3779b97f4a7c15ull;
    fuzz.footprintScale = 0.0537;
    fuzz.check = true;
    jobs.push_back(
        {"fuzzer-geometry", {"synonym:shared-a3-k5-huge", fuzz}});

    sim::SystemConfig half = base;
    half.l1Config = L1Config::Sipt64K4;
    half.policy = IndexingPolicy::Ideal;
    half.condition = MemCondition::NoContiguity;
    half.footprintScale = 0.5;
    jobs.push_back({"footprint-half", {"lbm", half}});

    // App names are escaped into the key, never spliced raw.
    jobs.push_back({"escaped-app", {"odd \"name\"\\\t", base}});
    return jobs;
}

} // namespace sipt::testfix

#endif // SIPT_TESTS_RUN_JOBS_HH
