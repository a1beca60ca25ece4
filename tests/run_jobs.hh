/**
 * @file
 * A list of single-core sweep jobs and the helper the sweep tests
 * run it with: enqueue every job, then wait for the results in
 * submission order, as the figure benches do.
 */

#ifndef SIPT_TESTS_RUN_JOBS_HH
#define SIPT_TESTS_RUN_JOBS_HH

#include <future>
#include <string>
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

} // namespace sipt::testfix

#endif // SIPT_TESTS_RUN_JOBS_HH
