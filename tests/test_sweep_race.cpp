/**
 * @file
 * Race audit for the SweepRunner: many producer threads hammer one
 * runner with colliding and distinct (app, SystemConfig) keys
 * while the disk cache loads/persists concurrently. Functionally
 * the tests assert value consistency and exact dedup accounting;
 * under -DSIPT_SANITIZE=thread they are the designated surface for
 * TSan to observe every lock in the engine under real contention
 * (pool queue, memo map, stats, in-flight futures, open groups,
 * cache files).
 *
 * Raw std::thread is deliberate here — the producers must be
 * *outside* the runner's own pool to create cross-thread
 * submission races (sipt-analyze scopes its raw-thread pass to src/,
 * so tests may do this).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "run_jobs.hh"
#include "sim/sweep.hh"

namespace sipt::sim
{
namespace
{

SystemConfig
tiny(IndexingPolicy policy, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.l1Config = policy == IndexingPolicy::Vipt
                       ? L1Config::Baseline32K8
                       : L1Config::Sipt32K2;
    cfg.policy = policy;
    // Small on purpose: more submissions per second means more
    // scheduler interleavings for TSan to explore.
    cfg.warmupRefs = 500;
    cfg.measureRefs = 1'000;
    cfg.seed = seed;
    return cfg;
}

/** The shared key set: producers collide on these. */
std::vector<testfix::Job>
collidingJobs()
{
    return {
        {"mcf", tiny(IndexingPolicy::SiptCombined, 1)},
        {"gcc", tiny(IndexingPolicy::SiptCombined, 1)},
        {"mcf", tiny(IndexingPolicy::Vipt, 1)},
        {"lbm", tiny(IndexingPolicy::SiptNaive, 1)},
    };
}

TEST(SweepRace, ManyProducersCollidingAndDistinctKeys)
{
    SweepRunner runner(SweepOptions{4, "-"});
    constexpr unsigned producers = 8;
    constexpr unsigned rounds = 6;
    const auto shared = collidingJobs();

    std::vector<std::vector<std::shared_future<RunResult>>>
        perProducer(producers);
    std::vector<std::shared_future<RunResult>> distinct(producers);
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (unsigned p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            for (unsigned r = 0; r < rounds; ++r) {
                for (const auto &job : shared) {
                    perProducer[p].push_back(
                        runner.enqueue(job.app, job.config));
                }
            }
            // One key unique to this producer, interleaved with
            // the colliding traffic.
            distinct[p] = runner.enqueue(
                "sjeng",
                tiny(IndexingPolicy::SiptCombined, 100 + p));
        });
    }
    for (auto &t : threads)
        t.join();

    // Every future for the same key must carry the same result.
    const auto reference =
        testfix::runJobs(runner, collidingJobs());
    for (unsigned p = 0; p < producers; ++p) {
        ASSERT_EQ(perProducer[p].size(),
                  rounds * shared.size());
        for (unsigned r = 0; r < rounds; ++r) {
            for (std::size_t k = 0; k < shared.size(); ++k) {
                const auto &got =
                    perProducer[p][r * shared.size() + k].get();
                EXPECT_EQ(got.instructions,
                          reference[k].instructions);
                EXPECT_DOUBLE_EQ(got.ipc, reference[k].ipc);
                EXPECT_DOUBLE_EQ(got.cycles,
                                 reference[k].cycles);
            }
        }
        EXPECT_DOUBLE_EQ(distinct[p].get().ipc,
                         distinct[p].get().ipc);
    }

    // Dedup accounting must be exact even under contention: only
    // one execution per distinct key ever happens.
    const auto s = runner.stats();
    const std::uint64_t distinctKeys = shared.size() + producers;
    EXPECT_EQ(s.executed, distinctKeys);
    EXPECT_EQ(s.submitted,
              producers * rounds * shared.size() + producers +
                  shared.size());
    EXPECT_EQ(s.memoHits + s.inflightShares,
              s.submitted - s.executed);
}

TEST(SweepRace, ConcurrentDiskCacheLoadAndPersist)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_race_cache";
    std::filesystem::remove_all(dir);

    const auto jobs = collidingJobs();

    // Phase 1: two runners share the directory while both are
    // still populating it — concurrent storeToDisk() of the same
    // entries exercises the write-to-temp + rename path.
    {
        SweepRunner a(SweepOptions{2, dir.string()});
        SweepRunner b(SweepOptions{2, dir.string()});
        std::vector<std::thread> threads;
        std::atomic<bool> mismatch{false};
        for (SweepRunner *r : {&a, &b}) {
            threads.emplace_back([&, r] {
                const auto ref = testfix::runJobs(*r, jobs);
                const auto again = testfix::runJobs(*r, jobs);
                for (std::size_t i = 0; i < jobs.size(); ++i) {
                    if (ref[i].instructions !=
                        again[i].instructions)
                        mismatch = true;
                }
            });
        }
        for (auto &t : threads)
            t.join();
        EXPECT_FALSE(mismatch);
    }

    // Phase 2: fresh runners hit the populated cache from many
    // threads at once — concurrent loadFromDisk() of the same
    // files — and must agree with a cache-less reference.
    SweepRunner reference(SweepOptions{1, "-"});
    const auto expected = testfix::runJobs(reference, jobs);
    {
        SweepRunner warm(SweepOptions{4, dir.string()});
        std::vector<std::thread> threads;
        std::vector<std::vector<RunResult>> got(4);
        for (unsigned p = 0; p < 4; ++p) {
            threads.emplace_back([&, p] {
                got[p] = testfix::runJobs(warm, jobs);
            });
        }
        for (auto &t : threads)
            t.join();
        for (const auto &batch : got) {
            ASSERT_EQ(batch.size(), expected.size());
            for (std::size_t i = 0; i < batch.size(); ++i) {
                EXPECT_EQ(batch[i].instructions,
                          expected[i].instructions);
                EXPECT_DOUBLE_EQ(batch[i].ipc, expected[i].ipc);
            }
        }
        // Nothing re-simulates: every key was on disk.
        EXPECT_EQ(warm.stats().executed, 0u);
        EXPECT_EQ(warm.stats().diskHits, jobs.size());
    }
    std::filesystem::remove_all(dir);
}

TEST(SweepRace, GenericTasksRaceWithCachedJobs)
{
    SweepRunner runner(SweepOptions{4, "-"});
    const auto jobs = collidingJobs();
    std::vector<std::thread> producers;
    std::atomic<int> sum{0};
    for (unsigned p = 0; p < 4; ++p) {
        producers.emplace_back([&, p] {
            std::vector<std::shared_future<int>> generics;
            for (int i = 0; i < 16; ++i) {
                generics.push_back(runner.async(
                    [p, i] { return static_cast<int>(p) + i; }));
            }
            std::vector<std::shared_future<RunResult>> sims;
            for (const auto &job : jobs)
                sims.push_back(
                    runner.enqueue(job.app, job.config));
            for (auto &g : generics)
                sum += g.get();
            for (auto &s : sims)
                (void)s.get();
        });
    }
    for (auto &t : producers)
        t.join();
    // 4 producers x sum(p + i for i in 0..15) = 4*120 + 16*(0+1+2+3)
    EXPECT_EQ(sum.load(), 4 * 120 + 16 * 6);
    EXPECT_EQ(runner.stats().genericTasks, 64u);
    EXPECT_EQ(runner.stats().executed, jobs.size());
}

TEST(SweepRace, GroupAttachRacesWorkerStart)
{
    // Producers submit the machines of several streams while the
    // workers start groups, so attaches race group closes.
    // Whichever group a job lands in, it runs exactly once and its
    // result equals the solo run. Machine-major order spreads each
    // stream's submissions over the whole run, so its group is
    // often already started when the next one arrives.
    constexpr std::uint64_t streams = 6;
    std::vector<testfix::Job> jobs;
    for (const IndexingPolicy policy :
         {IndexingPolicy::Vipt, IndexingPolicy::Ideal,
          IndexingPolicy::SiptNaive, IndexingPolicy::SiptCombined}) {
        for (const bool ooo : {true, false}) {
            for (std::uint64_t seed = 5; seed < 5 + streams; ++seed) {
                SystemConfig cfg = tiny(policy, seed);
                cfg.physMemBytes = 1ull << 30;
                cfg.outOfOrder = ooo;
                jobs.push_back({"astar", cfg});
            }
        }
    }

    SweepRunner runner(SweepOptions{4, "-"});
    constexpr unsigned producers = 4;
    std::vector<std::vector<std::shared_future<RunResult>>> got(
        producers);
    std::vector<std::thread> threads;
    for (unsigned p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            // Each producer walks the jobs from a different offset,
            // so a key's first submission comes from any of them.
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                const auto &job =
                    jobs[(i + p * jobs.size() / producers) %
                         jobs.size()];
                got[p].push_back(runner.enqueue(job.app, job.config));
                // Pauses let idle workers start the posted groups
                // between attaches.
                if (i % 4 == 3)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
            }
        });
    }
    for (auto &t : threads)
        t.join();

    SweepRunner solo(SweepOptions{1, "-"});
    const auto expected = testfix::runJobs(solo, jobs);
    for (unsigned p = 0; p < producers; ++p) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const std::size_t j =
                (i + p * jobs.size() / producers) % jobs.size();
            const RunResult &r = got[p][i].get();
            EXPECT_EQ(r.instructions, expected[j].instructions);
            EXPECT_DOUBLE_EQ(r.cycles, expected[j].cycles);
            EXPECT_EQ(r.l1.hits, expected[j].l1.hits);
        }
    }
    const SweepStats s = runner.stats();
    EXPECT_EQ(s.executed, jobs.size());
    EXPECT_LE(s.grouped, jobs.size() - streams);
    EXPECT_EQ(s.memoHits + s.inflightShares,
              s.submitted - s.executed);
}

} // namespace
} // namespace sipt::sim
