/**
 * @file
 * The stream thread (sim::StreamThread): a group run that generates
 * and resolves its batches on a second host thread must return
 * exactly what the inline run returns, bit for bit, for every job
 * shape, and must neither hang nor leak its thread when a phase is
 * empty or the stream fails.
 */

#include <bit>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <sched.h>
#include <unistd.h>

#include "os/address_space.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "workload/profile.hh"
#include "workload/synthetic.hh"

namespace sipt::sim
{
namespace
{

/** A checked single-core config small enough for a unit test. */
SystemConfig
checkedConfig(IndexingPolicy policy = IndexingPolicy::SiptCombined)
{
    SystemConfig config;
    config.l1Config = policy == IndexingPolicy::Vipt
                          ? L1Config::Baseline32K8
                          : L1Config::Sipt32K2;
    config.policy = policy;
    config.warmupRefs = 3'000;
    config.measureRefs = 12'500;
    config.check = true; // populate the functional digest
    return config;
}

/** Every field of @p threaded equals @p inlined's, doubles by bit
 *  pattern. */
void
expectIdentical(const RunResult &threaded, const RunResult &inlined)
{
    EXPECT_TRUE(inlined.checkFailure.empty()) << inlined.checkFailure;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(threaded.cycles),
              std::bit_cast<std::uint64_t>(inlined.cycles));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(threaded.dtlbHitRate),
              std::bit_cast<std::uint64_t>(inlined.dtlbHitRate));
    EXPECT_EQ(threaded.pageWalks, inlined.pageWalks);
    EXPECT_EQ(threaded.checkDigest, inlined.checkDigest);
    EXPECT_EQ(threaded.checkEvents, inlined.checkEvents);
    // The result codec names every field, L1Stats included.
    EXPECT_EQ(runResultToJson(threaded).dump(),
              runResultToJson(inlined).dump());
}

/** runGroup() with and without the stream thread agree on every
 *  config and core. */
void
expectGroupIdentical(JobKind kind, const std::vector<std::string> &apps,
                     const std::vector<SystemConfig> &configs)
{
    const std::vector<MulticoreResult> inlined =
        runGroup(kind, apps, configs, nullptr, Overlap::Inline);
    const std::vector<MulticoreResult> threaded =
        runGroup(kind, apps, configs, nullptr, Overlap::Threaded);
    ASSERT_EQ(threaded.size(), configs.size());
    ASSERT_EQ(inlined.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        ASSERT_EQ(threaded[i].perCore.size(), apps.size());
        ASSERT_EQ(inlined[i].perCore.size(), apps.size());
        for (std::size_t c = 0; c < apps.size(); ++c) {
            SCOPED_TRACE("config " + std::to_string(i) + " core " +
                         std::to_string(c));
            EXPECT_GT(inlined[i].perCore[c].checkEvents, 0u);
            expectIdentical(threaded[i].perCore[c],
                            inlined[i].perCore[c]);
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(threaded[i].sumIpc),
                  std::bit_cast<std::uint64_t>(inlined[i].sumIpc));
    }
}

/** Threads of this process, from /proc/self/task. */
std::size_t
liveThreads()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &task :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

/** liveThreads() once a stream thread has come and gone (a
 *  sanitizer runtime starts a helper thread of its own at the
 *  first thread start). */
std::size_t
threadsAtRest()
{
    {
        const StreamThread idle([](StreamThread &) {});
    }
    return liveThreads();
}

TEST(StreamThread, SingleRunMatchesInline)
{
    expectGroupIdentical(JobKind::Single, {"mcf"}, {checkedConfig()});
}

TEST(StreamThread, ThreeConfigGroupMatchesInline)
{
    SystemConfig ideal = checkedConfig(IndexingPolicy::Ideal);
    ideal.wayPrediction = true;
    expectGroupIdentical(JobKind::Single, {"gcc"},
                         {checkedConfig(IndexingPolicy::Vipt),
                          checkedConfig(), ideal});
}

TEST(StreamThread, RadixWalkerMatchesInline)
{
    SystemConfig radix = checkedConfig();
    radix.radixWalker = true;
    expectGroupIdentical(JobKind::Single, {"mcf"},
                         {radix, checkedConfig()});
}

TEST(StreamThread, TraceReplayMatchesInline)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_test_stream_thread";
    std::filesystem::create_directories(dir);
    const std::string path =
        (dir / ("milc." + std::to_string(getpid()) + ".trace")).string();
    const SystemConfig config = checkedConfig();
    recordTrace("milc", config, path);
    expectGroupIdentical(JobKind::Single, {"trace:" + path},
                         {config, checkedConfig(IndexingPolicy::Vipt)});
    std::filesystem::remove(path);
}

TEST(StreamThread, QuadMixMatchesInline)
{
    // Both phases span several 5,000-reference episodes per core
    // and end mid-episode, and the stream thread resets the TLB
    // counters at the phase boundary while the caller still steps
    // warmup batches.
    std::vector<SystemConfig> configs = {
        checkedConfig(IndexingPolicy::Vipt), checkedConfig()};
    for (SystemConfig &config : configs) {
        config.footprintScale = 0.5;
        config.warmupRefs = 12'000;
        config.measureRefs = 11'111;
    }
    expectGroupIdentical(JobKind::Mix, {"mcf", "gcc", "lbm", "mcf"},
                         configs);
}

TEST(StreamThread, RunShorterThanOneBatchMatchesInline)
{
    SystemConfig config = checkedConfig();
    config.warmupRefs = 100;
    config.measureRefs = 77; // one partial batch
    expectGroupIdentical(JobKind::Single, {"mcf"}, {config});
    expectGroupIdentical(JobKind::Mix, {"mcf", "gcc"}, {config});
}

TEST(StreamThread, EmptyAndOneReferencePhasesReturn)
{
    for (const auto &[warmup, measure] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {0, 0}, {0, 1}, {1, 0}, {1, 1}}) {
        SCOPED_TRACE(std::to_string(warmup) + "+" +
                     std::to_string(measure));
        SystemConfig config = checkedConfig();
        config.check = false;
        config.warmupRefs = warmup;
        config.measureRefs = measure;
        for (const JobKind kind : {JobKind::Single, JobKind::Mix}) {
            const std::vector<std::string> apps =
                kind == JobKind::Single
                    ? std::vector<std::string>{"gcc"}
                    : std::vector<std::string>{"gcc", "mcf"};
            const auto inlined =
                runGroup(kind, apps, {config}, nullptr, Overlap::Inline);
            const auto threaded = runGroup(kind, apps, {config}, nullptr,
                                           Overlap::Threaded);
            for (std::size_t c = 0; c < apps.size(); ++c) {
                EXPECT_EQ(threaded[0].perCore[c].l1.accesses, measure);
                expectIdentical(threaded[0].perCore[c],
                                inlined[0].perCore[c]);
            }
        }
    }
}

/** What ThrowingSource throws: the batch it failed at. */
struct StreamFailure : std::runtime_error
{
    explicit StreamFailure(std::uint64_t at)
        : std::runtime_error("stream failed"), at(at)
    {
    }
    std::uint64_t at;
};

/** A workload whose batch number @p fail_at (from 0) throws. */
class ThrowingSource : public cpu::TraceSource
{
  public:
    ThrowingSource(std::unique_ptr<cpu::TraceSource> inner,
                   std::uint64_t fail_at)
        : inner_(std::move(inner)), failAt_(fail_at)
    {
    }

    bool next(MemRef &ref) override { return inner_->next(ref); }

    std::size_t
    nextBatch(cpu::RefBatch &batch, std::size_t max_refs) override
    {
        if (batches_++ == failAt_)
            throw StreamFailure(failAt_);
        return inner_->nextBatch(batch, max_refs);
    }

  private:
    std::unique_ptr<cpu::TraceSource> inner_;
    std::uint64_t failAt_;
    std::uint64_t batches_ = 0;
};

/** runOnStreams() over a gcc stream whose batch @p fail_at throws;
 *  returns the failure it rethrew. */
std::uint64_t
failingRun(std::uint64_t fail_at, Overlap overlap)
{
    const SystemConfig config = checkedConfig();
    const StreamSpec spec = streamSpec(config);
    ConditionedMemory memory(spec);
    const std::uint64_t seed = coreSeed(JobKind::Single, spec.seed, 0);
    Workload w;
    w.as = std::make_unique<os::AddressSpace>(
        memory.buddy, os::PagingPolicy{}, seed + 1);
    w.source = std::make_unique<ThrowingSource>(
        std::make_unique<workload::SyntheticWorkload>(
            workload::appProfile("gcc"), *w.as, seed + 2),
        fail_at);
    Stream stream(std::move(w));
    Stream *const streams[] = {&stream};
    try {
        runOnStreams(JobKind::Single, streams, {"gcc"}, {config},
                     nullptr, overlap);
    } catch (const StreamFailure &failure) {
        return failure.at;
    }
    ADD_FAILURE() << "the stream's exception did not reach the caller";
    return 0;
}

TEST(StreamThread, SourceExceptionRethrownOnCaller)
{
    // The 3,000-reference warmup is 12 batches: fail in its middle,
    // at its last (partial) batch, and at the first measured one.
    const std::size_t threads = threadsAtRest();
    for (const std::uint64_t fail_at : {5u, 11u, 12u}) {
        SCOPED_TRACE(fail_at);
        EXPECT_EQ(failingRun(fail_at, Overlap::Threaded), fail_at);
        EXPECT_EQ(liveThreads(), threads);
        EXPECT_EQ(failingRun(fail_at, Overlap::Inline), fail_at);
    }
}

TEST(StreamThread, ErrorArrivesAtItsBatch)
{
    StreamThread ring([](StreamThread &self) {
        for (std::size_t i = 0; i < 20; ++i) {
            self.claim().size = i;
            self.publish();
        }
        throw StreamFailure(20);
    });
    for (std::size_t i = 0; i < 20; ++i) {
        EXPECT_EQ(ring.front().size, i);
        ring.pop();
    }
    EXPECT_THROW(ring.front(), StreamFailure);
}

TEST(StreamThread, AbandonedRunJoins)
{
    // The caller stops reading while the producer would run
    // forever, usually asleep on a full ring: the destructor must
    // wake it and join.
    const std::size_t threads = threadsAtRest();
    {
        StreamThread ring([](StreamThread &self) {
            for (;;) {
                self.claim();
                self.publish();
            }
        });
        EXPECT_EQ(ring.front().size, 0u);
    }
    EXPECT_EQ(liveThreads(), threads);
}

TEST(StreamThread, SweepFuturesMatchInlineRuns)
{
    // A pool's groups get the thread on any host with two usable
    // CPUs; the inline group is the reference.
    const std::vector<SystemConfig> configs = {
        checkedConfig(IndexingPolicy::Vipt), checkedConfig()};
    const std::vector<MulticoreResult> inlined = runGroup(
        JobKind::Single, {"mcf"}, configs, nullptr, Overlap::Inline);
    SweepRunner runner(SweepOptions{2, "-"});
    std::vector<std::shared_future<RunResult>> futures;
    for (const SystemConfig &config : configs)
        futures.push_back(runner.enqueue("mcf", config));
    for (std::size_t i = 0; i < configs.size(); ++i)
        expectIdentical(futures[i].get(), inlined[i].perCore[0]);
}

TEST(StreamThread, UsableCpusIsTheAffinityMask)
{
    cpu_set_t set;
    ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
    EXPECT_EQ(usableCpus(), static_cast<unsigned>(CPU_COUNT(&set)));
}

} // namespace
} // namespace sipt::sim
