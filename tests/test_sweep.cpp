/**
 * @file
 * The parallel sweep engine: submission-order results from
 * enqueued futures, memo/disk cache hit accounting for single-core and
 * multicore jobs alike, in-flight deduplication of identical
 * concurrent jobs, same-stream grouping, the committed canonical
 * run-key bytes, generic
 * async() tasks, bit-identical results across thread counts, and
 * the disk tier's crash safety (torn and mutated entries).
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <optional>
#include <sstream>
#include <thread>

#include "common/hash.hh"
#include "fixture_table.hh"
#include "mutants.hh"
#include "run_jobs.hh"
#include "sim/sweep.hh"

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

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.app, b.app);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l1.accesses, b.l1.accesses);
    EXPECT_EQ(a.l1.misses, b.l1.misses);
    EXPECT_EQ(a.l1.spec.correctSpeculation,
              b.l1.spec.correctSpeculation);
    EXPECT_DOUBLE_EQ(a.fastFraction, b.fastFraction);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
    EXPECT_DOUBLE_EQ(a.l1Mpki, b.l1Mpki);
    EXPECT_EQ(a.pageWalks, b.pageWalks);
}

std::vector<testfix::Job>
mixedBatch()
{
    return {
        {"mcf", quick(IndexingPolicy::Vipt)},
        {"gcc", quick(IndexingPolicy::SiptCombined)},
        {"mcf", quick(IndexingPolicy::SiptNaive)},
        {"lbm", quick(IndexingPolicy::Ideal)},
        {"gcc", quick(IndexingPolicy::SiptCombined, 7)},
    };
}

TEST(Sweep, EnqueuePreservesSubmissionOrder)
{
    SweepRunner runner(SweepOptions{4, "-"});
    const auto jobs = mixedBatch();
    const auto results = testfix::runJobs(runner, jobs);

    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(results[i].app, jobs[i].app)
            << "row " << i << " out of submission order";
        expectSameResult(results[i],
                         runSingleCore(jobs[i].app,
                                       jobs[i].config));
    }
}

/** Holds every worker of a runner until release(), so that every
 *  job enqueued meanwhile is queued before any group starts. */
class WorkerGate
{
  public:
    WorkerGate(SweepRunner &runner, unsigned workers)
    {
        const std::shared_future<void> gate =
            release_.get_future().share();
        for (unsigned w = 0; w < workers; ++w)
            blockers_.push_back(runner.async([gate] { gate.wait(); }));
    }

    void
    release()
    {
        release_.set_value();
        for (const auto &blocker : blockers_)
            blocker.get();
    }

  private:
    std::promise<void> release_;
    std::vector<std::shared_future<void>> blockers_;
};

/** The three configs of one stream attach to one group, and the
 *  other stream's job forms its own. */
void
expectSameStreamJobsGroup(unsigned workers)
{
    SweepRunner runner(SweepOptions{workers, "-"});
    WorkerGate gate(runner, workers);

    SystemConfig ideal = quick(IndexingPolicy::Ideal);
    ideal.wayPrediction = true;
    SystemConfig inorder = quick(IndexingPolicy::SiptBypass);
    inorder.outOfOrder = false;
    const std::vector<testfix::Job> jobs = {
        {"mcf", quick(IndexingPolicy::Vipt)},
        {"mcf", ideal},
        {"gcc", quick(IndexingPolicy::SiptCombined)},
        {"mcf", inorder},
    };
    std::vector<std::shared_future<RunResult>> futures;
    for (const auto &job : jobs)
        futures.push_back(runner.enqueue(job.app, job.config));
    gate.release();

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        expectSameResult(futures[i].get(),
                         runSingleCore(jobs[i].app, jobs[i].config));
    }
    const SweepStats s = runner.stats();
    EXPECT_EQ(s.executed, 4u);
    EXPECT_EQ(s.grouped, 2u);
    EXPECT_EQ(s.submitted, 4u);
}

TEST(Sweep, SameStreamJobsRunAsOneGroup)
{
    for (const unsigned workers : {1u, 2u}) {
        SCOPED_TRACE(workers);
        expectSameStreamJobsGroup(workers);
    }
}

/** A quick mix config, at Fig. 15's half footprints. */
SystemConfig
quickMix(IndexingPolicy policy)
{
    SystemConfig cfg = quick(policy);
    cfg.footprintScale = 0.5;
    return cfg;
}

void
expectSameMix(const MulticoreResult &a, const MulticoreResult &b)
{
    ASSERT_EQ(a.perCore.size(), b.perCore.size());
    for (std::size_t c = 0; c < a.perCore.size(); ++c)
        expectSameResult(a.perCore[c], b.perCore[c]);
    EXPECT_DOUBLE_EQ(a.sumIpc, b.sumIpc);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

const std::vector<std::string> kMix = {"mcf", "gcc", "lbm", "mcf"};

TEST(Sweep, MixConfigsRunAsOneGroup)
{
    // Two configs of one mix share its stream key, so queued
    // together they run as one group; a single-core job of the
    // mix's first app never joins it.
    SweepRunner runner(SweepOptions{1, "-"});
    WorkerGate gate(runner, 1);
    const std::vector<SystemConfig> configs = {
        quickMix(IndexingPolicy::Vipt),
        quickMix(IndexingPolicy::SiptCombined)};
    std::vector<std::shared_future<MulticoreResult>> futures;
    for (const SystemConfig &cfg : configs)
        futures.push_back(runner.enqueueMulticore(kMix, cfg));
    auto single = runner.enqueue(kMix[0], configs[0]);
    gate.release();

    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameMix(futures[i].get(), runMulticore(kMix, configs[i]));
    }
    expectSameResult(single.get(), runSingleCore(kMix[0], configs[0]));
    const SweepStats s = runner.stats();
    EXPECT_EQ(s.executed, 3u);
    EXPECT_EQ(s.grouped, 1u);
}

/** Virtual memory this process has mapped, in bytes. */
std::uint64_t
mappedBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t pages = 0;
    statm >> pages;
    return pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/**
 * Caps this process's address space for the scope, so that an
 * allocation far beyond the cap fails at once with std::bad_alloc
 * instead of being overcommitted.
 */
class AddressSpaceCap
{
  public:
    explicit AddressSpaceCap(rlim_t bytes)
    {
        getrlimit(RLIMIT_AS, &saved_);
        rlimit cap = saved_;
        cap.rlim_cur = std::min(bytes, saved_.rlim_max);
        setrlimit(RLIMIT_AS, &cap);
    }

    ~AddressSpaceCap() { setrlimit(RLIMIT_AS, &saved_); }

    AddressSpaceCap(const AddressSpaceCap &) = delete;
    AddressSpaceCap &operator=(const AddressSpaceCap &) = delete;

  private:
    rlimit saved_{};
};

TEST(Sweep, ThrowingConfigFailsOnlyItsOwnMixFuture)
{
    constexpr rlim_t cap_bytes = rlim_t{256} << 30;
    if (mappedBytes() > cap_bytes / 4) {
        // Sanitizer runtimes reserve terabytes of shadow memory up
        // front; under a cap their own mappings would fail.
        GTEST_SKIP() << "address space already above the cap";
    }
    // The middle config's L1 is a valid geometry whose tag array
    // needs 256 GiB (2^31 sets x 16 ways x 8 B), which the cap
    // refuses: its machines throw std::bad_alloc while the group
    // builds them.
    SystemConfig huge = quickMix(IndexingPolicy::Ideal);
    huge.l1SizeBytes = std::uint64_t{1} << 41;
    huge.l1Assoc = 16;
    const std::vector<SystemConfig> configs = {
        quickMix(IndexingPolicy::Vipt), huge,
        quickMix(IndexingPolicy::SiptCombined)};
    std::vector<std::shared_future<MulticoreResult>> futures;
    SweepStats s;
    {
        const AddressSpaceCap cap(cap_bytes);
        SweepRunner runner(SweepOptions{1, "-"});
        WorkerGate gate(runner, 1);
        for (const SystemConfig &cfg : configs)
            futures.push_back(runner.enqueueMulticore(kMix, cfg));
        gate.release();
        for (const auto &future : futures)
            future.wait();
        s = runner.stats();
    }

    EXPECT_THROW(futures[1].get(), std::bad_alloc);
    for (const std::size_t i : {0u, 2u}) {
        SCOPED_TRACE(i);
        expectSameMix(futures[i].get(), runMulticore(kMix, configs[i]));
    }
    EXPECT_EQ(s.executed, 2u);
    EXPECT_EQ(s.grouped, 2u);
}

/** Sets an environment variable for the scope, then restores it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old)
            saved_ = old;
        setenv(name, value, 1);
    }

    ~ScopedEnv()
    {
        if (saved_)
            setenv(name_, saved_->c_str(), 1);
        else
            unsetenv(name_);
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::optional<std::string> saved_;
};

/** A checked quick() config. */
SystemConfig
checked(IndexingPolicy policy)
{
    SystemConfig cfg = quick(policy);
    cfg.check = true;
    return cfg;
}

TEST(Sweep, GroupDigestOracleCatchesAProbeMutation)
{
    // The probe mutation corrupts the address a SiptNaive L1
    // probes. Only another policy at the same L1 geometry, on the
    // same stream, can tell: the sweep's functional oracle takes
    // the first clean result served (SiptNaive's, published first
    // in the group) as the reference, and Ideal, served after it,
    // records the mismatch. Recorded, not aborted, even where the
    // environment sets SIPT_CHECK_ABORT.
    const ScopedEnv mutate("SIPT_CHECK_MUTATE", "probe");
    const ScopedEnv record("SIPT_CHECK_ABORT", "0");
    const SystemConfig naive = checked(IndexingPolicy::SiptNaive);
    const SystemConfig ideal = checked(IndexingPolicy::Ideal);

    SweepRunner runner(SweepOptions{1, "-"});
    WorkerGate gate(runner, 1);
    auto naive_run = runner.enqueue("mcf", naive);
    auto ideal_run = runner.enqueue("mcf", ideal);
    gate.release();

    EXPECT_EQ(naive_run.get().checkFailure, "");
    const std::string &failure = ideal_run.get().checkFailure;
    for (const std::string &part :
         {std::string("functional mismatch"),
          std::string(policyName(IndexingPolicy::Ideal)),
          std::string(policyName(IndexingPolicy::SiptNaive)),
          runKeyJson("mcf", naive)}) {
        EXPECT_NE(failure.find(part), std::string::npos)
            << part << " in " << failure;
    }
    const SweepStats s = runner.stats();
    EXPECT_EQ(s.grouped, 1u);
    EXPECT_EQ(s.checkFailures, 1u);
    EXPECT_EQ(s.firstCheckFailure, runKeyJson("mcf", ideal));
    std::ostringstream footer;
    runner.printStats(footer);
    EXPECT_NE(footer.str().find(" check-failures=1 first="),
              std::string::npos)
        << footer.str();
}

TEST(Sweep, OracleComparesPairsSplitAcrossGroups)
{
    // The SiptNaive run finishes before Ideal is enqueued, so the
    // two run in separate groups; the oracle still compares them.
    const ScopedEnv mutate("SIPT_CHECK_MUTATE", "probe");
    const ScopedEnv record("SIPT_CHECK_ABORT", "0");
    SweepRunner runner(SweepOptions{1, "-"});
    EXPECT_EQ(
        runner.enqueue("mcf", checked(IndexingPolicy::SiptNaive))
            .get()
            .checkFailure,
        "");
    const RunResult ideal =
        runner.enqueue("mcf", checked(IndexingPolicy::Ideal)).get();

    EXPECT_NE(ideal.checkFailure.find("functional mismatch"),
              std::string::npos)
        << ideal.checkFailure;
    const SweepStats s = runner.stats();
    EXPECT_EQ(s.grouped, 0u);
    EXPECT_EQ(s.checkFailures, 1u);
}

TEST(Sweep, ThreadCountDoesNotChangeResults)
{
    SweepRunner sequential(SweepOptions{1, "-"});
    SweepRunner parallel(SweepOptions{4, "-"});
    const auto jobs = mixedBatch();
    const auto seq = testfix::runJobs(sequential, jobs);
    const auto par = testfix::runJobs(parallel, jobs);

    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i)
        expectSameResult(seq[i], par[i]);
}

TEST(Sweep, MemoHitsServeRepeatedKeys)
{
    SweepRunner runner(SweepOptions{1, "-"});
    const auto cfg = quick(IndexingPolicy::SiptCombined);

    // The repeat is enqueued after the first run completes, so it
    // is a memo hit rather than an in-flight share.
    auto first = runner.enqueue("mcf", cfg);
    first.wait();
    auto again = runner.enqueue("mcf", cfg);
    auto other = runner.enqueue("gcc", cfg);

    expectSameResult(first.get(), again.get());
    (void)other.get();

    const auto s = runner.stats();
    EXPECT_EQ(s.submitted, 3u);
    EXPECT_EQ(s.executed, 2u);
    EXPECT_EQ(s.memoHits, 1u);
    EXPECT_EQ(s.diskHits, 0u);
    EXPECT_DOUBLE_EQ(s.hitRate(), 1.0 / 3.0);
}

TEST(Sweep, InflightSubmissionsShareOneSimulation)
{
    SweepRunner runner(SweepOptions{4, "-"});
    const auto cfg = quick(IndexingPolicy::SiptCombined);

    // All ten submissions land before any worker can finish the
    // first (a job takes milliseconds); nine must attach to the
    // in-flight run rather than re-simulate.
    std::vector<std::shared_future<RunResult>> futures;
    for (int i = 0; i < 10; ++i)
        futures.push_back(runner.enqueue("mcf", cfg));
    for (auto &f : futures)
        expectSameResult(f.get(), futures.front().get());

    const auto s = runner.stats();
    EXPECT_EQ(s.submitted, 10u);
    EXPECT_EQ(s.executed, 1u);
    EXPECT_EQ(s.memoHits + s.inflightShares, 9u);
}

TEST(Sweep, MulticoreMemoHitsAndInflightShares)
{
    // enqueueMulticore() takes the same submit path as enqueue():
    // six submissions of one mix from a 4-thread pool run it once.
    SweepRunner runner(SweepOptions{4, "-"});
    auto cfg = quick(IndexingPolicy::SiptCombined);
    cfg.footprintScale = 0.5;
    const std::vector<std::string> mix = {"mcf", "gcc", "lbm",
                                          "mcf"};
    std::vector<std::shared_future<MulticoreResult>> futures;
    for (int i = 0; i < 6; ++i)
        futures.push_back(runner.enqueueMulticore(mix, cfg));
    for (auto &f : futures)
        EXPECT_DOUBLE_EQ(f.get().sumIpc, futures.front().get().sumIpc);

    const auto s = runner.stats();
    EXPECT_EQ(s.submitted, 6u);
    EXPECT_EQ(s.executed, 1u);
    EXPECT_EQ(s.memoHits + s.inflightShares, 5u);
}

/** Published entry files in @p dir whose name starts with
 *  @p prefix ("run-" or "multi-"); temp files never count. */
std::size_t
countEntries(const std::filesystem::path &dir, const std::string &prefix)
{
    std::size_t n = 0;
    for (const auto &file : std::filesystem::directory_iterator(dir)) {
        const std::string name = file.path().filename().string();
        n += name.starts_with(prefix) && name.ends_with(".json");
    }
    return n;
}

TEST(Sweep, SingleAndMulticoreKeysNeverShareAnEntry)
{
    // A one-app mix runs the same app under the same config, but
    // its result is a MulticoreResult: the two must key apart in
    // the memo and on disk.
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_test_single_vs_multi";
    std::filesystem::remove_all(dir);
    const auto cfg = quick(IndexingPolicy::SiptCombined);
    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        (void)runner.enqueueMulticore({"mcf"}, cfg).get();
        // The single run after only the multicore run is a miss.
        (void)runner.enqueue("mcf", cfg).get();
        const auto s = runner.stats();
        EXPECT_EQ(s.executed, 2u);
        EXPECT_EQ(s.memoHits + s.inflightShares + s.diskHits, 0u);
        EXPECT_EQ(countEntries(dir, "run-"), 1u);
        EXPECT_EQ(countEntries(dir, "multi-"), 1u);
    }
    {
        // A fresh runner over the same directory: each kind is a
        // disk hit for its own entry point only.
        SweepRunner runner(SweepOptions{1, dir.string()});
        (void)runner.enqueue("mcf", cfg).get();
        (void)runner.enqueueMulticore({"mcf"}, cfg).get();
        EXPECT_EQ(runner.stats().diskHits, 2u);
        EXPECT_EQ(runner.stats().executed, 0u);
    }
    std::filesystem::remove_all(dir);
}

TEST(Sweep, DiskCacheSurvivesRunnerRestart)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_test_run_cache";
    std::filesystem::remove_all(dir);

    const auto cfg = quick(IndexingPolicy::SiptCombined);
    RunResult cold;
    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        cold = runner.enqueue("mcf", cfg).get();
        EXPECT_EQ(runner.stats().executed, 1u);
        EXPECT_EQ(runner.stats().diskHits, 0u);
    }

    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        const auto warm = runner.enqueue("mcf", cfg).get();
        expectSameResult(cold, warm);
        const auto s = runner.stats();
        EXPECT_EQ(s.executed, 0u);
        EXPECT_EQ(s.diskHits, 1u);
        EXPECT_DOUBLE_EQ(s.hitRate(), 1.0);

        // A different key is a miss, not a collision.
        const auto miss =
            runner.enqueue("mcf",
                           quick(IndexingPolicy::SiptCombined,
                                 7));
        (void)miss.get();
        EXPECT_EQ(runner.stats().executed, 1u);
    }
    std::filesystem::remove_all(dir);
}

TEST(Sweep, TruncatedDiskEntryIsDiscardedNotFatal)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_test_torn_cache";
    std::filesystem::remove_all(dir);

    const auto cfg = quick(IndexingPolicy::SiptCombined);
    RunResult cold;
    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        cold = runner.enqueue("mcf", cfg).get();
    }

    // Simulate a torn write: chop the published entry mid-JSON,
    // the state a crash inside an unsynced write() could leave.
    // (storeToDisk's write-tmp + fsync + rename makes this
    // impossible going forward; old caches may still hold one.)
    std::filesystem::path entry;
    for (const auto &file :
         std::filesystem::directory_iterator(dir))
        entry = file.path();
    ASSERT_FALSE(entry.empty());
    const auto full_size = std::filesystem::file_size(entry);
    std::filesystem::resize_file(entry, full_size / 2);

    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        const auto rerun = runner.enqueue("mcf", cfg).get();
        // The torn entry must degrade to a miss (re-execution),
        // never a parse abort or a half-read result.
        const auto s = runner.stats();
        EXPECT_EQ(s.diskHits, 0u);
        EXPECT_EQ(s.executed, 1u);
        expectSameResult(cold, rerun);
    }

    // The re-run republished the entry; a third runner hits it.
    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        (void)runner.enqueue("mcf", cfg).get();
        EXPECT_EQ(runner.stats().diskHits, 1u);
    }
    std::filesystem::remove_all(dir);
}

/** @p obj without member @p name (members keep their order). */
Json
without(const Json &obj, const std::string &name)
{
    Json out = Json::object();
    for (std::size_t i = 0; i < obj.size(); ++i)
        if (obj.member(i).first != name)
            out.set(obj.member(i).first, obj.member(i).second);
    return out;
}

/** The path of the one entry file in the disk cache at @p dir. */
std::filesystem::path
onlyEntry(const std::filesystem::path &dir)
{
    std::filesystem::path entry;
    for (const auto &file : std::filesystem::directory_iterator(dir))
        entry = file.path();
    return entry;
}

/** The parsed contents of @p entry (an empty Json when it does not
 *  parse, which fails the calling test). */
Json
readEntry(const std::filesystem::path &entry)
{
    std::ostringstream bytes;
    bytes << std::ifstream(entry).rdbuf();
    const auto parsed = Json::parse(bytes.str());
    EXPECT_TRUE(parsed.has_value());
    return parsed.value_or(Json());
}

/** Run @p cfg once into a fresh disk cache at @p dir, then rewrite
 *  its one entry file as @p edit of the parsed entry. Returns the
 *  run's result. */
RunResult
publishThenEdit(const std::filesystem::path &dir,
                const SystemConfig &cfg,
                const std::function<Json(const Json &)> &edit)
{
    std::filesystem::remove_all(dir);
    RunResult cold;
    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        cold = runner.enqueue("mcf", cfg).get();
    }
    const std::filesystem::path entry = onlyEntry(dir);
    const Json edited = edit(readEntry(entry));
    std::ofstream(entry, std::ios::trunc) << edited.dump() << '\n';
    return cold;
}

/** @p entry with its result replaced by @p result and its "sum"
 *  recomputed over it, so only the result decoder can reject it. */
Json
withResult(const Json &entry, const Json &result)
{
    Json e = entry;
    e.set("result", result);
    e.set("sum", fnv1a64(result.dump()));
    return e;
}

TEST(Sweep, OracleComparesDiskHits)
{
    // A clean Ideal entry whose digest is then edited (with "sum"
    // recomputed, so it still loads) is the reference a later
    // SiptCombined run at the same geometry is compared with.
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_test_oracle_disk";
    const SystemConfig ideal = checked(IndexingPolicy::Ideal);
    const SystemConfig combined = checked(IndexingPolicy::SiptCombined);
    ASSERT_EQ(l1Geometry(ideal), l1Geometry(combined));
    publishThenEdit(dir, ideal, [](const Json &entry) {
        Json result = entry.get("result");
        result.set("checkDigest",
                   result.get("checkDigest").asUint() + 1);
        return withResult(entry, result);
    });

    SweepRunner runner(SweepOptions{1, dir.string()});
    EXPECT_EQ(runner.enqueue("mcf", ideal).get().checkFailure, "");
    const RunResult served = runner.enqueue("mcf", combined).get();
    EXPECT_NE(served.checkFailure.find("digest"), std::string::npos)
        << served.checkFailure;
    const SweepStats s = runner.stats();
    EXPECT_EQ(s.diskHits, 1u);
    EXPECT_EQ(s.executed, 1u);
    EXPECT_EQ(s.checkFailures, 1u);
    EXPECT_EQ(s.firstCheckFailure, runKeyJson("mcf", combined));
    std::filesystem::remove_all(dir);
}

TEST(Sweep, MalformedDiskEntryIsAMissNotAnAbort)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_test_malformed_cache";
    const auto cfg = quick(IndexingPolicy::SiptCombined);

    // Each edit keeps the file name and the stored key valid. The
    // first four recompute "sum" over the edited result, so only
    // the result decoder or the version check can catch them; the
    // last keeps the old "sum" over a result that still decodes,
    // so only the checksum can.
    const std::vector<std::function<Json(const Json &)>> edits = {
        [](const Json &entry) {
            return withResult(entry,
                              without(entry.get("result"), "app"));
        },
        [](const Json &entry) {
            Json e = withResult(entry, entry.get("result"));
            e.set("version", "5");
            return e;
        },
        [](const Json &entry) {
            Json result = entry.get("result");
            result.set("l1", std::uint64_t{7});
            return withResult(entry, result);
        },
        [](const Json &entry) {
            Json result = entry.get("result");
            result.set("extra", std::uint64_t{1});
            return withResult(entry, result);
        },
        [](const Json &entry) {
            Json e = entry;
            Json result = entry.get("result");
            result.set("pageWalks",
                       result.get("pageWalks").asUint() + 1);
            e.set("result", result);
            return e;
        },
    };
    for (std::size_t i = 0; i < edits.size(); ++i) {
        const RunResult cold = publishThenEdit(dir, cfg, edits[i]);
        {
            SweepRunner runner(SweepOptions{1, dir.string()});
            expectSameResult(cold, runner.enqueue("mcf", cfg).get());
            EXPECT_EQ(runner.stats().diskHits, 0u) << i;
            EXPECT_EQ(runner.stats().executed, 1u) << i;
        }
        // The re-run republished a good entry.
        SweepRunner runner(SweepOptions{1, dir.string()});
        (void)runner.enqueue("mcf", cfg).get();
        EXPECT_EQ(runner.stats().diskHits, 1u) << i;
    }
    std::filesystem::remove_all(dir);
}

TEST(Sweep, ChecksumFreeEntryIsAMiss)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_test_legacy_cache";
    const auto cfg = quick(IndexingPolicy::SiptCombined);
    // The layout builds before the checksum wrote: version, key,
    // result. It warns, re-runs, and is republished with "sum".
    const RunResult cold =
        publishThenEdit(dir, cfg, [](const Json &entry) {
            EXPECT_NE(entry.find("sum"), nullptr);
            return without(entry, "sum");
        });
    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        expectSameResult(cold, runner.enqueue("mcf", cfg).get());
        EXPECT_EQ(runner.stats().diskHits, 0u);
        EXPECT_EQ(runner.stats().executed, 1u);
    }
    const Json republished = readEntry(onlyEntry(dir));
    EXPECT_EQ(republished.size(), 4u);
    EXPECT_NE(republished.find("sum"), nullptr);

    SweepRunner runner(SweepOptions{1, dir.string()});
    (void)runner.enqueue("mcf", cfg).get();
    EXPECT_EQ(runner.stats().diskHits, 1u);
    std::filesystem::remove_all(dir);
}

TEST(Sweep, ResultDecoderIsStrict)
{
    const Json good = runResultToJson(
        runSingleCore("mcf", quick(IndexingPolicy::SiptCombined)));
    std::string error;
    ASSERT_TRUE(runResultFromJson(good, error).has_value()) << error;

    EXPECT_FALSE(runResultFromJson(Json("x"), error).has_value());
    EXPECT_FALSE(
        runResultFromJson(without(good, "app"), error).has_value());
    EXPECT_NE(error.find("app"), std::string::npos) << error;

    Json wrong_type = good;
    wrong_type.set("pageWalks", "12");
    EXPECT_FALSE(runResultFromJson(wrong_type, error).has_value());
    EXPECT_NE(error.find("pageWalks"), std::string::npos) << error;

    Json nested = good;
    nested.set("energy", without(good.get("energy"), "l1Static"));
    EXPECT_FALSE(runResultFromJson(nested, error).has_value());
    EXPECT_NE(error.find("l1Static"), std::string::npos) << error;

    Json extra = good;
    extra.set("engine", std::uint64_t{1});
    EXPECT_FALSE(runResultFromJson(extra, error).has_value());
}

TEST(Sweep, ResultCodecBytesArePinned)
{
    // Every field at a value no other field shares: the coders bind
    // fields by position, so two same-typed bindings listed in the
    // wrong order would move a value under another member's name.
    RunResult r;
    r.app = "lbm";
    r.ipc = 1.5;
    r.cycles = 12345.5;
    r.instructions = 6789;
    r.l1.accesses = 101;
    r.l1.loads = 102;
    r.l1.stores = 103;
    r.l1.hits = 104;
    r.l1.misses = 105;
    r.l1.writebacks = 106;
    r.l1.fastAccesses = 107;
    r.l1.slowAccesses = 108;
    r.l1.extraArrayAccesses = 109;
    r.l1.arrayAccesses = 110;
    r.l1.weightedArrayAccesses = 111.5;
    r.l1.hugeAccesses = 112;
    r.l1.hugeReplays = 113;
    r.l1.hugeBypassLosses = 114;
    r.l1.spec.correctSpeculation = 115;
    r.l1.spec.correctBypass = 116;
    r.l1.spec.opportunityLoss = 117;
    r.l1.spec.extraAccess = 118;
    r.l1.spec.idbHit = 119;
    r.l1HitRate = 0.875;
    r.fastFraction = 0.75;
    r.energy.l1Dynamic = 0.5;
    r.energy.l2Dynamic = 0.25;
    r.energy.llcDynamic = 0.125;
    r.energy.l1Static = 1.5;
    r.energy.l2Static = 2.5;
    r.energy.llcStatic = 3.5;
    r.hugeCoverage = 0.0625;
    r.wayPredAccuracy = 0.9375;
    r.dtlbHitRate = 0.96875;
    r.pageWalks = 201;
    r.l1Mpki = 12.25;
    r.checkDigest = 202;
    r.checkEvents = 203;
    r.checkFailure = "divergence";
    r.vivtReverseProbes = 204;
    r.vivtInvalidations = 205;
    r.vivtDirtyForwards = 206;

    const std::string pinned =
        R"({"app":"lbm","ipc":1.5,"cycles":12345.5,"instructions":6789,)"
        R"("l1":{"accesses":101,"loads":102,"stores":103,"hits":104,)"
        R"("misses":105,"writebacks":106,"fastAccesses":107,)"
        R"("slowAccesses":108,"extraArrayAccesses":109,)"
        R"("arrayAccesses":110,"weightedArrayAccesses":111.5,)"
        R"("hugeAccesses":112,"hugeReplays":113,"hugeBypassLosses":114,)"
        R"("correctSpeculation":115,"correctBypass":116,)"
        R"("opportunityLoss":117,"extraAccess":118,"idbHit":119},)"
        R"("l1HitRate":0.875,"fastFraction":0.75,)"
        R"("energy":{"l1Dynamic":0.5,"l2Dynamic":0.25,"llcDynamic":0.125,)"
        R"("l1Static":1.5,"l2Static":2.5,"llcStatic":3.5},)"
        R"("hugeCoverage":0.0625,"wayPredAccuracy":0.9375,)"
        R"("dtlbHitRate":0.96875,"pageWalks":201,"l1Mpki":12.25,)"
        R"("checkDigest":202,"checkEvents":203,)"
        R"("checkFailure":"divergence","vivtReverseProbes":204,)"
        R"("vivtInvalidations":205,"vivtDirtyForwards":206})";
    const Json encoded = runResultToJson(r);
    EXPECT_EQ(encoded.dump(), pinned);
    std::string error;
    const auto decoded = runResultFromJson(encoded, error);
    ASSERT_TRUE(decoded.has_value()) << error;
    EXPECT_EQ(runResultToJson(*decoded).dump(), pinned);
}

TEST(Sweep, DiskCacheRoundTripsMulticore)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_test_multi_cache";
    std::filesystem::remove_all(dir);

    auto cfg = quick(IndexingPolicy::SiptCombined);
    cfg.footprintScale = 0.5;
    const std::vector<std::string> mix = {"mcf", "gcc", "mcf",
                                          "gcc"};
    MulticoreResult cold;
    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        cold = runner.enqueueMulticore(mix, cfg).get();
    }
    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        const auto warm =
            runner.enqueueMulticore(mix, cfg).get();
        EXPECT_EQ(runner.stats().diskHits, 1u);
        EXPECT_DOUBLE_EQ(cold.sumIpc, warm.sumIpc);
        EXPECT_DOUBLE_EQ(cold.energy.total(),
                         warm.energy.total());
        ASSERT_EQ(cold.perCore.size(), warm.perCore.size());
        for (std::size_t i = 0; i < cold.perCore.size(); ++i)
            expectSameResult(cold.perCore[i], warm.perCore[i]);
    }
    std::filesystem::remove_all(dir);
}

TEST(Sweep, TraceRunsReplayThroughTheCache)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "sipt_test_sweep_trace.sipttrace";
    const auto cfg = quick(IndexingPolicy::SiptCombined);
    recordTrace("mcf", cfg, path.string());
    const std::string app = "trace:" + path.string();

    SweepRunner runner(SweepOptions{1, "-"});
    auto first = runner.enqueue(app, cfg);
    first.wait();
    auto again = runner.enqueue(app, cfg);
    expectSameResult(first.get(), again.get());
    expectSameResult(first.get(), runSingleCore(app, cfg));

    const auto s = runner.stats();
    EXPECT_EQ(s.executed, 1u);
    EXPECT_EQ(s.memoHits, 1u);
    std::filesystem::remove(path);
}

TEST(Sweep, EditedTraceInvalidatesMemoAndDiskCache)
{
    // Re-recording a trace at the same path with a different
    // seed changes nothing the config key can see — only the
    // file's bytes. The cache must key on content, not path.
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_test_trace_cache";
    std::filesystem::remove_all(dir);
    const auto path = std::filesystem::temp_directory_path() /
                      "sipt_test_sweep_edited.sipttrace";

    const auto cfg = quick(IndexingPolicy::SiptCombined);
    auto recording = cfg;
    recordTrace("mcf", recording, path.string());
    const std::string app = "trace:" + path.string();

    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        (void)runner.enqueue(app, cfg).get();
        EXPECT_EQ(runner.stats().executed, 1u);

        // In-place edit under a live runner: the memo entry for
        // the old content must not serve the new file.
        recording.seed = cfg.seed + 1;
        recordTrace("mcf", recording, path.string());
        (void)runner.enqueue(app, cfg).get();
        EXPECT_EQ(runner.stats().executed, 2u);
        EXPECT_EQ(runner.stats().memoHits, 0u);
    }

    {
        // Unchanged content is a disk hit across restarts...
        SweepRunner runner(SweepOptions{1, dir.string()});
        (void)runner.enqueue(app, cfg).get();
        EXPECT_EQ(runner.stats().diskHits, 1u);
        EXPECT_EQ(runner.stats().executed, 0u);
    }
    recording.seed = cfg.seed + 2;
    recordTrace("mcf", recording, path.string());
    {
        // ...but another edit misses the disk cache too.
        SweepRunner runner(SweepOptions{1, dir.string()});
        (void)runner.enqueue(app, cfg).get();
        EXPECT_EQ(runner.stats().diskHits, 0u);
        EXPECT_EQ(runner.stats().executed, 1u);
    }
    std::filesystem::remove_all(dir);
    std::filesystem::remove(path);
}

/** Disk-cache entry file name of a single-core key. */
std::string
runEntryName(const std::string &key_json)
{
    char name[64];
    std::snprintf(name, sizeof(name), "run-%016llx.json",
                  static_cast<unsigned long long>(fnv1a64(key_json)));
    return name;
}

TEST(Sweep, RunKeys)
{
    // The canonical key bytes name every disk-cache entry, so
    // they must never drift without a cacheFormatVersion bump. One
    // row per key: label, entry file name, key. The single-core
    // jobs come from testfix::runKeyJobs(). After an intentional key
    // change, regenerate with:
    //
    //   ctest --test-dir build -R 'Sweep.RunKeys'
    //   cp build/tests/sweep_fixtures/RunKeys.txt tests/fixtures/sweep/
    std::vector<std::string> rows;
    for (const auto &[label, job] : testfix::runKeyJobs()) {
        const std::string key = runKeyJson(job.app, job.config);
        rows.push_back(label + " " + runEntryName(key) + " " + key);
    }
    // The quad-core key below reuses footprint-half's config.
    const SystemConfig half = testfix::runKeyJobs()[3].second.config;

    // The multicore key is internal to the engine; read it back
    // from the entry the run publishes.
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_test_run_keys";
    std::filesystem::remove_all(dir);
    SystemConfig quad = half;
    quad.condition = MemCondition::Normal;
    quad.warmupRefs = 500;
    quad.measureRefs = 500;
    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        (void)runner
            .enqueueMulticore({"mcf", "lbm", "gcc", "mcf"}, quad)
            .get();
    }
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        std::ifstream in(entry.path());
        std::stringstream bytes;
        bytes << in.rdbuf();
        const auto parsed = Json::parse(bytes.str());
        ASSERT_TRUE(parsed && parsed->find("key"));
        rows.push_back("multi-quad " +
                       entry.path().filename().string() + " " +
                       parsed->find("key")->dump());
    }
    std::filesystem::remove_all(dir);

    testfix::expectMatchesFixture(
        rows, SIPT_SWEEP_FIXTURE_DIR, SIPT_SWEEP_FIXTURE_OUT,
        "Sweep.RunKeys: label, entry file, canonical run key "
        "(tests/test_sweep.cpp)");
}

TEST(Sweep, AsyncRunsGenericTasks)
{
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        SweepRunner runner(SweepOptions{threads, "-"});
        std::vector<std::shared_future<int>> futures;
        for (int i = 0; i < 8; ++i)
            futures.push_back(runner.async([i] { return i * i; }));
        // A task that does measurable work: its host time must reach
        // the footer's wall and sim seconds like a sim job's does.
        auto slow = runner.async([] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        });
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(futures[i].get(), i * i);
        slow.get();

        const auto s = runner.stats();
        EXPECT_EQ(s.genericTasks, 9u);
        EXPECT_EQ(s.submitted, 0u);
        EXPECT_GT(s.wallSeconds, 0.0);
        EXPECT_GT(s.simSeconds, 0.0);
    }
}

TEST(Sweep, StatsRates)
{
    SweepStats s;
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.0);
    EXPECT_DOUBLE_EQ(s.jobsPerSec(), 0.0);

    s.submitted = 4;
    s.memoHits = 1;
    s.diskHits = 1;
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.5);
    // No wall time yet: no rate.
    EXPECT_DOUBLE_EQ(s.jobsPerSec(), 0.0);

    // The rate counts every submission, executed or served from a
    // cache.
    s.executed = 2;
    s.wallSeconds = 2.0;
    EXPECT_DOUBLE_EQ(s.jobsPerSec(), 2.0);
}

// ---------------------------------------------------------------
// Crash safety of the SIPT_RUN_CACHE disk tier. An entry is
// published by write-tmp + fsync + rename, so a crash leaves at
// worst a stray `*.tmp.*` file, and disk corruption leaves a
// damaged published file. For every byte prefix of a real entry in
// both places, and for a seeded set of byte mutants, enqueue() on a
// fresh runner must return the exact original result — as a disk
// hit or by re-running — never a wrong result, never an abort, and
// a re-run must republish the original bytes.
// ---------------------------------------------------------------

/** A cheap job: small machine, few references. */
SystemConfig
tiny()
{
    SystemConfig cfg;
    cfg.l1Config = L1Config::Sipt32K2;
    cfg.policy = IndexingPolicy::SiptCombined;
    cfg.physMemBytes = 64ull << 20;
    cfg.footprintScale = 0.0625;
    cfg.warmupRefs = 200;
    cfg.measureRefs = 400;
    cfg.seed = 9;
    return cfg;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::filesystem::path &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** A fresh cache directory holding one real published entry. */
struct PublishedEntry
{
    std::filesystem::path dir;
    std::filesystem::path path;
    std::string bytes;
    /** runResultToJson() of the entry's result. */
    std::string result;

    explicit PublishedEntry(const std::string &name)
        : dir(std::filesystem::temp_directory_path() /
              ("sipt_test_run_cache_" + name))
    {
        std::filesystem::remove_all(dir);
        SweepRunner runner(SweepOptions{1, dir.string()});
        result = runResultToJson(runner.enqueue("mcf", tiny()).get())
                     .dump();
        path = dir / runEntryName(runKeyJson("mcf", tiny()));
        bytes = readFile(path);
    }
    ~PublishedEntry() { std::filesystem::remove_all(dir); }
};

/** enqueue() of the entry's job on a fresh runner over its
 *  directory. Expects the original result and, when the job ran,
 *  the original entry bytes republished. @return true on a disk
 *  hit, false when the job re-ran. */
bool
freshEnqueue(const PublishedEntry &entry, const std::string &what)
{
    SweepRunner runner(SweepOptions{1, entry.dir.string()});
    const RunResult r = runner.enqueue("mcf", tiny()).get();
    const SweepStats s = runner.stats();
    EXPECT_EQ(runResultToJson(r).dump(), entry.result)
        << what << " served a wrong result";
    EXPECT_EQ(s.executed + s.diskHits, 1u) << what;
    if (s.executed == 1) {
        EXPECT_EQ(readFile(entry.path), entry.bytes)
            << what << " was not republished byte-identically";
    }
    return s.diskHits == 1;
}

TEST(RunCache, EveryBytePrefixIsAMissOrTheOriginal)
{
    const PublishedEntry entry("prefix");
    const std::filesystem::path stray =
        entry.path.string() + ".tmp.12345";

    std::size_t hits = 0;
    for (std::size_t k = 0; k <= entry.bytes.size(); ++k) {
        const std::string prefix = entry.bytes.substr(0, k);
        const std::string what = "prefix " + std::to_string(k);

        // A crash before the rename: the good entry plus a torn
        // temp file, which is never read.
        writeFile(entry.path, entry.bytes);
        writeFile(stray, prefix);
        EXPECT_TRUE(freshEnqueue(entry, what + " (stray temp file)"));
        std::filesystem::remove(stray);

        // Disk corruption: the published file itself is torn.
        writeFile(entry.path, prefix);
        hits += freshEnqueue(entry, what);
    }
    // Only the whole entry, with or without its trailing newline,
    // decodes.
    EXPECT_EQ(hits, 2u);
}

TEST(RunCache, SeededMutantsNeverYieldAWrongResult)
{
    const PublishedEntry entry("mutants");
    constexpr std::uint64_t seed = 1;
    constexpr std::uint64_t count = 2'000;

    std::size_t misses = 0;
    for (std::uint64_t index = 0; index < count; ++index) {
        writeFile(entry.path,
                  testfix::mutantAt(entry.bytes, seed, index));
        misses += !freshEnqueue(
            entry, "mutant seed=" + std::to_string(seed) +
                       " index=" + std::to_string(index));
    }
    // Nearly every mutant damages the entry; the few that survive
    // (an edit to the trailing newline) decode to the original.
    EXPECT_GT(misses, count * 9 / 10);
}

TEST(RunCache, ReRunHealsACorruptEntryByteIdentically)
{
    const PublishedEntry entry("heal");
    for (const std::size_t k :
         {std::size_t{0}, std::size_t{1}, entry.bytes.size() / 2,
          entry.bytes.size() - 2}) {
        writeFile(entry.path, entry.bytes.substr(0, k));
        EXPECT_FALSE(freshEnqueue(entry, "prefix " + std::to_string(k)));
        EXPECT_EQ(readFile(entry.path), entry.bytes) << k;
    }
}

} // namespace
} // namespace sipt::sim
