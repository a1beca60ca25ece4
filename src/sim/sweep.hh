/**
 * @file
 * The parallel sweep engine behind every figure bench.
 *
 * A SweepRunner executes (app, SystemConfig) simulation jobs on a
 * std::thread pool sized by SIPT_THREADS (default:
 * hardware_concurrency(); 1 = run jobs inline, exactly the old
 * sequential behaviour). Each job is deterministic in isolation —
 * runSingleCore()/runMulticore() build every stateful component
 * (allocator, address space, RNG streams, predictors) locally from
 * SystemConfig::seed and the app name, and the simulator has no
 * mutable globals (audited: the only namespace-level statics are
 * const lookup tables with thread-safe initialisation) — so results
 * are bit-identical for any thread count and benches fetch futures
 * in submission order to keep their printed tables byte-identical.
 *
 * On top of the pool sits a memoizing run cache keyed on
 * (app, SystemConfig):
 *
 *  - in-memory: repeated requests for the same key return the same
 *    shared_future, and concurrent requests for a key whose
 *    simulation is still running share the in-flight job instead of
 *    re-simulating;
 *  - on disk (optional): SIPT_RUN_CACHE=<dir> persists every result
 *    as a small JSON file, so re-running a bench — or another bench
 *    that needs the same baseline runs — is near-instant. Entries
 *    store the full key and are verified on load, so a file-name
 *    hash collision degrades to a cache miss, never a wrong result.
 *
 * Generic tasks (async()) run arbitrary work on the same pool for
 * the trace-analysis benches; they are not cached.
 */

#ifndef SIPT_SIM_SWEEP_HH
#define SIPT_SIM_SWEEP_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/json.hh"
#include "sim/system.hh"

namespace sipt::sim
{

/** Construction-time knobs; fields left at defaults read the
 *  corresponding environment variable. */
struct SweepOptions
{
    /** Worker count; 0 = SIPT_THREADS or hardware_concurrency().
     *  1 runs every job inline at enqueue time. */
    unsigned threads = 0;
    /** On-disk cache directory; empty = SIPT_RUN_CACHE or off.
     *  "-" disables the disk cache even when the env var is set. */
    std::string cacheDir;
};

/** Aggregate engine counters (printed in every bench footer). */
struct SweepStats
{
    unsigned threads = 0;
    /** Cached sim jobs submitted (single + multicore). */
    std::uint64_t submitted = 0;
    /** Simulations actually executed. */
    std::uint64_t executed = 0;
    /** Served from a completed in-memory entry. */
    std::uint64_t memoHits = 0;
    /** Attached to a still-running simulation of the same key. */
    std::uint64_t inflightShares = 0;
    /** Served from the on-disk JSON cache. */
    std::uint64_t diskHits = 0;
    /** Uncached generic async() tasks executed. */
    std::uint64_t genericTasks = 0;
    /** Wall-clock seconds from first submission to last
     *  completion. */
    double wallSeconds = 0.0;
    /** Summed single-job simulation seconds (CPU-side view). */
    double simSeconds = 0.0;

    /** Fraction of sim submissions served without a new run. */
    double hitRate() const;
    /** Completed sim jobs per wall-clock second. */
    double jobsPerSec() const;
};

/** One single-core sweep job. */
struct SweepJob
{
    std::string app;
    SystemConfig config;
};

/**
 * Serialisation and dedup hooks for external callers (the serve
 * daemon, tooling). These are the sweep engine's own on-disk cache
 * codecs, exported so every layer that persists or transmits run
 * results speaks one format.
 */

/** The disk-cache key codec for a SystemConfig. Every keyed field
 *  participates (enforced by sipt-analyze's config-key pass). */
Json configToJson(const SystemConfig &config);

/**
 * Strict inverse of configToJson(): every keyed field must be
 * present with the right type and in range, unknown members are
 * rejected, and `engine` stays at its (key-exempt) default. On
 * failure returns nullopt and sets @p error. Designed for wire
 * input: a malformed config must degrade to an error response,
 * never a default-filled run or a panic.
 */
std::optional<SystemConfig>
configFromJson(const Json &j, std::string &error);

/** RunResult <-> disk-cache/wire JSON. */
Json runResultToJson(const RunResult &result);
RunResult runResultFromJson(const Json &j);

/** Content hash of the trace file behind a "trace:<path>" app
 *  (0 for synthetic apps); part of every dedup key. */
std::uint64_t traceHashFor(const std::string &app);

/**
 * The canonical single-run dedup key: the exact JSON string the
 * sweep engine keys its disk cache on (app + trace content hash +
 * full config). External stores that key on this string dedup
 * identically to the engine itself.
 */
std::string runKeyJson(const std::string &app,
                       const SystemConfig &config);

class SweepRunner
{
  public:
    /** Environment-configured runner (SIPT_THREADS,
     *  SIPT_RUN_CACHE). */
    SweepRunner() : SweepRunner(SweepOptions{}) {}
    explicit SweepRunner(const SweepOptions &options);
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /** Process-wide runner shared by the bench binaries. */
    static SweepRunner &global();

    unsigned threads() const { return threads_; }
    const std::string &cacheDir() const { return cacheDir_; }

    /**
     * Submit one single-core run. Returns immediately; the result
     * is memoized, deduplicated against identical in-flight
     * submissions, and served from the disk cache when possible.
     */
    std::shared_future<RunResult>
    enqueue(const std::string &app, const SystemConfig &config);

    /** Submit one multiprogrammed runMulticore() job. */
    std::shared_future<MulticoreResult>
    enqueueMulticore(const std::vector<std::string> &mix,
                     const SystemConfig &config);

    /**
     * Convenience batch API: enqueue everything, then return the
     * results in submission order.
     */
    std::vector<RunResult>
    runBatch(const std::vector<SweepJob> &jobs);

    /**
     * Run an arbitrary task on the pool (uncached). The trace
     * benches use this to analyse per-app address streams in
     * parallel; tasks must be self-contained and deterministic.
     */
    template <typename F>
    auto
    async(F fn) -> std::shared_future<std::invoke_result_t<F>>
    {
        using T = std::invoke_result_t<F>;
        // The task is counted before its future becomes ready, so
        // a caller holding every result also sees every task in
        // stats().
        auto task = std::make_shared<std::packaged_task<T()>>(
            [this, fn = std::move(fn)]() mutable -> T {
                if constexpr (std::is_void_v<T>) {
                    fn();
                    noteGenericDone();
                } else {
                    T result = fn();
                    noteGenericDone();
                    return result;
                }
            });
        auto fut = task->get_future().share();
        post([this, task] { runGenericTraced([&] { (*task)(); }); });
        return fut;
    }

    /** Snapshot of the counters. */
    SweepStats stats() const;

    /** One-line bench-footer summary (jobs/sec, hit rate). */
    void printStats(std::ostream &os) const;

  private:
    struct SingleKey
    {
        std::string app;
        SystemConfig config;
        /** Content hash of the trace file behind a
         *  "trace:<path>" app (0 for synthetic apps). Editing a
         *  trace in place must key differently even though the
         *  path-visible config is unchanged. */
        std::uint64_t traceHash = 0;
        bool operator==(const SingleKey &) const = default;
    };
    struct SingleKeyHash
    {
        std::size_t operator()(const SingleKey &k) const;
    };
    struct MultiKey
    {
        std::vector<std::string> mix;
        SystemConfig config;
        /** Per-mix-entry trace content hashes (0 for synthetic
         *  apps), aligned with @c mix. */
        std::vector<std::uint64_t> traceHashes;
        bool operator==(const MultiKey &) const = default;
    };
    struct MultiKeyHash
    {
        std::size_t operator()(const MultiKey &k) const;
    };

    /** Run @p work now (threads==1) or on the pool. */
    void post(std::function<void()> work);

    /** Run one generic task, emitting a wall-clock trace span
     *  around it when SIPT_TRACE is set (the clock reads live in
     *  sweep.cc, which owns the nondeterminism allowance). */
    void runGenericTraced(const std::function<void()> &work);

    void noteSubmitted();
    void noteGenericDone();
    void noteJobDone(double seconds);

    /** Disk-cache probe / store; no-ops when the cache is off. */
    bool loadFromDisk(const std::string &key_json,
                      bool multicore, Json &result_out) const;
    void storeToDisk(const std::string &key_json, bool multicore,
                     const Json &result) const;

    unsigned threads_ = 1;
    std::string cacheDir_;

    // Pool state.
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    mutable std::mutex poolMu_;
    std::condition_variable poolCv_;
    bool stop_ = false;

    // Memo cache + stats.
    mutable std::mutex cacheMu_;
    std::unordered_map<SingleKey, std::shared_future<RunResult>,
                       SingleKeyHash>
        single_;
    std::unordered_map<MultiKey,
                       std::shared_future<MulticoreResult>,
                       MultiKeyHash>
        multi_;
    SweepStats stats_;
    std::chrono::steady_clock::time_point firstSubmit_;
    std::chrono::steady_clock::time_point lastComplete_;
    bool anySubmitted_ = false;
};

} // namespace sipt::sim

#endif // SIPT_SIM_SWEEP_HH
