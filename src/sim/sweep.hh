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
 * On top of the pool sits a memoizing run cache keyed on one
 * canonical string: runKeyJson() for single-core runs (app, trace
 * content hash, configToJson()) and its multicore counterpart (the
 * mix, per-app trace hashes, configToJson()). Both tiers use the
 * same bytes:
 *
 *  - in-memory: repeated requests for the same key return the same
 *    shared_future, and concurrent requests for a key whose
 *    simulation is still running share the in-flight job instead of
 *    re-simulating;
 *  - on disk (optional): SIPT_RUN_CACHE=<dir> persists every result
 *    as one small JSON file per key, published by write-tmp +
 *    fsync + rename (common/fsio.hh), so re-running a bench — or
 *    another bench that needs the same baseline runs — is
 *    near-instant. Entries store the full key and are verified on
 *    load, so a file-name hash collision degrades to a cache miss,
 *    never a wrong result; an entry that fails to decode warns and
 *    is re-run and republished.
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

/**
 * The sweep engine's run-key and disk-cache codecs, exported for
 * tests and tooling.
 */

/** The run-cache key codec for a SystemConfig, and the only
 *  definition of which fields make an experiment: the memo and the
 *  disk tier both key on its bytes. Every field participates
 *  (enforced by sipt-analyze's config-key pass). */
Json configToJson(const SystemConfig &config);

/** RunResult -> disk-cache JSON. */
Json runResultToJson(const RunResult &result);

/** Strict inverse of runResultToJson(): every member must be
 *  present with the right type and unknown members are rejected.
 *  On failure returns nullopt and sets @p error, so a malformed
 *  cache entry is a miss, never a panic. */
std::optional<RunResult> runResultFromJson(const Json &j,
                                           std::string &error);

/**
 * The canonical single-run key: the exact JSON string the sweep
 * engine keys its memo and disk cache on (app + trace content
 * hash + configToJson()).
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
    /** In-memory memo: canonical key string -> (possibly still
     *  running) result. */
    template <typename Result>
    using Memo =
        std::unordered_map<std::string, std::shared_future<Result>>;

    /**
     * The one submit path behind enqueue() and enqueueMulticore():
     * serve @p key_json from @p memo (a completed or in-flight
     * entry) or the disk tier, else post @p run to the pool,
     * publish its result to disk and emit a trace span named
     * @p span_name around it.
     */
    template <typename Result>
    std::shared_future<Result> submit(Memo<Result> &memo,
                                      const std::string &key_json,
                                      std::function<Result()> run,
                                      std::string span_name);

    /** Run @p work now (threads==1) or on the pool. */
    void post(std::function<void()> work);

    /** Run one generic task, emitting a wall-clock trace span
     *  around it when SIPT_TRACE is set (the clock reads live in
     *  sweep.cc, which owns the nondeterminism allowance). */
    void runGenericTraced(const std::function<void()> &work);

    void noteSubmitted();
    void noteGenericDone();
    void noteJobDone(double seconds);

    /** Disk-cache probe: the decoded entry for @p key_json, or
     *  nullopt on a miss. A malformed entry warns and misses; a
     *  hit counts in diskHits. */
    template <typename Result>
    std::optional<Result> loadFromDisk(const std::string &key_json);
    /** Publish one entry (write-tmp + fsync + rename). */
    template <typename Result>
    void storeToDisk(const std::string &key_json,
                     const Result &result);

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
    Memo<RunResult> single_;
    Memo<MulticoreResult> multi_;
    SweepStats stats_;
    std::chrono::steady_clock::time_point firstSubmit_;
    std::chrono::steady_clock::time_point lastComplete_;
    bool anySubmitted_ = false;
};

} // namespace sipt::sim

#endif // SIPT_SIM_SWEEP_HH
