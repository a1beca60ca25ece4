/**
 * @file
 * The parallel sweep engine behind every figure of sipt-figures.
 *
 * A SweepRunner executes (app, SystemConfig) simulation jobs on a
 * std::thread pool sized by SIPT_THREADS (default:
 * hardware_concurrency(); 1 = one worker). Every job runs on a
 * worker, never on the submitting thread, so there is one execution
 * path at every thread count. Each job's result is a pure function
 * of its key — the allocator, address space, RNG streams and
 * predictors all derive from SystemConfig::seed and the app name,
 * and the simulator has no mutable globals (audited: the only
 * namespace-level statics are const lookup tables with thread-safe
 * initialisation) — so results are bit-identical for any thread
 * count and figures fetch futures in submission order to keep their
 * printed tables byte-identical.
 *
 * Single-core jobs that share a stream key (streamKeyJson(): the
 * app, its trace hash and the StreamSpec fields) run as one group:
 * one runSameStream() call conditions memory and generates and
 * resolves the stream once for all of them. A job whose memo and
 * disk tiers both miss attaches to a posted group with its stream
 * key that no worker has started yet, or else posts a new group; a
 * started group is closed. Grouping is only a scheduling choice:
 * every member's result, run key, memo and disk entry is exactly
 * what a solo run would produce. Jobs group at every thread count;
 * with one worker, every job queued behind a running one can still
 * attach. Multicore mixes always run alone.
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
 *    fsync + rename (common/fsio.hh), so re-running a figure — or
 *    another figure that needs the same baseline runs — is
 *    near-instant. Entries store the full key and are verified on
 *    load, so a file-name hash collision degrades to a cache miss,
 *    never a wrong result; an entry that fails to decode warns and
 *    is re-run and republished.
 *
 * Generic tasks (async()) run arbitrary work on the same pool for
 * the figures whose rows are not system runs (CACTI latency, the
 * predictor and allocation ablations, trace recording); they are
 * not cached, but their host time counts toward the wall and sim
 * seconds like any job's.
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
     *  1 is a one-worker pool. */
    unsigned threads = 0;
    /** On-disk cache directory; empty = SIPT_RUN_CACHE or off.
     *  "-" disables the disk cache even when the env var is set,
     *  and so does an armed SIPT_CHECK_MUTATE. */
    std::string cacheDir;
};

/** Aggregate engine counters (printed in the sipt-figures footer). */
struct SweepStats
{
    unsigned threads = 0;
    /** Cached sim jobs submitted (single + multicore). */
    std::uint64_t submitted = 0;
    /** Simulations actually executed (jobs, not groups). */
    std::uint64_t executed = 0;
    /** Executed jobs that ran as a non-first member of a
     *  same-stream group. */
    std::uint64_t grouped = 0;
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
    /** Summed simulation host seconds (CPU-side view); a group's
     *  seconds are credited to its members in equal shares. */
    double simSeconds = 0.0;

    /** Fraction of sim submissions served without a new run. */
    double hitRate() const;
    /** Submitted sim jobs (executed or served from a cache) per
     *  wall-clock second. */
    double jobsPerSec() const;
};

/**
 * The sweep engine's run-key and disk-cache codecs, exported for
 * tests and tooling.
 */

/** The run-cache key codec for a SystemConfig, and the only
 *  definition of which fields make an experiment: the memo and the
 *  disk tier both key on its bytes. Every field participates: it
 *  destructures SystemConfig, so a new field fails to compile
 *  until it is keyed. */
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

/**
 * The stream key: app, trace content hash and the StreamSpec of
 * @p config. Single-core jobs with equal stream keys run as one
 * runSameStream() group. Machine fields (outOfOrder, check, the L1,
 * policy and walker fields) stay outside it, because the Stream
 * reads none of them.
 */
std::string streamKeyJson(const std::string &app,
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

    unsigned threads() const { return threads_; }

    /**
     * Submit one single-core run. Returns immediately; the result
     * is memoized, deduplicated against identical in-flight
     * submissions, and served from the disk cache when possible.
     * On a miss the job joins an unstarted group with its stream
     * key, or posts a new one.
     */
    std::shared_future<RunResult>
    enqueue(const std::string &app, const SystemConfig &config);

    /** Submit one multiprogrammed runMulticore() job. */
    std::shared_future<MulticoreResult>
    enqueueMulticore(const std::vector<std::string> &mix,
                     const SystemConfig &config);

    /**
     * Run an arbitrary task on the pool (uncached). Figures whose
     * rows are not system runs use this; tasks must be
     * self-contained and deterministic.
     */
    template <typename F>
    auto
    async(F fn) -> std::shared_future<std::invoke_result_t<F>>
    {
        using T = std::invoke_result_t<F>;
        // The task is counted (with its host seconds) before its
        // future becomes ready, so a caller holding every result
        // also sees every task in stats().
        noteSubmitted(false);
        auto task = std::make_shared<std::packaged_task<T()>>(
            [this, fn = std::move(fn)]() mutable -> T {
                const auto start = hostNow();
                if constexpr (std::is_void_v<T>) {
                    fn();
                    noteGenericDone(start);
                } else {
                    T result = fn();
                    noteGenericDone(start);
                    return result;
                }
            });
        auto fut = task->get_future().share();
        post([this, task] { runGenericTraced([&] { (*task)(); }); });
        return fut;
    }

    /** Snapshot of the counters. */
    SweepStats stats() const;

    /** One-line footer summary (jobs/sec, hit rate). */
    void printStats(std::ostream &os) const;

  private:
    /** In-memory memo: canonical key string -> (possibly still
     *  running) result. */
    template <typename Result>
    using Memo =
        std::unordered_map<std::string, std::shared_future<Result>>;

    template <typename Result>
    using PromisePtr = std::shared_ptr<std::promise<Result>>;

    /** Single-core jobs run by one runSameStream() call. */
    struct Group;

    /**
     * The one submit path behind enqueue() and enqueueMulticore():
     * serve @p key_json from @p memo (a completed or in-flight
     * entry) or the disk tier, else hand a fresh promise to
     * @p schedule, which must eventually fulfil it.
     */
    template <typename Result>
    std::shared_future<Result>
    submit(Memo<Result> &memo, const std::string &key_json,
           const std::function<void(PromisePtr<Result>)> &schedule);

    /** Add one single-core job to the open group of
     *  @p stream_key, or post a new group. */
    void attachOrPost(const std::string &app,
                      const SystemConfig &config,
                      const std::string &key_json,
                      const std::string &stream_key,
                      PromisePtr<RunResult> promise);

    /** Worker side of a group: close it, run its members on one
     *  stream, then publish each member's result. */
    void runGroup(const std::shared_ptr<Group> &group,
                  const std::string &stream_key);

    /** Queue @p work for the pool's workers. */
    void post(std::function<void()> work);

    /** Run one generic task, emitting a wall-clock trace span
     *  around it when SIPT_TRACE is set (the clock reads live in
     *  sweep.cc, which owns the nondeterminism allowance). */
    void runGenericTraced(const std::function<void()> &work);

    /** The host clock behind every stats time (read in sweep.cc,
     *  which owns the nondeterminism allowance). */
    static std::chrono::steady_clock::time_point hostNow();

    /** Start the wall clock at the first submission of any kind;
     *  a @p sim_job (not a generic task) counts in submitted. */
    void noteSubmitted(bool sim_job);
    /** One generic task that started at @p start finished: its
     *  host seconds count toward simSeconds. */
    void noteGenericDone(std::chrono::steady_clock::time_point start);
    /** @p jobs finished in @p seconds of host time; @p grouped of
     *  them ran as non-first group members. */
    void noteJobsDone(std::uint64_t jobs, std::uint64_t grouped,
                      double seconds);

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
    /** Posted groups no worker has started, by stream key. */
    std::unordered_map<std::string, std::shared_ptr<Group>>
        openGroups_;
    SweepStats stats_;
    std::chrono::steady_clock::time_point firstSubmit_;
    std::chrono::steady_clock::time_point lastComplete_;
    bool anySubmitted_ = false;
};

} // namespace sipt::sim

#endif // SIPT_SIM_SWEEP_HH
