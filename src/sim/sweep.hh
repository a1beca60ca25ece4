/**
 * @file
 * The parallel sweep engine behind every figure of sipt-figures.
 *
 * A SweepRunner executes (app, SystemConfig) simulation jobs on a
 * std::thread pool sized by SIPT_THREADS (default: usableCpus(); 1 =
 * one worker). Every job runs on a
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
 * Jobs that share a stream key (the app or mix, trace hashes and
 * StreamSpec, under the job's kind) run as one group: one
 * runGroup() call conditions memory and generates and resolves the
 * streams once for all of them. A job whose memo and disk tiers
 * both miss attaches to a posted group with its stream key that no
 * worker has started yet, or else posts a new group; a started
 * group is closed. Grouping is only a scheduling choice: every
 * member's result, run key, memo and disk entry is exactly what a
 * solo run would produce. Jobs group at every thread count; with
 * one worker, every job queued behind a running one can still
 * attach.
 *
 * Every result the sweep serves, executed or read from disk, passes
 * the functional oracle (screen()) before it is stored or published.
 * Speculation may change when an access completes, never what the
 * L1 does, so at one stream and one L1 geometry every indexing
 * policy must produce the same functional events, however the jobs
 * grouped and whichever tier served them.
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
 *
 * This file is also the home of the only other host threads the
 * simulator starts: a group run's stream thread and memory thread
 * (StreamThread, runGroup()). A worker's group gets a stream thread
 * as a lone run does, when the process has two usable CPUs (a pool
 * as large as the host measured the same with every group threaded
 * as with every group inline), but never a memory thread: the
 * workers already keep every CPU busy, and a third thread per group
 * measured slower (DESIGN.md, "Three host threads per lone run").
 */

#ifndef SIPT_SIM_SWEEP_HH
#define SIPT_SIM_SWEEP_HH

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/json.hh"
#include "batch/pipeline.hh"
#include "cpu/ref_batch.hh"
#include "sim/system.hh"

namespace sipt::sim
{

/**
 * The CPUs this process may run on: the size of its affinity mask
 * (taskset, cpusets), or, where that cannot be read, every online
 * hardware thread. At least 1.
 */
unsigned usableCpus();

/**
 * The host threads of one group run (runGroup()) besides the
 * caller: a stream thread that runs the stream stages ahead of the
 * caller, and optionally a memory thread between the two that runs
 * every machine's memory stage. They hand resolved batches, and
 * then their memory records, through one bounded ring with three
 * cursors: published (by the stream thread), recorded (by the
 * memory thread) and consumed (by the caller).
 *
 * The stream thread fills slots in order (claim(), publish()); the
 * memory thread, if any, records them in the same order
 * (memoryNext()); the caller reads them in the same order
 * (front(), pop(), or Batches). A waiting end spins for a few
 * microseconds and then blocks on std::atomic wait/notify, because
 * the host may have no CPU to spare for a spinner. A full ring
 * wakes the stream thread only once half of it is free again, so a
 * fast stream costs one wake-up per few batches.
 *
 * An exception thrown on the stream or memory thread is published
 * in place of the batch it was producing, and front() rethrows it
 * on the caller at that batch. The destructor cancels the threads
 * still running and joins them, so no thread outlives the object.
 */
class StreamThread
{
  public:
    /** Batches in flight between the threads. */
    static constexpr std::uint32_t ringSize = 8;

    /** One batch in flight: the stream stages' output, each
     *  machine's memory record when there is a memory thread, or
     *  the exception published in their place. */
    struct Slot
    {
        cpu::RefBatch batch;
        std::vector<batch::MemoryRecord> records;
        std::exception_ptr error;
    };

    /**
     * Start a thread that runs @p produce(*this) and, when
     * @p memory is non-empty, a second one that runs
     * @p memory(*this) over slots of @p lanes memory records each.
     * Throws std::system_error when a thread cannot be started.
     */
    explicit StreamThread(std::function<void(StreamThread &)> produce,
                          std::function<void(StreamThread &)> memory =
                              {},
                          std::size_t lanes = 0);
    ~StreamThread();

    StreamThread(const StreamThread &) = delete;
    StreamThread &operator=(const StreamThread &) = delete;

    /** Stream thread: the next slot to fill, blocking while the
     *  ring is full. Unwinds the producer once the caller has given
     *  up on the run. */
    cpu::RefBatch &claim();

    /** Stream thread: hand the claimed slot on. */
    void publish();

    /**
     * Memory thread: run the memory stage of @p machines over the
     * oldest published batch not yet recorded, machine j into
     * record j, and hand it to the caller; blocks until there is
     * one. Returns the batch's size. A slot that carries the
     * stream's exception is passed on instead, and the memory
     * thread unwinds.
     */
    std::size_t
    memoryNext(std::span<batch::MachineStages *const> machines);

    /** Caller: the oldest slot ready for it (published, and
     *  recorded when there is a memory thread), blocking until
     *  there is one; rethrows a thread's exception in its place. */
    const Slot &front();

    /** Caller: give front()'s slot back to the stream thread. */
    void pop();

    /** The caller's end of the ring as the batches of
     *  batch::runPhase(): with a memory thread, each batch comes
     *  with every machine's memory record. */
    class Batches
    {
      public:
        explicit Batches(StreamThread &ring) : ring_(ring) {}

        const cpu::RefBatch &
        take(std::size_t)
        {
            slot_ = &ring_.front();
            return slot_->batch;
        }

        const batch::MemoryRecord *
        records() const
        {
            return ring_.ready_ == &ring_.mid_ ? slot_->records.data()
                                               : nullptr;
        }

        void release() { ring_.pop(); }

      private:
        StreamThread &ring_;
        const Slot *slot_ = nullptr;
    };

  private:
    /** Thrown by a blocking call to unwind a cancelled thread. */
    struct Cancelled
    {
    };

    /** claim(), whole slot. */
    Slot &claimSlot();
    /** Memory thread: hand the oldest published slot on to the
     *  caller. */
    void recorded();
    /** Block until @p cursor differs from @p seen; unwinds a
     *  cancelled thread. */
    void awaitPast(const std::atomic<std::uint32_t> &cursor,
                   std::uint32_t seen);
    /** Cancel and join the threads started so far. */
    void stop();

    std::vector<Slot> ring_;
    /** Slots published (written by the stream thread only, except
     *  that cancelling bumps it to wake a waiting memory thread). */
    alignas(64) std::atomic<std::uint32_t> head_{0};
    /** Slots recorded (written by the memory thread only). */
    alignas(64) std::atomic<std::uint32_t> mid_{0};
    /** Slots given back (written by the caller only, except that
     *  cancelling bumps it to wake a waiting producer). */
    alignas(64) std::atomic<std::uint32_t> tail_{0};
    /** The cursor the caller reads up to: mid_ with a memory
     *  thread, else head_. */
    std::atomic<std::uint32_t> *ready_ = &head_;
    std::atomic<bool> cancelled_{false};
    /** Last, so that they start after the ring exists. */
    std::thread stream_;
    std::thread memory_;
};

/** Construction-time knobs; fields left at defaults read the
 *  corresponding environment variable. */
struct SweepOptions
{
    /** Worker count; 0 = SIPT_THREADS or usableCpus(). 1 is a
     *  one-worker pool. */
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
    /** Cores, over executed runs and disk hits, with a recorded
     *  check failure (RunResult::checkFailure), the functional
     *  oracle's included. */
    std::uint64_t checkFailures = 0;
    /** The run key of the first of them, or empty. */
    std::string firstCheckFailure;
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
 * The single-core stream key: app, trace content hash and the
 * StreamSpec of @p config. Single-core jobs with equal stream keys
 * run as one runGroup() call. Machine fields (outOfOrder, check,
 * the L1, policy and walker fields) stay outside it, because the
 * Stream reads none of them.
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

    /** Submit one multiprogrammed runMulticore() job: cached and
     *  grouped like enqueue(), by the mix's stream key. */
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

    /** One-line footer summary (jobs/sec, hit rate, and any check
     *  failures). */
    void printStats(std::ostream &os) const;

  private:
    /** In-memory memo: canonical key string -> (possibly still
     *  running) result. */
    template <typename Result>
    using Memo =
        std::unordered_map<std::string, std::shared_future<Result>>;

    template <typename Result>
    using PromisePtr = std::shared_ptr<std::promise<Result>>;

    /** Jobs run by one runGroup() call. */
    struct Group;

    /** The functional oracle's reference at one stream and L1
     *  geometry: the first clean checked result served there, with
     *  each core's fingerprintOf() (sweep.cc). */
    struct Reference
    {
        std::string runKey;
        IndexingPolicy policy = IndexingPolicy::Vipt;
        std::vector<std::array<std::uint64_t, 10>> cores;
    };

    /**
     * The one submit path behind enqueue() and enqueueMulticore():
     * serve @p key_json from @p memo (a completed or in-flight
     * entry) or the disk tier, else add the job to the open group
     * of @p stream_key, or post a new group.
     */
    template <typename Result>
    std::shared_future<Result>
    submit(Memo<Result> &memo, JobKind kind,
           const std::vector<std::string> &apps,
           const SystemConfig &config, const std::string &key_json,
           const std::string &stream_key);

    /** Worker side of a group: close it, run its members on one
     *  set of streams, then publish each member's result. */
    void execute(const std::shared_ptr<Group> &group,
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
    /**
     * The functional oracle: the one place that decides what must
     * be policy-invariant. @p cores, served under @p key_json, ran
     * @p config on the streams of @p stream_key. The first checked
     * result without a recorded failure at (stream key,
     * l1Geometry()) becomes its reference; a later clean core that
     * differs records a checkFailure naming both policies and the
     * reference's run key. Recorded failures count in
     * SweepStats::checkFailures.
     */
    void screen(const std::string &key_json,
                const std::string &stream_key,
                const SystemConfig &config, std::span<RunResult> cores);
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
    /** The functional oracle's references, by stream key and L1
     *  geometry. */
    std::unordered_map<std::string, Reference> references_;
    SweepStats stats_;
    std::chrono::steady_clock::time_point firstSubmit_;
    std::chrono::steady_clock::time_point lastComplete_;
    bool anySubmitted_ = false;
};

} // namespace sipt::sim

#endif // SIPT_SIM_SWEEP_HH
