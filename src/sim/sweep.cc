#include "sim/sweep.hh"

// The steady_clock reads below time the engine itself (wall-clock
// and per-job seconds in the footer); no clock value ever
// reaches simulation state, so results stay a pure function of
// (app, SystemConfig).
// sipt-analyze: allow-file(nondeterminism)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <variant>

#include <sched.h>

#include "check/options.hh"
#include "common/env.hh"
#include "common/fsio.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/trace.hh"
#include "workload/trace_format.hh"

namespace sipt::sim
{

namespace
{

/** Common origin for wall-clock trace spans, fixed on first use so
 *  span timestamps are small positive microsecond offsets. */
std::chrono::steady_clock::time_point
traceEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

/** Microseconds from the trace epoch to @p tp. */
double
traceUs(std::chrono::steady_clock::time_point tp)
{
    return std::chrono::duration<double, std::micro>(
               tp - traceEpoch())
        .count();
}

/** Display lane for the calling worker thread's wall-clock spans.
 *  A hash keeps the tracer free of std::thread dependencies. */
std::uint64_t
traceWorkerLane()
{
    return std::hash<std::thread::id>{}(
               std::this_thread::get_id()) &
           0xffff;
}

/** Emit a pid-0 span named @p name over [@p t0, @p t1] on the
 *  calling worker's lane, when SIPT_TRACE is set. */
void
traceJobSpan(const std::string &name,
             std::chrono::steady_clock::time_point t0,
             std::chrono::steady_clock::time_point t1)
{
    if (trace::Tracer *tracer = trace::Tracer::globalIfEnabled()) {
        tracer->span("sweep", name, traceWorkerLane(), traceUs(t0),
                     traceUs(t1) - traceUs(t0));
    }
}

/** Bump when the serialised key/result layout changes; stale
 *  cache files then simply miss instead of mis-parsing.
 *  v3: trace-app content hashes joined the key.
 *  v4: VIVT strawman counters joined RunResult.
 *  v5: xlatPredEntries joined the key; huge-page outcome counters
 *      joined RunResult's L1Stats. */
constexpr std::uint64_t cacheFormatVersion = 5;

unsigned
threadsFromEnv()
{
    // Strict parse: "8x" used to silently run with 8 threads and
    // "-1" with ULONG_MAX's truncation; both now warn and fall
    // back to the usable CPUs.
    return static_cast<unsigned>(
        envU64("SIPT_THREADS", usableCpus(), 1, 4096));
}

std::string
cacheDirFromEnv()
{
    if (const char *env = std::getenv("SIPT_RUN_CACHE"))
        return env;
    return "";
}

/**
 * True when @p j has exactly @p shape's members (in any order),
 * each with a compatible type — an integer also stands for a
 * double, and arrays only need to be arrays. On a mismatch
 * @p where names the innermost offending member, if any. The
 * result decoders check this first, so their get()/as*() calls
 * cannot panic on a malformed cache entry.
 */
bool
sameShape(const Json &j, const Json &shape, std::string &where)
{
    if (shape.isObject()) {
        if (!j.isObject())
            return false;
        for (std::size_t i = 0; i < shape.size(); ++i) {
            const auto &[name, member] = shape.member(i);
            const Json *v = j.find(name);
            if (v == nullptr || !sameShape(*v, member, where)) {
                if (where.empty())
                    where = name;
                return false;
            }
        }
        return j.size() == shape.size();
    }
    if (shape.isDouble())
        return j.isNumber();
    if (shape.isUint())
        return j.isUint();
    if (shape.isString())
        return j.isString();
    if (shape.isArray())
        return j.isArray();
    return shape.isBool() && j.isBool();
}

/**
 * The result coders reach each struct's members through one
 * visitor per struct, which binds every member by position and
 * names it in the JSON member order the disk cache was written in.
 * The encoder and the strict decoder share that one list, so they
 * cannot disagree, and a member added to the struct fails to
 * compile here until it is named.
 */
template <typename Energy, typename Visit>
void
visitEnergy(Energy &e, Visit &&visit)
{
    auto &[l1Dynamic, l2Dynamic, llcDynamic, l1Static, l2Static,
           llcStatic] = e;
    visit("l1Dynamic", l1Dynamic);
    visit("l2Dynamic", l2Dynamic);
    visit("llcDynamic", llcDynamic);
    visit("l1Static", l1Static);
    visit("l2Static", l2Static);
    visit("llcStatic", llcStatic);
}

template <typename Stats, typename Visit>
void
visitL1Stats(Stats &s, Visit &&visit)
{
    auto &[accesses, loads, stores, hits, misses, writebacks,
           fastAccesses, slowAccesses, extraArrayAccesses,
           arrayAccesses, weightedArrayAccesses, hugeAccesses,
           hugeReplays, hugeBypassLosses, spec] = s;
    visit("accesses", accesses);
    visit("loads", loads);
    visit("stores", stores);
    visit("hits", hits);
    visit("misses", misses);
    visit("writebacks", writebacks);
    visit("fastAccesses", fastAccesses);
    visit("slowAccesses", slowAccesses);
    visit("extraArrayAccesses", extraArrayAccesses);
    visit("arrayAccesses", arrayAccesses);
    visit("weightedArrayAccesses", weightedArrayAccesses);
    visit("hugeAccesses", hugeAccesses);
    visit("hugeReplays", hugeReplays);
    visit("hugeBypassLosses", hugeBypassLosses);
    // The speculation outcomes sit flat in the L1 object.
    auto &[correctSpeculation, correctBypass, opportunityLoss,
           extraAccess, idbHit] = spec;
    visit("correctSpeculation", correctSpeculation);
    visit("correctBypass", correctBypass);
    visit("opportunityLoss", opportunityLoss);
    visit("extraAccess", extraAccess);
    visit("idbHit", idbHit);
}

template <typename Result, typename Visit>
void
visitRunResult(Result &r, Visit &&visit)
{
    auto &[app, ipc, cycles, instructions, l1, l1HitRate, fastFraction,
           energy, hugeCoverage, wayPredAccuracy, dtlbHitRate,
           pageWalks, l1Mpki, checkDigest, checkEvents, checkFailure,
           vivtReverseProbes, vivtInvalidations, vivtDirtyForwards] = r;
    visit("app", app);
    visit("ipc", ipc);
    visit("cycles", cycles);
    visit("instructions", instructions);
    visit("l1", l1);
    visit("l1HitRate", l1HitRate);
    visit("fastFraction", fastFraction);
    visit("energy", energy);
    visit("hugeCoverage", hugeCoverage);
    visit("wayPredAccuracy", wayPredAccuracy);
    visit("dtlbHitRate", dtlbHitRate);
    visit("pageWalks", pageWalks);
    visit("l1Mpki", l1Mpki);
    visit("checkDigest", checkDigest);
    visit("checkEvents", checkEvents);
    visit("checkFailure", checkFailure);
    visit("vivtReverseProbes", vivtReverseProbes);
    visit("vivtInvalidations", vivtInvalidations);
    visit("vivtDirtyForwards", vivtDirtyForwards);
}

/** Visitor that sets each member on one JSON object; nested
 *  structs become nested objects. */
struct Encoder
{
    Json j = Json::object();

    template <typename T>
    void
    operator()(const char *name, const T &v)
    {
        j.set(name, v);
    }

    void
    operator()(const char *name, const L1Stats &s)
    {
        Encoder nested;
        visitL1Stats(s, nested);
        j.set(name, std::move(nested.j));
    }

    void
    operator()(const char *name, const energy::EnergyBreakdown &e)
    {
        Encoder nested;
        visitEnergy(e, nested);
        j.set(name, std::move(nested.j));
    }
};

/** Visitor that reads each member back from @p j, which sameShape()
 *  has already checked against the encoder's output. */
struct Decoder
{
    const Json &j;

    void
    operator()(const char *name, std::uint64_t &v) const
    {
        v = j.get(name).asUint();
    }

    void
    operator()(const char *name, double &v) const
    {
        v = j.get(name).asDouble();
    }

    void
    operator()(const char *name, std::string &v) const
    {
        v = j.get(name).asString();
    }

    void
    operator()(const char *name, L1Stats &s) const
    {
        visitL1Stats(s, Decoder{j.get(name)});
    }

    void
    operator()(const char *name, energy::EnergyBreakdown &e) const
    {
        visitEnergy(e, Decoder{j.get(name)});
    }
};

/**
 * Content hash of the trace file behind a "trace:<path>" app,
 * 0 for synthetic apps. Recomputed at every enqueue so an edited
 * trace keys differently — the cache can never serve a result for
 * bytes that are no longer on disk (content, not mtime).
 */
std::uint64_t
traceHashFor(const std::string &app)
{
    return isTraceApp(app)
               ? workload::traceContentHash(traceAppPath(app))
               : 0;
}

} // namespace

Json
configToJson(const SystemConfig &config)
{
    // One binding per field: a new SystemConfig field fails to
    // compile here until it is keyed.
    const auto &[outOfOrder, l1Config, l1SizeBytes, l1Assoc,
                 l1HitLatency, policy, xlatPredEntries, wayPrediction,
                 radixWalker, condition, physMemBytes, warmupRefs,
                 measureRefs, seed, footprintScale, check] = config;
    Json j = Json::object();
    j.set("outOfOrder", outOfOrder);
    j.set("l1Config",
          std::uint64_t{static_cast<std::uint8_t>(l1Config)});
    j.set("l1SizeBytes", l1SizeBytes);
    j.set("l1Assoc", std::uint64_t{l1Assoc});
    j.set("l1HitLatency", l1HitLatency);
    j.set("policy", std::uint64_t{static_cast<std::uint8_t>(policy)});
    j.set("xlatPredEntries", std::uint64_t{xlatPredEntries});
    j.set("wayPrediction", wayPrediction);
    j.set("radixWalker", radixWalker);
    j.set("condition",
          std::uint64_t{static_cast<std::uint8_t>(condition)});
    j.set("physMemBytes", physMemBytes);
    j.set("warmupRefs", warmupRefs);
    j.set("measureRefs", measureRefs);
    j.set("seed", seed);
    j.set("footprintScale", footprintScale);
    j.set("check", check);
    return j;
}

Json
runResultToJson(const RunResult &r)
{
    Encoder out;
    visitRunResult(r, out);
    return std::move(out.j);
}

std::optional<RunResult>
runResultFromJson(const Json &j, std::string &error)
{
    std::string where;
    if (!sameShape(j, runResultToJson(RunResult{}), where)) {
        error = "malformed result at \"" + where + "\"";
        return std::nullopt;
    }
    RunResult r;
    visitRunResult(r, Decoder{j});
    return r;
}

namespace
{

/** Disk-cache JSON of either result type. */
Json
resultToJson(const RunResult &r)
{
    return runResultToJson(r);
}

Json
resultToJson(const MulticoreResult &r)
{
    // Bound, not visited: a per-core entry can fail to decode, and
    // the decoder below reports that rather than panicking.
    const auto &[perCore, sumIpc, energy] = r;
    Encoder out;
    Json per = Json::array();
    for (const auto &core : perCore)
        per.push(runResultToJson(core));
    out.j.set("perCore", std::move(per));
    out("sumIpc", sumIpc);
    out("energy", energy);
    return std::move(out.j);
}

std::optional<MulticoreResult>
multiResultFromJson(const Json &j, std::string &error)
{
    std::string where;
    if (!sameShape(j, resultToJson(MulticoreResult{}), where)) {
        error = "malformed multicore result at \"" + where + "\"";
        return std::nullopt;
    }
    MulticoreResult r;
    auto &[perCore, sumIpc, energy] = r;
    const Json &per = j.get("perCore");
    for (std::size_t i = 0; i < per.size(); ++i) {
        auto core = runResultFromJson(per.at(i), error);
        if (!core)
            return std::nullopt;
        perCore.push_back(std::move(*core));
    }
    const Decoder in{j};
    in("sumIpc", sumIpc);
    in("energy", energy);
    return r;
}

/** Cache entry file name for @p key_json. */
std::string
entryName(const std::string &key_json, bool multicore)
{
    char name[64];
    std::snprintf(name, sizeof(name), "%s%016llx.json",
                  multicore ? "multi-" : "run-",
                  static_cast<unsigned long long>(
                      fnv1a64(key_json)));
    return name;
}

/** The StreamSpec half of @p config, as the stream keys hold it. */
Json
streamSpecJson(const SystemConfig &config)
{
    // One binding per field: a new StreamSpec field fails to
    // compile here until it is keyed.
    const auto [condition, physMemBytes, warmupRefs, measureRefs, seed,
                footprintScale] = streamSpec(config);
    Json stream = Json::object();
    stream.set("condition",
               std::uint64_t{static_cast<std::uint8_t>(condition)});
    stream.set("physMemBytes", physMemBytes);
    stream.set("warmupRefs", warmupRefs);
    stream.set("measureRefs", measureRefs);
    stream.set("seed", seed);
    stream.set("footprintScale", footprintScale);
    return stream;
}

/** A single job's key: @p kind ("single" for the run key, "stream"
 *  for the stream key), the app, its trace content hash, and
 *  @p body under @p member. */
std::string
singleKeyJson(const char *kind, const std::string &app,
              std::uint64_t trace_hash, const char *member, Json body)
{
    Json j = Json::object();
    j.set("kind", kind);
    j.set("app", app);
    j.set("traceHash", trace_hash);
    j.set(member, std::move(body));
    return j.dump();
}

/** A mix's key, run key and stream key alike: the kind, the mix,
 *  each app's trace content hash, and @p body under @p member. */
std::string
mixKeyJson(const std::vector<std::string> &mix,
           const std::vector<std::uint64_t> &trace_hashes,
           const char *member, Json body)
{
    Json j = Json::object();
    j.set("kind", "multi");
    Json apps = Json::array();
    Json hashes = Json::array();
    for (std::size_t c = 0; c < mix.size(); ++c) {
        apps.push(mix[c]);
        hashes.push(trace_hashes[c]);
    }
    j.set("mix", std::move(apps));
    j.set("traceHashes", std::move(hashes));
    j.set(member, std::move(body));
    return j.dump();
}

/** The cores of @p result: a single job's one, or a mix's. */
std::span<RunResult>
coresOf(RunResult &result)
{
    return {&result, 1};
}

std::span<RunResult>
coresOf(MulticoreResult &result)
{
    return result.perCore;
}

/** The functional fingerprint's members, in fingerprintOf()'s
 *  order. */
constexpr std::array<const char *, 10> fingerprintNames = {
    "digest", "events", "hits", "misses", "writebacks", "loads",
    "stores", "vivtReverseProbes", "vivtInvalidations",
    "vivtDirtyForwards"};

/**
 * What one core did functionally in its measured phase: the
 * checker's event digest and count, the L1's hit, miss, writeback,
 * load and store counts, and the VIVT strawman's bookkeeping, which
 * the checker feeds from the same events. Physical tags make all of
 * it independent of the indexing policy at one stream and L1
 * geometry.
 */
std::array<std::uint64_t, 10>
fingerprintOf(const RunResult &r)
{
    return {r.checkDigest, r.checkEvents, r.l1.hits, r.l1.misses,
            r.l1.writebacks, r.l1.loads, r.l1.stores,
            r.vivtReverseProbes, r.vivtInvalidations,
            r.vivtDirtyForwards};
}

/** The part of a group's result that member promise @p promise
 *  expects: a single job's one core, or the whole mix. */
RunResult &
memberResult(const std::shared_ptr<std::promise<RunResult>> &,
             MulticoreResult &job)
{
    return job.perCore.front();
}

MulticoreResult &
memberResult(const std::shared_ptr<std::promise<MulticoreResult>> &,
             MulticoreResult &job)
{
    return job;
}

} // namespace

std::string
runKeyJson(const std::string &app, const SystemConfig &config)
{
    return singleKeyJson("single", app, traceHashFor(app), "config",
                         configToJson(config));
}

std::string
streamKeyJson(const std::string &app, const SystemConfig &config)
{
    return singleKeyJson("stream", app, traceHashFor(app), "stream",
                         streamSpecJson(config));
}

double
SweepStats::hitRate() const
{
    return submitted ? static_cast<double>(memoHits + diskHits +
                                           inflightShares) /
                           static_cast<double>(submitted)
                     : 0.0;
}

double
SweepStats::jobsPerSec() const
{
    return wallSeconds > 0.0
               ? static_cast<double>(submitted) / wallSeconds
               : 0.0;
}

unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        if (const int n = CPU_COUNT(&set); n > 0)
            return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

StreamThread::StreamThread(std::function<void(StreamThread &)> produce,
                           std::function<void(StreamThread &)> memory,
                           std::size_t lanes)
    : ring_(ringSize)
{
    for (Slot &slot : ring_)
        slot.records.resize(lanes);
    if (memory)
        ready_ = &mid_;
    stream_ = std::thread([this, produce = std::move(produce)] {
        try {
            produce(*this);
        } catch (const Cancelled &) {
        } catch (...) {
            // Published like a batch, in the next free slot, so the
            // caller meets it exactly where the stream failed.
            const std::exception_ptr error = std::current_exception();
            try {
                claimSlot().error = error;
            } catch (const Cancelled &) {
                return;
            }
            publish();
        }
    });
    if (!memory)
        return;
    try {
        memory_ = std::thread([this, memory = std::move(memory)] {
            try {
                memory(*this);
            } catch (const Cancelled &) {
            } catch (...) {
                // In place of the batch it was recording, unless
                // that batch already carries the stream's error.
                const std::exception_ptr error =
                    std::current_exception();
                const std::uint32_t mid =
                    mid_.load(std::memory_order_relaxed);
                try {
                    awaitPast(head_, mid);
                } catch (const Cancelled &) {
                    return;
                }
                Slot &slot = ring_[mid % ringSize];
                if (!slot.error)
                    slot.error = error;
                recorded();
            }
        });
    } catch (...) {
        stop();
        throw;
    }
}

StreamThread::~StreamThread() { stop(); }

void
StreamThread::stop()
{
    // Wake every thread still waiting: each waits for a cursor to
    // change, so change them. A thread that sees a bumped cursor
    // also sees cancelled_, set before it, and unwinds instead of
    // touching a slot.
    cancelled_.store(true);
    tail_.fetch_add(1);
    tail_.notify_one();
    head_.fetch_add(1);
    head_.notify_one();
    if (stream_.joinable())
        stream_.join();
    if (memory_.joinable())
        memory_.join();
}

namespace
{

/** How long a waiting end of a StreamThread ring spins before it
 *  blocks: long enough to catch a batch that is about to arrive,
 *  too short to matter when no CPU is to spare. */
constexpr std::chrono::microseconds ringSpin{3};

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

} // namespace

void
StreamThread::awaitPast(const std::atomic<std::uint32_t> &cursor,
                        std::uint32_t seen)
{
    const auto until = std::chrono::steady_clock::now() + ringSpin;
    bool spun = false;
    while (cursor.load() == seen) {
        if (!spun) {
            for (int i = 0; i < 16 && cursor.load() == seen; ++i)
                cpuRelax();
            spun = std::chrono::steady_clock::now() >= until;
        } else {
            cursor.wait(seen);
        }
    }
    if (cancelled_.load())
        throw Cancelled{};
}

StreamThread::Slot &
StreamThread::claimSlot()
{
    const std::uint32_t head = head_.load();
    std::uint32_t tail = tail_.load();
    if (cancelled_.load())
        throw Cancelled{};
    if (head - tail == ringSize) {
        // Full: sleep until half the ring is free again (pop()
        // notifies from then on), not until the first free slot.
        do {
            tail_.wait(tail);
            tail = tail_.load();
            if (cancelled_.load())
                throw Cancelled{};
        } while (head - tail > ringSize / 2);
    }
    return ring_[head % ringSize];
}

cpu::RefBatch &
StreamThread::claim()
{
    return claimSlot().batch;
}

void
StreamThread::publish()
{
    head_.fetch_add(1);
    head_.notify_one();
}

std::size_t
StreamThread::memoryNext(std::span<batch::MachineStages *const> machines)
{
    const std::uint32_t mid = mid_.load(std::memory_order_relaxed);
    awaitPast(head_, mid);
    Slot &slot = ring_[mid % ringSize];
    if (slot.error) {
        // The stream failed here: the caller meets its error at
        // this batch, and there is nothing more to record.
        recorded();
        throw Cancelled{};
    }
    for (std::size_t j = 0; j < machines.size(); ++j)
        machines[j]->memory(slot.batch, slot.records[j]);
    const std::size_t size = slot.batch.size;
    recorded();
    return size;
}

void
StreamThread::recorded()
{
    mid_.fetch_add(1);
    mid_.notify_one();
}

const StreamThread::Slot &
StreamThread::front()
{
    const std::uint32_t tail = tail_.load(std::memory_order_relaxed);
    awaitPast(*ready_, tail);
    const Slot &slot = ring_[tail % ringSize];
    if (slot.error)
        std::rethrow_exception(slot.error);
    return slot;
}

void
StreamThread::pop()
{
    const std::uint32_t tail = tail_.load(std::memory_order_relaxed) + 1;
    tail_.store(tail);
    // Sequentially consistent with claim()'s loads: either the
    // producer sees this slot free or this sees its last publish,
    // so a producer asleep on a full ring is woken here once it is
    // half empty.
    if (head_.load() - tail <= ringSize / 2)
        tail_.notify_one();
}

SweepRunner::SweepRunner(const SweepOptions &options)
{
    threads_ =
        options.threads ? options.threads : threadsFromEnv();
    cacheDir_ = options.cacheDir.empty() ? cacheDirFromEnv()
                                         : options.cacheDir;
    if (cacheDir_ == "-")
        cacheDir_.clear();
    // A mutated run's results are wrong on purpose: they must
    // neither reach the clean keys' entries nor be masked by them.
    const bool mutated = check::Options::fromEnv(false).mutation !=
                         check::Mutation::None;
    if (mutated && !cacheDir_.empty()) {
        warn("sweep: SIPT_CHECK_MUTATE is set; run cache '", cacheDir_,
             "' neither read nor written");
        cacheDir_.clear();
    }
    if (!cacheDir_.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cacheDir_, ec);
        if (ec) {
            warn("sweep: cannot create run-cache dir '", cacheDir_,
                 "' (", ec.message(), "); disk cache disabled");
            cacheDir_.clear();
        }
    }
    // Open (and truncate) any SIPT_TRACE file now: a run whose jobs
    // are all cache hits traces nothing, and must still not leave
    // the previous run's trace in place.
    trace::Tracer::global();
    stats_.threads = threads_;
    workers_.reserve(threads_);
    for (unsigned t = 0; t < threads_; ++t) {
        workers_.emplace_back([this] {
            for (;;) {
                std::function<void()> work;
                {
                    std::unique_lock lock(poolMu_);
                    poolCv_.wait(lock, [this] {
                        return stop_ || !queue_.empty();
                    });
                    if (stop_ && queue_.empty())
                        return;
                    work = std::move(queue_.front());
                    queue_.pop_front();
                }
                work();
            }
        });
    }
}

SweepRunner::~SweepRunner()
{
    {
        std::lock_guard lock(poolMu_);
        stop_ = true;
    }
    poolCv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
SweepRunner::post(std::function<void()> work)
{
    {
        std::lock_guard lock(poolMu_);
        queue_.push_back(std::move(work));
    }
    poolCv_.notify_one();
}

void
SweepRunner::runGenericTraced(const std::function<void()> &work)
{
    trace::Tracer *tracer = trace::Tracer::globalIfEnabled();
    if (!tracer) {
        work();
        return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    work();
    const auto t1 = std::chrono::steady_clock::now();
    tracer->span("sweep", "task", traceWorkerLane(), traceUs(t0),
                 traceUs(t1) - traceUs(t0));
}

std::chrono::steady_clock::time_point
SweepRunner::hostNow()
{
    return std::chrono::steady_clock::now();
}

void
SweepRunner::noteSubmitted(bool sim_job)
{
    std::lock_guard lock(cacheMu_);
    if (!anySubmitted_) {
        anySubmitted_ = true;
        firstSubmit_ = hostNow();
    }
    if (sim_job)
        ++stats_.submitted;
}

void
SweepRunner::noteGenericDone(std::chrono::steady_clock::time_point start)
{
    const auto end = hostNow();
    std::lock_guard lock(cacheMu_);
    ++stats_.genericTasks;
    stats_.simSeconds +=
        std::chrono::duration<double>(end - start).count();
    lastComplete_ = end;
}

void
SweepRunner::screen(const std::string &key_json,
                    const std::string &stream_key,
                    const SystemConfig &config,
                    std::span<RunResult> cores)
{
    // config.check arms every checking layer: an unchecked result
    // has no fingerprint and no recorded failure.
    if (!config.check)
        return;
    const cache::CacheGeometry g = l1Geometry(config);
    const std::string at = stream_key + " l1=" +
                           std::to_string(g.sizeBytes) + "/" +
                           std::to_string(g.assoc) + "/" +
                           std::to_string(g.lineBytes);
    const auto failed = [](const RunResult &r) {
        return !r.checkFailure.empty();
    };
    auto failures = static_cast<std::uint64_t>(
        std::count_if(cores.begin(), cores.end(), failed));
    std::lock_guard lock(cacheMu_);
    const auto ref = references_.find(at);
    if (ref == references_.end()) {
        if (failures == 0) {
            Reference &first = references_[at];
            first.runKey = key_json;
            first.policy = config.policy;
            for (const RunResult &core : cores)
                first.cores.push_back(fingerprintOf(core));
        }
    } else {
        // A mix has the same cores under one stream key, unless a
        // hand-edited disk entry says otherwise.
        const Reference &want = ref->second;
        const std::size_t n = std::min(cores.size(), want.cores.size());
        for (std::size_t c = 0; c < n; ++c) {
            const auto got = fingerprintOf(cores[c]);
            if (failed(cores[c]) || got == want.cores[c])
                continue;
            const auto f = static_cast<std::size_t>(
                std::mismatch(got.begin(), got.end(),
                              want.cores[c].begin())
                    .first -
                got.begin());
            std::ostringstream what;
            what << "functional mismatch at one stream and L1 "
                    "geometry: core "
                 << c << " " << fingerprintNames[f] << " "
                 << policyName(config.policy) << " " << got[f]
                 << " vs " << policyName(want.policy) << " "
                 << want.cores[c][f] << " (reference " << want.runKey
                 << ")";
            cores[c].checkFailure = what.str();
            ++failures;
        }
    }
    if (failures == 0)
        return;
    if (stats_.checkFailures == 0)
        stats_.firstCheckFailure = key_json;
    stats_.checkFailures += failures;
}

void
SweepRunner::noteJobsDone(std::uint64_t jobs, std::uint64_t grouped,
                          double seconds)
{
    std::lock_guard lock(cacheMu_);
    stats_.executed += jobs;
    stats_.grouped += grouped;
    stats_.simSeconds += seconds;
    lastComplete_ = std::chrono::steady_clock::now();
}

template <typename Result>
std::optional<Result>
SweepRunner::loadFromDisk(const std::string &key_json)
{
    if (cacheDir_.empty())
        return std::nullopt;
    const std::filesystem::path path =
        std::filesystem::path(cacheDir_) /
        entryName(key_json, std::is_same_v<Result, MulticoreResult>);
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();

    const auto entry = Json::parse(buf.str());
    const Json *version = entry ? entry->find("version") : nullptr;
    const Json *key = entry ? entry->find("key") : nullptr;
    const Json *result = entry ? entry->find("result") : nullptr;
    // "sum" guards the result bytes.
    const Json *sum = entry ? entry->find("sum") : nullptr;
    std::string error;
    std::optional<Result> decoded;
    if (!version || !key || !result || !sum || entry->size() != 4 ||
        !version->isUint()) {
        error = "not a cache entry";
    } else if (version->asUint() != cacheFormatVersion ||
               key->dump() != key_json) {
        // Another format version, or a 64-bit file-name collision:
        // a clean miss, never someone else's result.
        return std::nullopt;
    } else if (!sum->isUint() ||
               sum->asUint() != fnv1a64(result->dump())) {
        error = "result checksum mismatch";
    } else if constexpr (std::is_same_v<Result, MulticoreResult>) {
        decoded = multiResultFromJson(*result, error);
    } else {
        decoded = runResultFromJson(*result, error);
    }
    if (!decoded) {
        warn("sweep: ignoring cache entry ", path.string(), " (",
             error, ")");
        return std::nullopt;
    }
    std::lock_guard lock(cacheMu_);
    ++stats_.diskHits;
    lastComplete_ = std::chrono::steady_clock::now();
    return decoded;
}

template <typename Result>
void
SweepRunner::storeToDisk(const std::string &key_json,
                         const Result &result)
{
    if (cacheDir_.empty())
        return;
    const std::filesystem::path path =
        std::filesystem::path(cacheDir_) /
        entryName(key_json, std::is_same_v<Result, MulticoreResult>);

    const Json result_json = resultToJson(result);
    Json entry = Json::object();
    entry.set("version", cacheFormatVersion);
    entry.set("key", *Json::parse(key_json));
    entry.set("result", result_json);
    entry.set("sum", fnv1a64(result_json.dump()));
    const std::string bytes = entry.dump() + '\n';

    // Write-to-temp + fsync + rename so concurrent writers
    // (several processes sharing one cache dir) never expose
    // a torn file — and a crash between write and rename leaves
    // only a temp file, never a truncated published entry.
    const std::string tmp_suffix =
        ".tmp." + std::to_string(std::hash<std::thread::id>{}(
                      std::this_thread::get_id()));
    if (!fsio::atomicPublish(path.string(), bytes, tmp_suffix))
        warn("sweep: cannot write cache entry ", path.string());
}

/** A group's members, in attach order. Only submit() appends, and
 *  only while the group is in openGroups_ (under cacheMu_);
 *  execute() removes it there before reading the members. */
struct SweepRunner::Group
{
    JobKind kind = JobKind::Single;
    std::vector<std::string> apps;
    std::vector<SystemConfig> configs;
    std::vector<std::string> keys;
    std::vector<std::variant<PromisePtr<RunResult>,
                             PromisePtr<MulticoreResult>>>
        promises;
};

template <typename Result>
std::shared_future<Result>
SweepRunner::submit(Memo<Result> &memo, JobKind kind,
                    const std::vector<std::string> &apps,
                    const SystemConfig &config,
                    const std::string &key_json,
                    const std::string &stream_key)
{
    noteSubmitted(true);
    auto promise = std::make_shared<std::promise<Result>>();
    std::shared_future<Result> future;
    {
        std::lock_guard lock(cacheMu_);
        auto it = memo.find(key_json);
        if (it != memo.end()) {
            const bool ready =
                it->second.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready;
            if (ready)
                ++stats_.memoHits;
            else
                ++stats_.inflightShares;
            return it->second;
        }
        future = promise->get_future().share();
        memo.emplace(key_json, future);
    }

    if (auto cached = loadFromDisk<Result>(key_json)) {
        screen(key_json, stream_key, config, coresOf(*cached));
        promise->set_value(std::move(*cached));
        return future;
    }
    std::shared_ptr<Group> posted;
    {
        std::lock_guard lock(cacheMu_);
        std::shared_ptr<Group> &open = openGroups_[stream_key];
        if (!open) {
            open = std::make_shared<Group>();
            open->kind = kind;
            open->apps = apps;
            posted = open;
        }
        open->configs.push_back(config);
        open->keys.push_back(key_json);
        open->promises.push_back(std::move(promise));
    }
    if (posted)
        post([this, posted, stream_key] { execute(posted, stream_key); });
    return future;
}

void
SweepRunner::execute(const std::shared_ptr<Group> &group,
                     const std::string &stream_key)
{
    {
        // Close the group: a job with this stream key that arrives
        // from now on posts a new one.
        std::lock_guard lock(cacheMu_);
        openGroups_.erase(stream_key);
    }
    const std::size_t k = group->configs.size();
    std::vector<std::exception_ptr> errors;
    std::vector<MulticoreResult> results(k);
    // A pool's group gets a stream thread, as a lone run does, but
    // no memory thread: the workers already keep every CPU busy, and
    // a third thread per group measured slower (DESIGN.md, "Three
    // host threads per lone run").
    const Overlap overlap =
        usableCpus() >= 2 ? Overlap::Threaded : Overlap::Inline;
    const auto t0 = std::chrono::steady_clock::now();
    try {
        results = sim::runGroup(group->kind, group->apps,
                                group->configs, &errors, overlap);
    } catch (...) {
        // A stream failed: every member gets its error.
        errors.assign(k, std::current_exception());
    }
    const auto t1 = std::chrono::steady_clock::now();
    const std::chrono::duration<double> dt = t1 - t0;

    const auto done = static_cast<std::uint64_t>(
        std::count(errors.begin(), errors.end(), nullptr));
    noteJobsDone(done, done ? k - 1 : 0,
                 dt.count() * static_cast<double>(done) /
                     static_cast<double>(k));
    std::string job = group->kind == JobKind::Mix ? "multi" : "";
    for (const std::string &app : group->apps)
        job += (job.empty() ? "" : ":") + app;
    traceJobSpan(k > 1 ? "group:" + job + ":" + std::to_string(k)
                       : "run:" + job + ":" +
                             policyName(group->configs[0].policy),
                 t0, t1);
    // Each member's result is screened, then stored, before its
    // future becomes ready.
    for (std::size_t i = 0; i < k; ++i) {
        std::visit(
            [&](const auto &promise) {
                if (errors[i]) {
                    promise->set_exception(errors[i]);
                    return;
                }
                auto &result = memberResult(promise, results[i]);
                screen(group->keys[i], stream_key, group->configs[i],
                       coresOf(result));
                storeToDisk(group->keys[i], result);
                promise->set_value(std::move(result));
            },
            group->promises[i]);
    }
}

std::shared_future<RunResult>
SweepRunner::enqueue(const std::string &app,
                     const SystemConfig &config)
{
    const std::uint64_t trace_hash = traceHashFor(app);
    return submit(single_, JobKind::Single, {app}, config,
                  singleKeyJson("single", app, trace_hash, "config",
                                configToJson(config)),
                  singleKeyJson("stream", app, trace_hash, "stream",
                                streamSpecJson(config)));
}

std::shared_future<MulticoreResult>
SweepRunner::enqueueMulticore(const std::vector<std::string> &mix,
                              const SystemConfig &config)
{
    std::vector<std::uint64_t> trace_hashes;
    for (const std::string &app : mix)
        trace_hashes.push_back(traceHashFor(app));
    return submit(multi_, JobKind::Mix, mix, config,
                  mixKeyJson(mix, trace_hashes, "config",
                             configToJson(config)),
                  mixKeyJson(mix, trace_hashes, "stream",
                             streamSpecJson(config)));
}

SweepStats
SweepRunner::stats() const
{
    std::lock_guard lock(cacheMu_);
    SweepStats s = stats_;
    if (anySubmitted_) {
        const auto end = lastComplete_.time_since_epoch().count()
                             ? lastComplete_
                             : std::chrono::steady_clock::now();
        s.wallSeconds =
            std::chrono::duration<double>(end - firstSubmit_)
                .count();
    }
    return s;
}

void
SweepRunner::printStats(std::ostream &os) const
{
    const SweepStats s = stats();
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "[sweep] threads=%u jobs=%llu executed=%llu grouped=%llu "
        "memo-hits=%llu disk-hits=%llu inflight-shares=%llu "
        "generic-tasks=%llu hit-rate=%.1f%% wall=%.2fs "
        "sim=%.2fs jobs/s=%.1f",
        s.threads,
        static_cast<unsigned long long>(s.submitted),
        static_cast<unsigned long long>(s.executed),
        static_cast<unsigned long long>(s.grouped),
        static_cast<unsigned long long>(s.memoHits),
        static_cast<unsigned long long>(s.diskHits),
        static_cast<unsigned long long>(s.inflightShares),
        static_cast<unsigned long long>(s.genericTasks),
        100.0 * s.hitRate(), s.wallSeconds, s.simSeconds,
        s.jobsPerSec());
    os << line;
    if (s.checkFailures != 0) {
        os << " check-failures=" << s.checkFailures
           << " first=" << s.firstCheckFailure;
    }
    os << std::endl;
}

} // namespace sipt::sim
