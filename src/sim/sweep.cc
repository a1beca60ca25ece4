#include "sim/sweep.hh"

// The steady_clock reads below time the engine itself (wall-clock
// and per-job seconds in the footer); no clock value ever
// reaches simulation state, so results stay a pure function of
// (app, SystemConfig).
// sipt-analyze: allow-file(nondeterminism)

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

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
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned fallback = hw ? hw : 1;
    // Strict parse: "8x" used to silently run with 8 threads and
    // "-1" with ULONG_MAX's truncation; both now warn and fall
    // back to the hardware default.
    return static_cast<unsigned>(
        envU64("SIPT_THREADS", fallback, 1, 4096));
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

Json
energyToJson(const energy::EnergyBreakdown &e)
{
    Encoder out;
    visitEnergy(e, out);
    return std::move(out.j);
}

energy::EnergyBreakdown
energyFromJson(const Json &j)
{
    energy::EnergyBreakdown e;
    visitEnergy(e, Decoder{j});
    return e;
}

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

Json
multiResultToJson(const MulticoreResult &r)
{
    // Bound, not visited: a per-core entry can fail to decode, and
    // the decoder below reports that rather than panicking.
    const auto &[perCore, sumIpc, energy] = r;
    Json j = Json::object();
    Json per = Json::array();
    for (const auto &core : perCore)
        per.push(runResultToJson(core));
    j.set("perCore", std::move(per));
    j.set("sumIpc", sumIpc);
    j.set("energy", energyToJson(energy));
    return j;
}

std::optional<MulticoreResult>
multiResultFromJson(const Json &j, std::string &error)
{
    std::string where;
    if (!sameShape(j, multiResultToJson(MulticoreResult{}), where)) {
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
    sumIpc = j.get("sumIpc").asDouble();
    energy = energyFromJson(j.get("energy"));
    return r;
}

/** The canonical multicore key: the mix, each entry's trace
 *  content hash, and the full config. */
std::string
multiRunKeyJson(const std::vector<std::string> &mix,
                const SystemConfig &config)
{
    Json j = Json::object();
    j.set("kind", "multi");
    Json apps = Json::array();
    Json hashes = Json::array();
    for (const auto &app : mix) {
        apps.push(app);
        hashes.push(traceHashFor(app));
    }
    j.set("mix", std::move(apps));
    j.set("traceHashes", std::move(hashes));
    j.set("config", configToJson(config));
    return j.dump();
}

/** Disk-cache JSON of either result type. */
Json
resultToJson(const RunResult &r)
{
    return runResultToJson(r);
}

Json
resultToJson(const MulticoreResult &r)
{
    return multiResultToJson(r);
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

} // namespace

namespace
{

/** runKeyJson() with the trace content hash already computed. */
std::string
runKeyJsonWithHash(const std::string &app, std::uint64_t trace_hash,
                   const SystemConfig &config)
{
    Json j = Json::object();
    j.set("kind", "single");
    j.set("app", app);
    j.set("traceHash", trace_hash);
    j.set("config", configToJson(config));
    return j.dump();
}

/** streamKeyJson() with the trace content hash already computed. */
std::string
streamKeyJsonWithHash(const std::string &app, std::uint64_t trace_hash,
                      const SystemConfig &config)
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
    Json j = Json::object();
    j.set("kind", "stream");
    j.set("app", app);
    j.set("traceHash", trace_hash);
    j.set("stream", std::move(stream));
    return j.dump();
}

} // namespace

std::string
runKeyJson(const std::string &app, const SystemConfig &config)
{
    return runKeyJsonWithHash(app, traceHashFor(app), config);
}

std::string
streamKeyJson(const std::string &app, const SystemConfig &config)
{
    return streamKeyJsonWithHash(app, traceHashFor(app), config);
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

SweepRunner::SweepRunner(const SweepOptions &options)
{
    threads_ =
        options.threads ? options.threads : threadsFromEnv();
    cacheDir_ = options.cacheDir.empty() ? cacheDirFromEnv()
                                         : options.cacheDir;
    if (cacheDir_ == "-")
        cacheDir_.clear();
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

template <typename Result>
std::shared_future<Result>
SweepRunner::submit(
    Memo<Result> &memo, const std::string &key_json,
    const std::function<void(PromisePtr<Result>)> &schedule)
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
        promise->set_value(std::move(*cached));
        return future;
    }
    schedule(std::move(promise));
    return future;
}

/** A group's members, in attach order. Only attachOrPost()
 *  appends, and only while the group is in openGroups_ (under
 *  cacheMu_); runGroup() removes it there before reading the
 *  members. */
struct SweepRunner::Group
{
    std::string app;
    std::vector<SystemConfig> configs;
    std::vector<std::string> keys;
    std::vector<PromisePtr<RunResult>> promises;
};

void
SweepRunner::attachOrPost(const std::string &app,
                          const SystemConfig &config,
                          const std::string &key_json,
                          const std::string &stream_key,
                          PromisePtr<RunResult> promise)
{
    std::shared_ptr<Group> group;
    {
        std::lock_guard lock(cacheMu_);
        std::shared_ptr<Group> &open = openGroups_[stream_key];
        if (!open) {
            open = std::make_shared<Group>();
            open->app = app;
            group = open;
        }
        open->configs.push_back(config);
        open->keys.push_back(key_json);
        open->promises.push_back(std::move(promise));
    }
    if (group) {
        post([this, group, stream_key] {
            runGroup(group, stream_key);
        });
    }
}

void
SweepRunner::runGroup(const std::shared_ptr<Group> &group,
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
    std::vector<RunResult> results;
    const auto t0 = std::chrono::steady_clock::now();
    try {
        results = runSameStream(group->app, group->configs, &errors);
    } catch (...) {
        // The stream itself failed: every member gets its error.
        for (const auto &promise : group->promises)
            promise->set_exception(std::current_exception());
        return;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const std::chrono::duration<double> dt = t1 - t0;

    std::uint64_t done = 0;
    for (std::size_t i = 0; i < k; ++i) {
        if (!errors[i]) {
            storeToDisk(group->keys[i], results[i]);
            ++done;
        }
    }
    noteJobsDone(done, k - 1,
                 dt.count() * static_cast<double>(done) /
                     static_cast<double>(k));
    traceJobSpan(k == 1 ? "run:" + group->app + ":" +
                              policyName(group->configs[0].policy)
                        : "group:" + group->app + ":" +
                              std::to_string(k),
                 t0, t1);
    for (std::size_t i = 0; i < k; ++i) {
        if (errors[i])
            group->promises[i]->set_exception(errors[i]);
        else
            group->promises[i]->set_value(std::move(results[i]));
    }
}

std::shared_future<RunResult>
SweepRunner::enqueue(const std::string &app,
                     const SystemConfig &config)
{
    const std::uint64_t trace_hash = traceHashFor(app);
    const std::string key_json =
        runKeyJsonWithHash(app, trace_hash, config);
    return submit<RunResult>(
        single_, key_json,
        [&](PromisePtr<RunResult> promise) {
            attachOrPost(app, config, key_json,
                         streamKeyJsonWithHash(app, trace_hash, config),
                         std::move(promise));
        });
}

std::shared_future<MulticoreResult>
SweepRunner::enqueueMulticore(const std::vector<std::string> &mix,
                              const SystemConfig &config)
{
    std::string span_name = "multi";
    for (const auto &app : mix)
        span_name += ":" + app;
    const std::string key_json = multiRunKeyJson(mix, config);
    return submit<MulticoreResult>(
        multi_, key_json,
        [&](PromisePtr<MulticoreResult> promise) {
            post([this, key_json, mix, config, span_name, promise] {
                try {
                    const auto t0 = std::chrono::steady_clock::now();
                    MulticoreResult result = runMulticore(mix, config);
                    const auto t1 = std::chrono::steady_clock::now();
                    const std::chrono::duration<double> dt = t1 - t0;
                    storeToDisk(key_json, result);
                    noteJobsDone(1, 0, dt.count());
                    traceJobSpan(span_name, t0, t1);
                    promise->set_value(std::move(result));
                } catch (...) {
                    promise->set_exception(std::current_exception());
                }
            });
        });
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
    os << line << std::endl;
}

} // namespace sipt::sim
