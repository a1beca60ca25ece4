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

Json
energyToJson(const energy::EnergyBreakdown &e)
{
    Json j = Json::object();
    j.set("l1Dynamic", e.l1Dynamic);
    j.set("l2Dynamic", e.l2Dynamic);
    j.set("llcDynamic", e.llcDynamic);
    j.set("l1Static", e.l1Static);
    j.set("l2Static", e.l2Static);
    j.set("llcStatic", e.llcStatic);
    return j;
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

energy::EnergyBreakdown
energyFromJson(const Json &j)
{
    energy::EnergyBreakdown e;
    e.l1Dynamic = j.get("l1Dynamic").asDouble();
    e.l2Dynamic = j.get("l2Dynamic").asDouble();
    e.llcDynamic = j.get("llcDynamic").asDouble();
    e.l1Static = j.get("l1Static").asDouble();
    e.l2Static = j.get("l2Static").asDouble();
    e.llcStatic = j.get("llcStatic").asDouble();
    return e;
}

Json
l1StatsToJson(const L1Stats &s)
{
    Json j = Json::object();
    j.set("accesses", s.accesses);
    j.set("loads", s.loads);
    j.set("stores", s.stores);
    j.set("hits", s.hits);
    j.set("misses", s.misses);
    j.set("writebacks", s.writebacks);
    j.set("fastAccesses", s.fastAccesses);
    j.set("slowAccesses", s.slowAccesses);
    j.set("extraArrayAccesses", s.extraArrayAccesses);
    j.set("arrayAccesses", s.arrayAccesses);
    j.set("weightedArrayAccesses", s.weightedArrayAccesses);
    j.set("hugeAccesses", s.hugeAccesses);
    j.set("hugeReplays", s.hugeReplays);
    j.set("hugeBypassLosses", s.hugeBypassLosses);
    j.set("correctSpeculation", s.spec.correctSpeculation);
    j.set("correctBypass", s.spec.correctBypass);
    j.set("opportunityLoss", s.spec.opportunityLoss);
    j.set("extraAccess", s.spec.extraAccess);
    j.set("idbHit", s.spec.idbHit);
    return j;
}

L1Stats
l1StatsFromJson(const Json &j)
{
    L1Stats s;
    s.accesses = j.get("accesses").asUint();
    s.loads = j.get("loads").asUint();
    s.stores = j.get("stores").asUint();
    s.hits = j.get("hits").asUint();
    s.misses = j.get("misses").asUint();
    s.writebacks = j.get("writebacks").asUint();
    s.fastAccesses = j.get("fastAccesses").asUint();
    s.slowAccesses = j.get("slowAccesses").asUint();
    s.extraArrayAccesses = j.get("extraArrayAccesses").asUint();
    s.arrayAccesses = j.get("arrayAccesses").asUint();
    s.weightedArrayAccesses =
        j.get("weightedArrayAccesses").asDouble();
    s.hugeAccesses = j.get("hugeAccesses").asUint();
    s.hugeReplays = j.get("hugeReplays").asUint();
    s.hugeBypassLosses = j.get("hugeBypassLosses").asUint();
    s.spec.correctSpeculation =
        j.get("correctSpeculation").asUint();
    s.spec.correctBypass = j.get("correctBypass").asUint();
    s.spec.opportunityLoss = j.get("opportunityLoss").asUint();
    s.spec.extraAccess = j.get("extraAccess").asUint();
    s.spec.idbHit = j.get("idbHit").asUint();
    return s;
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
configToJson(const SystemConfig &c)
{
    Json j = Json::object();
    j.set("outOfOrder", c.outOfOrder);
    j.set("l1Config",
          std::uint64_t{static_cast<std::uint8_t>(c.l1Config)});
    j.set("l1SizeBytes", c.l1SizeBytes);
    j.set("l1Assoc", std::uint64_t{c.l1Assoc});
    j.set("l1HitLatency", c.l1HitLatency);
    j.set("policy",
          std::uint64_t{static_cast<std::uint8_t>(c.policy)});
    j.set("xlatPredEntries", std::uint64_t{c.xlatPredEntries});
    j.set("wayPrediction", c.wayPrediction);
    j.set("radixWalker", c.radixWalker);
    j.set("condition",
          std::uint64_t{static_cast<std::uint8_t>(c.condition)});
    j.set("physMemBytes", c.physMemBytes);
    j.set("warmupRefs", c.warmupRefs);
    j.set("measureRefs", c.measureRefs);
    j.set("seed", c.seed);
    j.set("footprintScale", c.footprintScale);
    j.set("check", c.check);
    return j;
}

Json
runResultToJson(const RunResult &r)
{
    Json j = Json::object();
    j.set("app", r.app);
    j.set("ipc", r.ipc);
    j.set("cycles", r.cycles);
    j.set("instructions", r.instructions);
    j.set("l1", l1StatsToJson(r.l1));
    j.set("l1HitRate", r.l1HitRate);
    j.set("fastFraction", r.fastFraction);
    j.set("energy", energyToJson(r.energy));
    j.set("hugeCoverage", r.hugeCoverage);
    j.set("wayPredAccuracy", r.wayPredAccuracy);
    j.set("dtlbHitRate", r.dtlbHitRate);
    j.set("pageWalks", r.pageWalks);
    j.set("l1Mpki", r.l1Mpki);
    j.set("checkDigest", r.checkDigest);
    j.set("checkEvents", r.checkEvents);
    j.set("checkFailure", r.checkFailure);
    j.set("vivtReverseProbes", r.vivtReverseProbes);
    j.set("vivtInvalidations", r.vivtInvalidations);
    j.set("vivtDirtyForwards", r.vivtDirtyForwards);
    return j;
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
    r.app = j.get("app").asString();
    r.ipc = j.get("ipc").asDouble();
    r.cycles = j.get("cycles").asDouble();
    r.instructions = j.get("instructions").asUint();
    r.l1 = l1StatsFromJson(j.get("l1"));
    r.l1HitRate = j.get("l1HitRate").asDouble();
    r.fastFraction = j.get("fastFraction").asDouble();
    r.energy = energyFromJson(j.get("energy"));
    r.hugeCoverage = j.get("hugeCoverage").asDouble();
    r.wayPredAccuracy = j.get("wayPredAccuracy").asDouble();
    r.dtlbHitRate = j.get("dtlbHitRate").asDouble();
    r.pageWalks = j.get("pageWalks").asUint();
    r.l1Mpki = j.get("l1Mpki").asDouble();
    r.checkDigest = j.get("checkDigest").asUint();
    r.checkEvents = j.get("checkEvents").asUint();
    r.checkFailure = j.get("checkFailure").asString();
    r.vivtReverseProbes = j.get("vivtReverseProbes").asUint();
    r.vivtInvalidations = j.get("vivtInvalidations").asUint();
    r.vivtDirtyForwards = j.get("vivtDirtyForwards").asUint();
    return r;
}

namespace
{

Json
multiResultToJson(const MulticoreResult &r)
{
    Json j = Json::object();
    Json per = Json::array();
    for (const auto &core : r.perCore)
        per.push(runResultToJson(core));
    j.set("perCore", std::move(per));
    j.set("sumIpc", r.sumIpc);
    j.set("energy", energyToJson(r.energy));
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
    const Json &per = j.get("perCore");
    for (std::size_t i = 0; i < per.size(); ++i) {
        auto core = runResultFromJson(per.at(i), error);
        if (!core)
            return std::nullopt;
        r.perCore.push_back(std::move(*core));
    }
    r.sumIpc = j.get("sumIpc").asDouble();
    r.energy = energyFromJson(j.get("energy"));
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
    const StreamSpec spec = streamSpec(config);
    Json stream = Json::object();
    stream.set("condition", std::uint64_t{static_cast<std::uint8_t>(
                                spec.condition)});
    stream.set("physMemBytes", spec.physMemBytes);
    stream.set("warmupRefs", spec.warmupRefs);
    stream.set("measureRefs", spec.measureRefs);
    stream.set("seed", spec.seed);
    stream.set("footprintScale", spec.footprintScale);
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
