#include "sim/sweep.hh"

// The steady_clock reads below time the engine itself (wall-clock
// and per-job seconds in the bench footer); no clock value ever
// reaches simulation state, so results stay a pure function of
// (app, SystemConfig).
// sipt-lint: allow-file(nondeterminism)

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

} // namespace

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

std::optional<SystemConfig>
configFromJson(const Json &j, std::string &error)
{
    if (!j.isObject()) {
        error = "config must be a JSON object";
        return std::nullopt;
    }

    // The exact member set configToJson() emits; anything else —
    // missing, extra, or misspelt — is a hard error so that wire
    // input can never silently run a default-filled config.
    static constexpr const char *known[] = {
        "outOfOrder",   "l1Config",     "l1SizeBytes",
        "l1Assoc",      "l1HitLatency", "policy",
        "xlatPredEntries", "wayPrediction", "radixWalker",
        "condition",    "physMemBytes", "warmupRefs",
        "measureRefs",  "seed",         "footprintScale",
        "check",
    };

    const Json *fields[std::size(known)] = {};
    for (std::size_t i = 0; i < j.size(); ++i) {
        const auto &[name, value] = j.member(i);
        bool matched = false;
        for (std::size_t k = 0; k < std::size(known); ++k) {
            if (name == known[k]) {
                fields[k] = &value;
                matched = true;
                break;
            }
        }
        if (!matched) {
            error = "unknown config member \"" + name + "\"";
            return std::nullopt;
        }
    }
    for (std::size_t k = 0; k < std::size(known); ++k) {
        if (fields[k] == nullptr) {
            error = std::string("missing config member \"") +
                    known[k] + "\"";
            return std::nullopt;
        }
    }

    auto field = [&](const char *name) -> const Json & {
        for (std::size_t k = 0; k < std::size(known); ++k)
            if (std::string_view(known[k]) == name)
                return *fields[k];
        SIPT_ASSERT(false, "configFromJson: bad field name");
    };
    auto needBool = [&](const char *name, bool &out) {
        const Json &v = field(name);
        if (!v.isBool()) {
            error = std::string("config member \"") + name +
                    "\" must be a bool";
            return false;
        }
        out = v.asBool();
        return true;
    };
    auto needUint = [&](const char *name, std::uint64_t max,
                        std::uint64_t &out) {
        const Json &v = field(name);
        if (!v.isUint() || v.asUint() > max) {
            error = std::string("config member \"") + name +
                    "\" must be an integer in [0, " +
                    std::to_string(max) + "]";
            return false;
        }
        out = v.asUint();
        return true;
    };

    SystemConfig c;
    std::uint64_t u = 0;
    if (!needBool("outOfOrder", c.outOfOrder))
        return std::nullopt;
    if (!needUint("l1Config",
                  static_cast<std::uint64_t>(L1Config::Sipt128K4),
                  u))
        return std::nullopt;
    c.l1Config = static_cast<L1Config>(u);
    if (!needUint("l1SizeBytes", UINT64_MAX, c.l1SizeBytes))
        return std::nullopt;
    if (!needUint("l1Assoc", UINT32_MAX, u))
        return std::nullopt;
    c.l1Assoc = static_cast<std::uint32_t>(u);
    if (!needUint("l1HitLatency", UINT64_MAX, c.l1HitLatency))
        return std::nullopt;
    if (!needUint("policy",
                  static_cast<std::uint64_t>(
                      IndexingPolicy::SiptPcax),
                  u))
        return std::nullopt;
    c.policy = static_cast<IndexingPolicy>(u);
    if (!needUint("xlatPredEntries", UINT32_MAX, u))
        return std::nullopt;
    c.xlatPredEntries = static_cast<std::uint32_t>(u);
    if (!needBool("wayPrediction", c.wayPrediction))
        return std::nullopt;
    if (!needBool("radixWalker", c.radixWalker))
        return std::nullopt;
    if (!needUint("condition",
                  static_cast<std::uint64_t>(
                      MemCondition::Fragmented),
                  u))
        return std::nullopt;
    c.condition = static_cast<MemCondition>(u);
    if (!needUint("physMemBytes", UINT64_MAX, c.physMemBytes))
        return std::nullopt;
    if (!needUint("warmupRefs", UINT64_MAX, c.warmupRefs))
        return std::nullopt;
    if (!needUint("measureRefs", UINT64_MAX, c.measureRefs))
        return std::nullopt;
    if (!needUint("seed", UINT64_MAX, c.seed))
        return std::nullopt;
    {
        const Json &v = field("footprintScale");
        if (!v.isNumber() || v.asDouble() <= 0.0) {
            error = "config member \"footprintScale\" must be a "
                    "positive number";
            return std::nullopt;
        }
        c.footprintScale = v.asDouble();
    }
    if (!needBool("check", c.check))
        return std::nullopt;
    return c;
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

RunResult
runResultFromJson(const Json &j)
{
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

MulticoreResult
multiResultFromJson(const Json &j)
{
    MulticoreResult r;
    const Json &per = j.get("perCore");
    for (std::size_t i = 0; i < per.size(); ++i)
        r.perCore.push_back(runResultFromJson(per.at(i)));
    r.sumIpc = j.get("sumIpc").asDouble();
    r.energy = energyFromJson(j.get("energy"));
    return r;
}

Json
singleKeyJson(const std::string &app, const SystemConfig &config,
              std::uint64_t trace_hash)
{
    Json j = Json::object();
    j.set("kind", "single");
    j.set("app", app);
    j.set("traceHash", trace_hash);
    j.set("config", configToJson(config));
    return j;
}

Json
multiKeyJson(const std::vector<std::string> &mix,
             const SystemConfig &config,
             const std::vector<std::uint64_t> &trace_hashes)
{
    Json j = Json::object();
    j.set("kind", "multi");
    Json apps = Json::array();
    for (const auto &app : mix)
        apps.push(app);
    j.set("mix", std::move(apps));
    Json hashes = Json::array();
    for (const auto h : trace_hashes)
        hashes.push(h);
    j.set("traceHashes", std::move(hashes));
    j.set("config", configToJson(config));
    return j;
}

} // namespace

std::string
runKeyJson(const std::string &app, const SystemConfig &config)
{
    return singleKeyJson(app, config, traceHashFor(app)).dump();
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

std::size_t
SweepRunner::SingleKeyHash::operator()(const SingleKey &k) const
{
    std::size_t h = hashValue(k.config);
    hashCombine(h, k.app);
    hashCombine(h, k.traceHash);
    return h;
}

std::size_t
SweepRunner::MultiKeyHash::operator()(const MultiKey &k) const
{
    std::size_t h = hashValue(k.config);
    for (const auto &app : k.mix)
        hashCombine(h, app);
    for (const auto th : k.traceHashes)
        hashCombine(h, th);
    return h;
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
    stats_.threads = threads_;
    if (threads_ > 1) {
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

SweepRunner &
SweepRunner::global()
{
    // Magic-static init is thread-safe and SweepRunner is
    // internally synchronised; this is the one sanctioned piece of
    // process-global mutable state.
    // sipt-lint: allow(mutable-static)
    static SweepRunner runner;
    return runner;
}

void
SweepRunner::post(std::function<void()> work)
{
    if (threads_ <= 1) {
        // Sequential mode: the old behaviour, job runs right here.
        work();
        return;
    }
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

void
SweepRunner::noteSubmitted()
{
    std::lock_guard lock(cacheMu_);
    if (!anySubmitted_) {
        anySubmitted_ = true;
        firstSubmit_ = std::chrono::steady_clock::now();
    }
    ++stats_.submitted;
}

void
SweepRunner::noteGenericDone()
{
    std::lock_guard lock(cacheMu_);
    ++stats_.genericTasks;
    lastComplete_ = std::chrono::steady_clock::now();
}

void
SweepRunner::noteJobDone(double seconds)
{
    std::lock_guard lock(cacheMu_);
    ++stats_.executed;
    stats_.simSeconds += seconds;
    lastComplete_ = std::chrono::steady_clock::now();
}

bool
SweepRunner::loadFromDisk(const std::string &key_json,
                          bool multicore, Json &result_out) const
{
    if (cacheDir_.empty())
        return false;
    const char *prefix = multicore ? "multi-" : "run-";
    char name[64];
    std::snprintf(name, sizeof(name), "%s%016llx.json", prefix,
                  static_cast<unsigned long long>(
                      fnv1a64(key_json)));
    const std::filesystem::path path =
        std::filesystem::path(cacheDir_) / name;
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    const auto parsed = Json::parse(buf.str());
    if (!parsed) {
        warn("sweep: unreadable cache entry ", path.string());
        return false;
    }
    const Json *version = parsed->find("version");
    const Json *key = parsed->find("key");
    const Json *result = parsed->find("result");
    if (!version || version->asUint() != cacheFormatVersion ||
        !key || !result)
        return false;
    // Verify the stored key: a 64-bit file-name collision must
    // degrade to a miss, never to someone else's result.
    if (key->dump() != key_json)
        return false;
    result_out = *result;
    return true;
}

void
SweepRunner::storeToDisk(const std::string &key_json,
                         bool multicore, const Json &result) const
{
    if (cacheDir_.empty())
        return;
    const char *prefix = multicore ? "multi-" : "run-";
    char name[64];
    std::snprintf(name, sizeof(name), "%s%016llx.json", prefix,
                  static_cast<unsigned long long>(
                      fnv1a64(key_json)));
    const std::filesystem::path path =
        std::filesystem::path(cacheDir_) / name;

    Json entry = Json::object();
    entry.set("version", cacheFormatVersion);
    entry.set("key", *Json::parse(key_json));
    entry.set("result", result);

    // Write-to-temp + fsync + rename so concurrent writers
    // (several bench processes sharing one cache dir) never expose
    // a torn file — and a crash between write and rename leaves
    // only a temp file, never a truncated published entry.
    const std::string tmp_suffix =
        ".tmp." + std::to_string(std::hash<std::thread::id>{}(
                      std::this_thread::get_id()));
    if (!fsio::atomicPublish(path.string(), entry.dump() + '\n',
                             tmp_suffix))
        warn("sweep: cannot write cache entry ", path.string());
}

std::shared_future<RunResult>
SweepRunner::enqueue(const std::string &app,
                     const SystemConfig &config)
{
    noteSubmitted();
    const std::uint64_t trace_hash = traceHashFor(app);
    const SingleKey key{app, config, trace_hash};
    auto promise = std::make_shared<std::promise<RunResult>>();
    std::shared_future<RunResult> future;
    {
        std::lock_guard lock(cacheMu_);
        auto it = single_.find(key);
        if (it != single_.end()) {
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
        single_.emplace(key, future);
    }

    const std::string key_json =
        singleKeyJson(app, config, trace_hash).dump();
    Json cached;
    if (loadFromDisk(key_json, false, cached)) {
        {
            std::lock_guard lock(cacheMu_);
            ++stats_.diskHits;
            lastComplete_ = std::chrono::steady_clock::now();
        }
        promise->set_value(runResultFromJson(cached));
        return future;
    }

    post([this, app, config, key_json, promise] {
        try {
            const auto t0 = std::chrono::steady_clock::now();
            RunResult result = runSingleCore(app, config);
            const auto t1 = std::chrono::steady_clock::now();
            const std::chrono::duration<double> dt = t1 - t0;
            storeToDisk(key_json, false,
                        runResultToJson(result));
            noteJobDone(dt.count());
            if (trace::Tracer *tracer =
                    trace::Tracer::globalIfEnabled()) {
                tracer->span(
                    "sweep",
                    "run:" + app + ":" +
                        policyName(config.policy),
                    traceWorkerLane(), traceUs(t0),
                    traceUs(t1) - traceUs(t0));
            }
            promise->set_value(std::move(result));
        } catch (...) {
            promise->set_exception(std::current_exception());
        }
    });
    return future;
}

std::shared_future<MulticoreResult>
SweepRunner::enqueueMulticore(const std::vector<std::string> &mix,
                              const SystemConfig &config)
{
    noteSubmitted();
    std::vector<std::uint64_t> trace_hashes;
    trace_hashes.reserve(mix.size());
    for (const auto &app : mix)
        trace_hashes.push_back(traceHashFor(app));
    const MultiKey key{mix, config, trace_hashes};
    auto promise =
        std::make_shared<std::promise<MulticoreResult>>();
    std::shared_future<MulticoreResult> future;
    {
        std::lock_guard lock(cacheMu_);
        auto it = multi_.find(key);
        if (it != multi_.end()) {
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
        multi_.emplace(key, future);
    }

    const std::string key_json =
        multiKeyJson(mix, config, trace_hashes).dump();
    Json cached;
    if (loadFromDisk(key_json, true, cached)) {
        {
            std::lock_guard lock(cacheMu_);
            ++stats_.diskHits;
            lastComplete_ = std::chrono::steady_clock::now();
        }
        promise->set_value(multiResultFromJson(cached));
        return future;
    }

    post([this, mix, config, key_json, promise] {
        try {
            const auto t0 = std::chrono::steady_clock::now();
            MulticoreResult result = runMulticore(mix, config);
            const auto t1 = std::chrono::steady_clock::now();
            const std::chrono::duration<double> dt = t1 - t0;
            storeToDisk(key_json, true,
                        multiResultToJson(result));
            noteJobDone(dt.count());
            if (trace::Tracer *tracer =
                    trace::Tracer::globalIfEnabled()) {
                std::string name = "multi";
                for (const auto &app : mix)
                    name += ":" + app;
                tracer->span("sweep", name, traceWorkerLane(),
                             traceUs(t0),
                             traceUs(t1) - traceUs(t0));
            }
            promise->set_value(std::move(result));
        } catch (...) {
            promise->set_exception(std::current_exception());
        }
    });
    return future;
}

std::vector<RunResult>
SweepRunner::runBatch(const std::vector<SweepJob> &jobs)
{
    std::vector<std::shared_future<RunResult>> futures;
    futures.reserve(jobs.size());
    for (const auto &job : jobs)
        futures.push_back(enqueue(job.app, job.config));
    std::vector<RunResult> results;
    results.reserve(jobs.size());
    for (auto &future : futures)
        results.push_back(future.get());
    return results;
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
        "[sweep] threads=%u jobs=%llu executed=%llu "
        "memo-hits=%llu disk-hits=%llu inflight-shares=%llu "
        "generic-tasks=%llu hit-rate=%.1f%% wall=%.2fs "
        "sim=%.2fs jobs/s=%.1f",
        s.threads,
        static_cast<unsigned long long>(s.submitted),
        static_cast<unsigned long long>(s.executed),
        static_cast<unsigned long long>(s.memoHits),
        static_cast<unsigned long long>(s.diskHits),
        static_cast<unsigned long long>(s.inflightShares),
        static_cast<unsigned long long>(s.genericTasks),
        100.0 * s.hitRate(), s.wallSeconds, s.simSeconds,
        s.jobsPerSec());
    os << line << std::endl;
}

} // namespace sipt::sim
