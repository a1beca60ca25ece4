/**
 * @file
 * The serve daemon's protocol and store semantics: strict request
 * parsing and codec round-trips, golden wire fixtures (replayed
 * over a real Unix-domain socket against a workerless server, so
 * any wire-format drift fails byte-for-byte), end-to-end
 * submit->poll->result equality with the standalone engine,
 * submission dedup, restart recovery from the store, bounded-queue
 * backpressure, and malformed-frame survival. The store itself is
 * covered by test_serve_store.cpp.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mutants.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/sweep.hh"

namespace sipt::serve
{
namespace
{

sim::SystemConfig
tinyConfig(IndexingPolicy policy, std::uint64_t seed = 42)
{
    sim::SystemConfig cfg;
    cfg.l1Config = policy == IndexingPolicy::Vipt
                       ? sim::L1Config::Baseline32K8
                       : sim::L1Config::Sipt32K2;
    cfg.policy = policy;
    cfg.warmupRefs = 500;
    cfg.measureRefs = 1'000;
    cfg.seed = seed;
    return cfg;
}

/** Fresh socket+store paths under the system temp dir. */
struct TestPaths
{
    std::filesystem::path root;
    explicit TestPaths(const std::string &name)
        : root(std::filesystem::temp_directory_path() /
               ("sipt_serve_" + name))
    {
        std::filesystem::remove_all(root);
        std::filesystem::create_directories(root);
    }
    ~TestPaths() { std::filesystem::remove_all(root); }
    std::string socket() const
    {
        return (root / "s.sock").string();
    }
    std::string store() const
    {
        return (root / "store").string();
    }
};

ServerOptions
testOptions(const TestPaths &paths, unsigned workers,
            std::size_t queue_depth = 64)
{
    ServerOptions options;
    options.socketPath = paths.socket();
    options.storeDir = paths.store();
    options.workers = workers;
    options.queueDepth = queue_depth;
    return options;
}

std::string
submitLine(const std::string &app,
           const sim::SystemConfig &config)
{
    Request request;
    request.op = Op::Submit;
    request.app = app;
    request.config = config;
    return encodeRequest(request);
}

/** Poll @p job until done/failed; returns the final state. */
std::string
awaitJob(Client &client, const std::string &job)
{
    for (;;) {
        Request poll;
        poll.op = Op::Poll;
        poll.job = job;
        const auto response =
            Json::parse(client.requestLine(encodeRequest(poll)));
        const Json *state = response->find("state");
        if (state != nullptr && state->isString() &&
            (state->asString() == "done" ||
             state->asString() == "failed"))
            return state->asString();
    }
}

TEST(ServeProtocol, ConfigJsonRoundTripsEveryField)
{
    sim::SystemConfig cfg =
        tinyConfig(IndexingPolicy::SiptRevelator, 7);
    cfg.outOfOrder = false;
    cfg.l1SizeBytes = 65536;
    cfg.l1Assoc = 4;
    cfg.l1HitLatency = 3;
    cfg.xlatPredEntries = 256;
    cfg.wayPrediction = true;
    cfg.radixWalker = true;
    cfg.condition = sim::MemCondition::Fragmented;
    cfg.physMemBytes = 1ull << 30;
    cfg.footprintScale = 0.5;
    cfg.check = true;

    std::string error;
    const auto parsed =
        sim::configFromJson(sim::configToJson(cfg), error);
    ASSERT_TRUE(parsed.has_value()) << error;
    // Canonical bytes survive the round trip.
    EXPECT_EQ(sim::configToJson(*parsed).dump(),
              sim::configToJson(cfg).dump());
}

TEST(ServeProtocol, ConfigParsingIsStrict)
{
    const sim::SystemConfig cfg =
        tinyConfig(IndexingPolicy::SiptCombined);
    std::string error;

    // Not an object.
    EXPECT_FALSE(
        sim::configFromJson(Json("x"), error).has_value());

    // A missing member is an error, never a silent default.
    {
        Json j = sim::configToJson(cfg);
        Json partial = Json::object();
        for (std::size_t i = 0; i + 1 < j.size(); ++i)
            partial.set(j.member(i).first, j.member(i).second);
        EXPECT_FALSE(
            sim::configFromJson(partial, error).has_value());
        EXPECT_NE(error.find("missing"), std::string::npos);
    }

    // An unknown member is rejected (schema drift detection).
    {
        Json j = sim::configToJson(cfg);
        j.set("engine", std::uint64_t{1});
        EXPECT_FALSE(
            sim::configFromJson(j, error).has_value());
        EXPECT_NE(error.find("unknown"), std::string::npos);
    }

    // Wrong type.
    {
        Json j = sim::configToJson(cfg);
        j.set("seed", "42");
        EXPECT_FALSE(
            sim::configFromJson(j, error).has_value());
    }

    // Enum out of range.
    {
        Json j = sim::configToJson(cfg);
        j.set("policy", std::uint64_t{200});
        EXPECT_FALSE(
            sim::configFromJson(j, error).has_value());
    }

    // Non-positive footprint scale.
    {
        Json j = sim::configToJson(cfg);
        j.set("footprintScale", 0.0);
        EXPECT_FALSE(
            sim::configFromJson(j, error).has_value());
    }
}

TEST(ServeProtocol, RequestCodecRoundTrips)
{
    std::vector<Request> requests;
    {
        Request r;
        r.op = Op::Submit;
        r.app = "mcf";
        r.config = tinyConfig(IndexingPolicy::SiptVespa);
        requests.push_back(r);
    }
    {
        Request r;
        r.op = Op::Poll;
        r.job = "00000000deadbeef";
        requests.push_back(r);
    }
    {
        Request r;
        r.op = Op::Result;
        r.job = "0123456789abcdef";
        requests.push_back(r);
    }
    {
        Request r;
        r.op = Op::Stats;
        requests.push_back(r);
    }
    {
        Request r;
        r.op = Op::Shutdown;
        requests.push_back(r);
    }

    for (const auto &request : requests) {
        const std::string line = encodeRequest(request);
        Request reparsed;
        std::string error;
        ASSERT_TRUE(parseRequest(line, reparsed, error))
            << line << ": " << error;
        // Bytes are the contract: re-encoding must reproduce the
        // line exactly.
        EXPECT_EQ(encodeRequest(reparsed), line);
        EXPECT_EQ(reparsed.op, request.op);
        EXPECT_EQ(reparsed.app, request.app);
        EXPECT_EQ(reparsed.job, request.job);
    }
}

TEST(ServeProtocol, MalformedRequestsAreRejected)
{
    const std::vector<std::string> bad = {
        "",
        "not json",
        "[1,2,3]",
        "{\"op\":\"fly\"}",
        "{\"op\":\"poll\"}",
        "{\"op\":\"poll\",\"job\":\"short\"}",
        "{\"op\":\"poll\",\"job\":\"XYZ456789abcdef0\"}",
        "{\"op\":\"stats\",\"extra\":1}",
        "{\"op\":\"submit\",\"app\":\"mcf\"}",
        "{\"op\":\"submit\",\"app\":\"\",\"config\":{}}",
        // Duplicate members used to keep the last one.
        "{\"op\":\"poll\",\"op\":\"stats\"}",
        // Unbounded nesting used to overflow the parser's stack.
        std::string(100'000, '['),
    };
    for (const auto &line : bad) {
        Request request;
        std::string error;
        EXPECT_FALSE(parseRequest(line, request, error))
            << "accepted: " << line;
        EXPECT_FALSE(error.empty());
    }
}

/** True when @p frame is rejected with a message, or decodes to a
 *  request whose canonical encoding re-parses to itself. */
::testing::AssertionResult
rejectedOrCanonical(const std::string &frame)
{
    Request request;
    std::string error;
    if (!parseRequest(frame, request, error)) {
        if (error.empty())
            return ::testing::AssertionFailure()
                   << "rejected without a message";
        return ::testing::AssertionSuccess();
    }
    const std::string line = encodeRequest(request);
    Request again;
    if (!parseRequest(line, again, error))
        return ::testing::AssertionFailure()
               << "accepted, but its encoding " << line
               << " is rejected: " << error;
    if (encodeRequest(again) != line)
        return ::testing::AssertionFailure()
               << "encoding " << line << " re-encodes as "
               << encodeRequest(again);
    return ::testing::AssertionSuccess();
}

TEST(ServeProtocol, SeededMutantsAreRejectedOrCanonical)
{
    // Every canonical frame, cut at every byte and hit with 2,000
    // seeded byte mutants: each is an error with a message or a
    // request that round-trips, never an abort.
    std::vector<Request> requests(5);
    requests[0].op = Op::Submit;
    requests[0].app = "synonym:shared-a3-k5-huge";
    requests[0].config = tinyConfig(IndexingPolicy::SiptPcax, 7);
    requests[0].config.xlatPredEntries = 64;
    requests[0].config.condition = sim::MemCondition::ThpOff;
    requests[0].config.footprintScale = 0.0537;
    requests[0].config.check = true;
    requests[1].op = Op::Poll;
    requests[1].job = "00000000deadbeef";
    requests[2].op = Op::Result;
    requests[2].job = "0123456789abcdef";
    requests[3].op = Op::Stats;
    requests[4].op = Op::Shutdown;

    constexpr std::uint64_t kMutants = 2'000;
    for (const Request &request : requests) {
        const std::string frame = encodeRequest(request);
        ASSERT_TRUE(rejectedOrCanonical(frame)) << frame;
        for (std::size_t n = 0; n < frame.size(); ++n) {
            EXPECT_TRUE(rejectedOrCanonical(frame.substr(0, n)))
                << "prefix " << n << " of " << frame;
        }
        for (std::uint64_t i = 0; i < kMutants; ++i) {
            const std::string mutant =
                testfix::mutantAt(frame, 0x5eed, i);
            EXPECT_TRUE(rejectedOrCanonical(mutant))
                << "mutant " << i << ": " << mutant;
        }
    }
    EXPECT_TRUE(rejectedOrCanonical(std::string(100'000, '[')));
    EXPECT_TRUE(rejectedOrCanonical(
        "{\"op\":" + std::string(100'000, '{')));
}

TEST(ServeProtocol, JobIdIsSixteenHexOfRunKey)
{
    const auto cfg = tinyConfig(IndexingPolicy::Vipt);
    const std::string key = sim::runKeyJson("mcf", cfg);
    const std::string id = jobIdFor(key);
    ASSERT_EQ(id.size(), 16u);
    for (const char c : id)
        EXPECT_TRUE((c >= '0' && c <= '9') ||
                    (c >= 'a' && c <= 'f'))
            << id;
    // Content-addressed: same key, same id; different key,
    // different id.
    EXPECT_EQ(jobIdFor(key), id);
    EXPECT_NE(jobIdFor(sim::runKeyJson(
                  "gcc", tinyConfig(IndexingPolicy::Vipt))),
              id);
}

/**
 * Golden wire fixtures: tests/fixtures/serve `.txt` transcripts of
 * `> request` / `< response` line pairs, replayed in order over a
 * real socket against a workerless (fully deterministic) server
 * with queue depth 1. Response bytes must match exactly, and
 * every accepted request line must re-encode to its own bytes.
 */
TEST(ServeFixtures, TranscriptsReplayByteIdentically)
{
    const std::filesystem::path fixture_dir(
        SIPT_SERVE_FIXTURE_DIR);
    std::vector<std::filesystem::path> fixtures;
    for (const auto &file :
         std::filesystem::directory_iterator(fixture_dir))
        if (file.path().extension() == ".txt")
            fixtures.push_back(file.path());
    std::sort(fixtures.begin(), fixtures.end());
    ASSERT_FALSE(fixtures.empty())
        << "no fixtures in " << fixture_dir;

    for (const auto &fixture : fixtures) {
        TestPaths paths("fixture");
        Server server(testOptions(paths, 0, 1));
        server.start();
        Client client(paths.socket());

        std::ifstream in(fixture);
        ASSERT_TRUE(in.is_open()) << fixture;
        std::string line;
        std::string request;
        bool have_request = false;
        int line_no = 0;
        while (std::getline(in, line)) {
            ++line_no;
            if (line.empty() || line[0] == '#')
                continue;
            ASSERT_GE(line.size(), 2u)
                << fixture << ":" << line_no;
            const std::string body = line.substr(2);
            if (line[0] == '>') {
                ASSERT_FALSE(have_request)
                    << fixture << ":" << line_no
                    << ": two requests in a row";
                request = body;
                have_request = true;
                continue;
            }
            ASSERT_EQ(line[0], '<')
                << fixture << ":" << line_no;
            ASSERT_TRUE(have_request)
                << fixture << ":" << line_no
                << ": response without request";
            have_request = false;

            // Direction 1: the live server must answer with
            // exactly the golden bytes.
            EXPECT_EQ(client.requestLine(request), body)
                << fixture << ":" << line_no;

            // Direction 2: anything the codec accepts must
            // re-encode to its own bytes.
            Request parsed;
            std::string error;
            if (parseRequest(request, parsed, error)) {
                EXPECT_EQ(encodeRequest(parsed), request)
                    << fixture << ":" << line_no;
            }
        }
        EXPECT_FALSE(have_request)
            << fixture << ": trailing unanswered request";
        server.stop();
    }
}

TEST(Serve, SubmitPollResultMatchesStandaloneEngine)
{
    TestPaths paths("e2e");
    Server server(testOptions(paths, 2));
    server.start();
    Client client(paths.socket());

    const auto cfg =
        tinyConfig(IndexingPolicy::SiptCombined);
    const auto submitted =
        Json::parse(client.requestLine(submitLine("mcf", cfg)));
    ASSERT_TRUE(submitted.has_value());
    ASSERT_TRUE(submitted->find("job") != nullptr)
        << submitted->dump();
    const std::string job =
        submitted->find("job")->asString();
    EXPECT_EQ(job, jobIdFor(sim::runKeyJson("mcf", cfg)));

    EXPECT_EQ(awaitJob(client, job), "done");

    Request result;
    result.op = Op::Result;
    result.job = job;
    const auto response =
        Json::parse(client.requestLine(encodeRequest(result)));
    const Json *metrics = response->find("metrics");
    ASSERT_TRUE(metrics != nullptr) << response->dump();

    // The client-visible metrics must be byte-identical to a
    // direct engine run — the same guarantee CI's daemon smoke
    // step enforces through the CLI.
    EXPECT_EQ(
        metrics->dump(),
        metricsPayload(sim::runSingleCore("mcf", cfg)).dump());
    server.stop();
}

TEST(Serve, DuplicateSubmissionsShareOneJob)
{
    TestPaths paths("dedup");
    Server server(testOptions(paths, 2));
    server.start();
    Client a(paths.socket());
    Client b(paths.socket());

    const auto cfg =
        tinyConfig(IndexingPolicy::SiptBypass);
    const std::string line = submitLine("mcf", cfg);
    const auto first = Json::parse(a.requestLine(line));
    const auto second = Json::parse(b.requestLine(line));
    ASSERT_TRUE(first->find("job") != nullptr);
    ASSERT_TRUE(second->find("job") != nullptr);
    // Content-addressed ids collapse the submissions.
    EXPECT_EQ(first->find("job")->asString(),
              second->find("job")->asString());

    const std::string job = first->find("job")->asString();
    EXPECT_EQ(awaitJob(a, job), "done");

    // Exactly one job went through the queue.
    Request stats;
    stats.op = Op::Stats;
    const auto after =
        Json::parse(a.requestLine(encodeRequest(stats)));
    const Json *queue = after->find("stats")->find("queue");
    EXPECT_EQ(queue->find("started")->asUint(), 1u);

    // Both clients read byte-identical results.
    Request result;
    result.op = Op::Result;
    result.job = job;
    EXPECT_EQ(a.requestLine(encodeRequest(result)),
              b.requestLine(encodeRequest(result)));
    server.stop();
}

TEST(Serve, ResubmitAfterRestartIsServedFromTheStore)
{
    TestPaths paths("restart");
    const auto cfg =
        tinyConfig(IndexingPolicy::SiptNaive);
    std::string first_result;
    {
        Server server(testOptions(paths, 2));
        server.start();
        Client client(paths.socket());
        const auto submitted = Json::parse(
            client.requestLine(submitLine("mcf", cfg)));
        const std::string job =
            submitted->find("job")->asString();
        EXPECT_EQ(awaitJob(client, job), "done");
        Request result;
        result.op = Op::Result;
        result.job = job;
        first_result =
            client.requestLine(encodeRequest(result));
        server.stop();
    }
    {
        // Same store dir, fresh daemon: the published entry file
        // survives the restart, so the resubmit is "cached" and
        // the bytes match without re-running.
        Server server(testOptions(paths, 2));
        server.start();
        Client client(paths.socket());
        const auto submitted = Json::parse(
            client.requestLine(submitLine("mcf", cfg)));
        EXPECT_EQ(submitted->find("state")->asString(),
                  "cached");
        Request result;
        result.op = Op::Result;
        result.job = submitted->find("job")->asString();
        EXPECT_EQ(client.requestLine(encodeRequest(result)),
                  first_result);
        Request stats;
        stats.op = Op::Stats;
        const auto after = Json::parse(
            client.requestLine(encodeRequest(stats)));
        EXPECT_EQ(after->find("stats")
                      ->find("queue")
                      ->find("started")
                      ->asUint(),
                  0u);
        server.stop();
    }
}

TEST(Serve, FullQueueRejectsWithRetryHint)
{
    TestPaths paths("busy");
    // No workers: the first submit parks in the depth-1 queue
    // forever, so the second distinct submit must be shed.
    Server server(testOptions(paths, 0, 1));
    server.start();
    Client client(paths.socket());

    const auto first = Json::parse(client.requestLine(
        submitLine("mcf",
                   tinyConfig(IndexingPolicy::Vipt))));
    EXPECT_EQ(first->find("state")->asString(), "queued");

    const auto second = Json::parse(client.requestLine(
        submitLine("mcf",
                   tinyConfig(IndexingPolicy::Ideal))));
    EXPECT_FALSE(second->find("ok")->asBool());
    EXPECT_EQ(second->find("error")->asString(), "busy");
    EXPECT_GT(second->find("retryAfterMs")->asUint(), 0u);

    // A duplicate of the queued job is NOT shed — it dedups.
    const auto dup = Json::parse(client.requestLine(
        submitLine("mcf",
                   tinyConfig(IndexingPolicy::Vipt))));
    EXPECT_EQ(dup->find("state")->asString(), "queued");
    server.stop();
}

TEST(Serve, MalformedFramesGetErrorsWithoutDroppingConnection)
{
    TestPaths paths("malformed");
    Server server(testOptions(paths, 0));
    server.start();
    Client client(paths.socket());

    const auto bad = Json::parse(
        client.requestLine("this is not a protocol frame"));
    EXPECT_FALSE(bad->find("ok")->asBool());
    EXPECT_EQ(bad->find("error")->asString(), "bad-request");
    // A frame nested 100k deep is rejected, not a stack overflow.
    const auto deep = Json::parse(
        client.requestLine(std::string(100'000, '[')));
    EXPECT_EQ(deep->find("error")->asString(), "bad-request");

    // The same connection keeps working afterwards.
    Request stats;
    stats.op = Op::Stats;
    const auto after =
        Json::parse(client.requestLine(encodeRequest(stats)));
    EXPECT_TRUE(after->find("ok")->asBool());
    EXPECT_EQ(after->find("stats")
                  ->find("jobs")
                  ->find("badRequests")
                  ->asUint(),
              2u);
    server.stop();
}

TEST(Serve, UnknownJobAndNotReadyErrors)
{
    TestPaths paths("errors");
    Server server(testOptions(paths, 0));
    server.start();
    Client client(paths.socket());

    Request poll;
    poll.op = Op::Poll;
    poll.job = "0123456789abcdef";
    const auto unknown =
        Json::parse(client.requestLine(encodeRequest(poll)));
    EXPECT_EQ(unknown->find("error")->asString(),
              "unknown-job");

    const auto submitted = Json::parse(client.requestLine(
        submitLine("mcf",
                   tinyConfig(IndexingPolicy::Vipt))));
    Request result;
    result.op = Op::Result;
    result.job = submitted->find("job")->asString();
    const auto not_ready =
        Json::parse(client.requestLine(encodeRequest(result)));
    EXPECT_EQ(not_ready->find("error")->asString(),
              "not-ready");
    EXPECT_EQ(not_ready->find("state")->asString(), "queued");
    server.stop();
}

} // namespace
} // namespace sipt::serve
