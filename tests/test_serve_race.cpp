/**
 * @file
 * Multi-client race tests for the serve daemon, designed to run
 * under TSan in CI alongside test_sweep_race.cpp: 8 client
 * threads hammer overlapping submissions at a 4-worker daemon
 * over real sockets. The service contract under contention:
 * every unique (app, config) key executes exactly once, and every
 * client reads byte-identical result bytes for a given key.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/sweep.hh"

namespace sipt::serve
{
namespace
{

sim::SystemConfig
tiny(IndexingPolicy policy, std::uint64_t seed)
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

/** The overlapping job mix: 6 unique keys, submitted by all 8
 *  clients in different orders. */
std::vector<std::pair<std::string, sim::SystemConfig>>
jobMix()
{
    return {
        {"mcf", tiny(IndexingPolicy::Vipt, 1)},
        {"mcf", tiny(IndexingPolicy::SiptCombined, 1)},
        {"gcc", tiny(IndexingPolicy::SiptCombined, 1)},
        {"gcc", tiny(IndexingPolicy::SiptNaive, 2)},
        {"lbm", tiny(IndexingPolicy::Ideal, 1)},
        {"mcf", tiny(IndexingPolicy::SiptCombined, 3)},
    };
}

TEST(ServeRace, OverlappingClientsExecuteEachKeyExactlyOnce)
{
    const auto root = std::filesystem::temp_directory_path() /
                      "sipt_serve_race";
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);

    ServerOptions options;
    options.socketPath = (root / "s.sock").string();
    options.storeDir = (root / "store").string();
    options.workers = 4;
    options.queueDepth = 64;
    Server server(options);
    server.start();

    const auto mix = jobMix();
    constexpr unsigned clients = 8;

    // client index -> (job id -> result response bytes)
    std::vector<std::map<std::string, std::string>> observed(
        clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            Client client(options.socketPath);
            // Each client walks the mix from a different start
            // so submissions overlap in every order.
            std::vector<std::string> ids;
            for (std::size_t i = 0; i < mix.size(); ++i) {
                const auto &[app, cfg] =
                    mix[(i + c) % mix.size()];
                Request submit;
                submit.op = Op::Submit;
                submit.app = app;
                submit.config = cfg;
                const auto response = Json::parse(
                    client.requestLine(encodeRequest(submit)));
                ASSERT_TRUE(response.has_value());
                const Json *job = response->find("job");
                ASSERT_TRUE(job != nullptr)
                    << response->dump();
                ids.push_back(job->asString());
            }
            for (const auto &id : ids) {
                // Poll to completion, then fetch the result.
                for (;;) {
                    Request poll;
                    poll.op = Op::Poll;
                    poll.job = id;
                    const auto state = Json::parse(
                        client.requestLine(
                            encodeRequest(poll)));
                    const Json *s = state->find("state");
                    ASSERT_TRUE(s != nullptr &&
                                s->isString());
                    ASSERT_NE(s->asString(), "failed");
                    if (s->asString() == "done")
                        break;
                }
                Request result;
                result.op = Op::Result;
                result.job = id;
                observed[c][id] = client.requestLine(
                    encodeRequest(result));
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    // Every client saw every unique job.
    for (unsigned c = 0; c < clients; ++c)
        EXPECT_EQ(observed[c].size(), mix.size());

    // Duplicate fetches are byte-identical across clients.
    for (const auto &[id, bytes] : observed[0])
        for (unsigned c = 1; c < clients; ++c) {
            auto it = observed[c].find(id);
            ASSERT_NE(it, observed[c].end());
            EXPECT_EQ(it->second, bytes)
                << "client " << c << " diverged on " << id;
        }

    // Exactly-once: the queue ran one job per unique key despite
    // 8x redundant submissions.
    Client client(options.socketPath);
    Request stats;
    stats.op = Op::Stats;
    const auto after =
        Json::parse(client.requestLine(encodeRequest(stats)));
    const Json *payload = after->find("stats");
    ASSERT_TRUE(payload != nullptr);
    EXPECT_EQ(payload->find("queue")->find("started")->asUint(),
              mix.size());
    EXPECT_EQ(payload->find("jobs")->find("done")->asUint(),
              mix.size());
    EXPECT_EQ(payload->find("jobs")->find("failed")->asUint(),
              0u);

    server.stop();
    std::filesystem::remove_all(root);
}

} // namespace
} // namespace sipt::serve
