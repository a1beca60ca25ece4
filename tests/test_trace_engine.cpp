/**
 * @file
 * Tracing is pure observation: an engine run of the combined
 * predictor with SIPT_TRACE set must produce exactly the result of
 * an untraced run (every L1Stats counter, the golden-model digest,
 * IPC and energy) and one `combined-index` event per predicted
 * access, numbered in access order.
 *
 * The process-wide tracer reads SIPT_TRACE once, on first use, so
 * the traced run happens in a forked child that sets the variable
 * before any component asks for the tracer. This binary holds this
 * one test so that nothing touches the tracer before the fork.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/trace.hh"
#include "sim/sweep.hh"

namespace sipt::sim
{
namespace
{

SystemConfig
combinedConfig()
{
    SystemConfig cfg;
    cfg.l1Config = L1Config::Sipt32K2;
    cfg.policy = IndexingPolicy::SiptCombined;
    cfg.warmupRefs = 1'000;
    cfg.measureRefs = 3'000;
    cfg.check = true;
    return cfg;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(TraceEngine, CombinedTracedRunMatchesUntraced)
{
    const std::string base = testing::TempDir() +
                             "/sipt-trace-engine-" +
                             std::to_string(getpid());
    const std::string trace_path = base + ".jsonl";
    const std::string result_path = base + ".result.json";

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Traced run: exit 0 only when the tracer was live and the
        // result was written.
        setenv("SIPT_TRACE", trace_path.c_str(), 1);
        int status = 2;
        if (trace::Tracer::globalIfEnabled() != nullptr) {
            const RunResult r =
                runSingleCore("mcf", combinedConfig());
            trace::Tracer::global().flush();
            std::ofstream out(result_path, std::ios::binary);
            out << runResultToJson(r).dump();
            status = out.good() ? 0 : 3;
        }
        std::fflush(nullptr);
        _exit(status);
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0)
        << "traced child failed (2 = tracer off, 3 = write error)";

    ASSERT_EQ(trace::Tracer::globalIfEnabled(), nullptr);
    const RunResult untraced = runSingleCore("mcf", combinedConfig());
    EXPECT_TRUE(untraced.checkFailure.empty())
        << untraced.checkFailure;
    EXPECT_GT(untraced.checkEvents, 0u);
    EXPECT_EQ(readFile(result_path), runResultToJson(untraced).dump());

    // One combined-index event per access that reached the
    // predictor (warmup and measurement alike), in order: the
    // sequence number is the event's timestamp.
    std::ifstream in(trace_path);
    std::string line;
    std::uint64_t predicted = 0;
    std::uint64_t accesses = 0;
    while (std::getline(in, line)) {
        const auto event = Json::parse(line);
        ASSERT_TRUE(event.has_value()) << line;
        const Json *name = event->find("name");
        if (name == nullptr || !name->isString())
            continue;
        if (name->asString() == "l1-access") {
            ++accesses;
        } else if (name->asString() == "combined-index") {
            EXPECT_EQ(event->get("ts").asDouble(),
                      static_cast<double>(predicted));
            ++predicted;
        }
    }
    const SystemConfig cfg = combinedConfig();
    EXPECT_EQ(predicted, cfg.warmupRefs + cfg.measureRefs);
    EXPECT_EQ(predicted, accesses);
    std::remove(trace_path.c_str());
    std::remove(result_path.c_str());
}

} // namespace
} // namespace sipt::sim
