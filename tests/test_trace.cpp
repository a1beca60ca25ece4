/**
 * @file
 * Tests for the JSONL event tracer: event ordering and content,
 * JSONL well-formedness of every emitted line, lane allocation,
 * and the disabled tracer writing nothing.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/trace.hh"
#include "sipt/l1_cache.hh"

using namespace sipt;
using namespace sipt::trace;

namespace
{

/** A tracer writing into a scratch file that is removed on exit. */
class TraceFile
{
  public:
    TraceFile()
        : path_(testing::TempDir() + "/sipt-trace-test-" +
                std::to_string(reinterpret_cast<std::uintptr_t>(
                    this)) +
                ".jsonl"),
          tracer_(path_)
    {
    }

    ~TraceFile() { std::remove(path_.c_str()); }

    Tracer &tracer() { return tracer_; }

    /** Flush and parse every line back as JSON. */
    std::vector<Json>
    lines()
    {
        tracer_.flush();
        std::ifstream in(path_);
        std::vector<Json> parsed;
        std::string line;
        while (std::getline(in, line)) {
            auto j = Json::parse(line);
            EXPECT_TRUE(j.has_value()) << "bad JSONL: " << line;
            if (j)
                parsed.push_back(std::move(*j));
        }
        return parsed;
    }

  private:
    std::string path_;
    Tracer tracer_;
};

} // namespace

TEST(Trace, OutcomeNames)
{
    // The trace's "args.outcome" vocabulary is the L1's decision
    // names; both bypass decisions are one outcome there.
    EXPECT_STREQ(specDecisionName(SpecDecision::Direct), "direct");
    EXPECT_STREQ(specDecisionName(SpecDecision::Speculate),
                 "speculate");
    EXPECT_STREQ(specDecisionName(SpecDecision::BypassCorrect),
                 "bypass");
    EXPECT_STREQ(specDecisionName(SpecDecision::BypassLoss),
                 "bypass");
    EXPECT_STREQ(specDecisionName(SpecDecision::Replay), "replay");
    EXPECT_STREQ(specDecisionName(SpecDecision::DeltaHit),
                 "delta-hit");
}

TEST(Trace, DisabledTracerWritesNothing)
{
    Tracer t("");
    EXPECT_FALSE(t.enabled());
    // Every emit path must be a no-op, not a crash.
    t.access(0, AccessEvent{});
    t.predictor(0, PredictorEvent{});
    t.fill(0, 0x1000, 5, 20);
    t.simSpan("core", "run", 0, 0.0, 10.0);
    t.span("sweep", "task", 0, 0.0, 1.0);
    t.flush();
    EXPECT_EQ(t.events(), 0u);
}

TEST(Trace, LanesAreUnique)
{
    TraceFile f;
    const auto a = f.tracer().newLane();
    const auto b = f.tracer().newLane();
    const auto c = f.tracer().newLane();
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
    EXPECT_NE(a, c);
}

TEST(Trace, AccessEventRoundTrips)
{
    TraceFile f;
    AccessEvent e;
    e.policy = "sipt-combined";
    e.outcome = "replay";
    e.pc = 0x400100;
    e.vaddr = 0x7fff0040;
    e.cycle = 123;
    e.tlbLatency = 130;
    e.l1Latency = 9;
    e.hit = true;
    e.fast = false;
    f.tracer().access(7, e);

    const auto lines = f.lines();
    ASSERT_EQ(lines.size(), 1u);
    const Json &j = lines[0];
    EXPECT_EQ(j.get("name").asString(), "l1-access");
    EXPECT_EQ(j.get("cat").asString(), "sipt");
    EXPECT_EQ(j.get("ph").asString(), "X");
    EXPECT_EQ(j.get("pid").asUint(), 1u);
    EXPECT_EQ(j.get("tid").asUint(), 7u);
    EXPECT_DOUBLE_EQ(j.get("ts").asDouble(), 123.0);
    EXPECT_DOUBLE_EQ(j.get("dur").asDouble(), 9.0);
    const Json &args = j.get("args");
    EXPECT_EQ(args.get("policy").asString(), "sipt-combined");
    EXPECT_EQ(args.get("outcome").asString(), "replay");
    EXPECT_EQ(args.get("pc").asUint(), 0x400100u);
    EXPECT_EQ(args.get("vaddr").asUint(), 0x7fff0040u);
    EXPECT_EQ(args.get("tlbLatency").asUint(), 130u);
    EXPECT_EQ(args.get("l1Latency").asUint(), 9u);
    EXPECT_TRUE(args.get("hit").asBool());
    EXPECT_FALSE(args.get("fast").asBool());
}

TEST(Trace, PredictorEventRoundTrips)
{
    TraceFile f;
    PredictorEvent e;
    e.predictor = "bypass-perceptron";
    e.pc = 0x400200;
    e.seq = 42;
    e.decision = "bypass";
    e.predicted = 0;
    e.actual = 1;
    e.correct = false;
    f.tracer().predictor(3, e);

    const auto lines = f.lines();
    ASSERT_EQ(lines.size(), 1u);
    const Json &j = lines[0];
    EXPECT_EQ(j.get("name").asString(), "bypass-perceptron");
    EXPECT_EQ(j.get("cat").asString(), "predictor");
    EXPECT_DOUBLE_EQ(j.get("ts").asDouble(), 42.0);
    const Json &args = j.get("args");
    EXPECT_EQ(args.get("decision").asString(), "bypass");
    EXPECT_EQ(args.get("predicted").asUint(), 0u);
    EXPECT_EQ(args.get("actual").asUint(), 1u);
    EXPECT_FALSE(args.get("correct").asBool());
}

TEST(Trace, EventsPreserveEmissionOrder)
{
    TraceFile f;
    const auto lane = f.tracer().newLane();
    for (std::uint64_t i = 0; i < 10; ++i)
        f.tracer().fill(lane, 0x1000 * i, i, 20);
    EXPECT_EQ(f.tracer().events(), 10u);

    const auto lines = f.lines();
    ASSERT_EQ(lines.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i) {
        EXPECT_EQ(lines[i].get("name").asString(), "below-fill");
        EXPECT_DOUBLE_EQ(lines[i].get("ts").asDouble(),
                         static_cast<double>(i));
        EXPECT_EQ(lines[i].get("args").get("paddr").asUint(),
                  0x1000u * i);
    }
}

TEST(Trace, SpanTimelinesSplitByPid)
{
    TraceFile f;
    f.tracer().simSpan("core", "core-run-ooo", 1, 100.0, 5000.0);
    f.tracer().span("sweep", "run:mcf:vipt", 2, 10.0, 250.0);

    const auto lines = f.lines();
    ASSERT_EQ(lines.size(), 2u);
    // Simulated time rides pid 1; wall-clock spans ride pid 0.
    EXPECT_EQ(lines[0].get("pid").asUint(), 1u);
    EXPECT_EQ(lines[0].get("name").asString(), "core-run-ooo");
    EXPECT_EQ(lines[1].get("pid").asUint(), 0u);
    EXPECT_EQ(lines[1].get("name").asString(), "run:mcf:vipt");
    EXPECT_DOUBLE_EQ(lines[1].get("dur").asDouble(), 250.0);
}

TEST(Trace, GlobalDisabledWithoutEnv)
{
    // The test binary never sets SIPT_TRACE, so the process-wide
    // tracer must be off and its pointer form null.
    ASSERT_EQ(std::getenv("SIPT_TRACE"), nullptr);
    EXPECT_FALSE(Tracer::global().enabled());
    EXPECT_EQ(Tracer::globalIfEnabled(), nullptr);
}
