/**
 * @file
 * SystemConfig as a run-cache key: the canonical key (runKeyJson(),
 * built on configToJson()) must react to every result-influencing
 * field — a field the key ignores would let the cache serve a
 * stale result for a different experiment. The stream key
 * (streamKeyJson()) must react to every StreamSpec field and to
 * nothing else, and the machine fields must leave the stream
 * itself unchanged. Both keys' bytes are pinned for one config
 * whose fields all differ, so a positional slip in an encoder's
 * structured binding shows.
 */

#include <algorithm>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/hash.hh"
#include "sim/sweep.hh"

namespace sipt::sim
{
namespace
{

TEST(ConfigKey, EqualConfigsKeyEqual)
{
    const SystemConfig a;
    const SystemConfig b;
    EXPECT_EQ(runKeyJson("mcf", a), runKeyJson("mcf", b));

    SystemConfig c;
    c.policy = IndexingPolicy::SiptCombined;
    c.l1Config = L1Config::Sipt32K2;
    c.condition = MemCondition::Fragmented;
    c.footprintScale = 0.25;
    const SystemConfig d = c;
    EXPECT_EQ(runKeyJson("mcf", c), runKeyJson("mcf", d));
    // The app is part of the key too.
    EXPECT_NE(runKeyJson("mcf", c), runKeyJson("gcc", c));
}

TEST(ConfigKey, EveryFieldParticipates)
{
    const SystemConfig base;
    const std::string base_key = runKeyJson("mcf", base);
    SystemConfig c = base;
    // One binding per field: a new SystemConfig field fails to
    // compile here until it gets a mutation below.
    auto &[outOfOrder, l1Config, l1SizeBytes, l1Assoc, l1HitLatency,
           policy, xlatPredEntries, wayPrediction, radixWalker,
           condition, physMemBytes, warmupRefs, measureRefs, seed,
           footprintScale, check] = c;
    // The key of the mutated c must differ; then c is reset.
    const auto matters = [&](const char *field) {
        EXPECT_NE(runKeyJson("mcf", c), base_key)
            << field << " does not participate in the run key";
        c = base;
    };
    outOfOrder = !outOfOrder;
    matters("outOfOrder");
    l1Config = L1Config::Sipt64K4;
    matters("l1Config");
    l1SizeBytes = 8 * 1024;
    matters("l1SizeBytes");
    l1Assoc = 2;
    matters("l1Assoc");
    l1HitLatency = 3;
    matters("l1HitLatency");
    policy = IndexingPolicy::Ideal;
    matters("policy");
    xlatPredEntries = 64;
    matters("xlatPredEntries");
    wayPrediction = !wayPrediction;
    matters("wayPrediction");
    radixWalker = !radixWalker;
    matters("radixWalker");
    condition = MemCondition::NoContiguity;
    matters("condition");
    physMemBytes *= 2;
    matters("physMemBytes");
    warmupRefs += 1;
    matters("warmupRefs");
    measureRefs += 1;
    matters("measureRefs");
    seed += 1;
    matters("seed");
    footprintScale = 0.5;
    matters("footprintScale");
    check = !check;
    matters("check");
}

TEST(ConfigKey, KeyBytesArePinned)
{
    // Every field at a non-default value no other field shares: the
    // encoders bind fields by position, so two same-typed bindings
    // listed in the wrong order would move a value under another
    // member's name and change these bytes.
    SystemConfig c;
    c.outOfOrder = false;
    c.l1Config = L1Config::Sipt128K4;
    c.l1SizeBytes = 16 * 1024;
    c.l1Assoc = 2;
    c.l1HitLatency = 9;
    c.policy = IndexingPolicy::SiptRevelator;
    c.xlatPredEntries = 64;
    c.wayPrediction = true;
    c.radixWalker = true;
    c.condition = MemCondition::NoContiguity;
    c.physMemBytes = 2ull << 30;
    c.warmupRefs = 1111;
    c.measureRefs = 2222;
    c.seed = 7;
    c.footprintScale = 0.625;
    c.check = true;
    EXPECT_EQ(runKeyJson("mcf", c),
              R"({"kind":"single","app":"mcf","traceHash":0,"config":)"
              R"({"outOfOrder":false,"l1Config":5,"l1SizeBytes":16384,)"
              R"("l1Assoc":2,"l1HitLatency":9,"policy":6,)"
              R"("xlatPredEntries":64,"wayPrediction":true,)"
              R"("radixWalker":true,"condition":3,)"
              R"("physMemBytes":2147483648,"warmupRefs":1111,)"
              R"("measureRefs":2222,"seed":7,"footprintScale":0.625,)"
              R"("check":true}})");
    EXPECT_EQ(streamKeyJson("mcf", c),
              R"({"kind":"stream","app":"mcf","traceHash":0,"stream":)"
              R"({"condition":3,"physMemBytes":2147483648,)"
              R"("warmupRefs":1111,"measureRefs":2222,"seed":7,)"
              R"("footprintScale":0.625}})");

    // A bool has only two values, so the config above cannot tell
    // three set bools apart: set each alone and find it under its
    // own name.
    const std::pair<const char *, bool SystemConfig::*> bools[] = {
        {"outOfOrder", &SystemConfig::outOfOrder},
        {"wayPrediction", &SystemConfig::wayPrediction},
        {"radixWalker", &SystemConfig::radixWalker},
        {"check", &SystemConfig::check},
    };
    for (const auto &[name, field] : bools) {
        SystemConfig one;
        one.*field = !(one.*field);
        const std::string member = std::string("\"") + name + "\":" +
                                   (one.*field ? "true" : "false");
        EXPECT_NE(runKeyJson("mcf", one).find(member), std::string::npos)
            << name;
    }
}

TEST(ConfigKey, ConditionValuesAreDistinct)
{
    // Fig. 18 sweeps all four conditions against one another;
    // each pair must key differently.
    const MemCondition all[] = {
        MemCondition::Normal, MemCondition::Fragmented,
        MemCondition::ThpOff, MemCondition::NoContiguity};
    for (auto a : all) {
        for (auto b : all) {
            SystemConfig ca, cb;
            ca.condition = a;
            cb.condition = b;
            EXPECT_EQ(runKeyJson("mcf", ca) == runKeyJson("mcf", cb),
                      a == b);
        }
    }
}

TEST(ConfigKey, TraceAppNamesParse)
{
    EXPECT_TRUE(isTraceApp("trace:/tmp/x.sipttrace"));
    EXPECT_TRUE(isTraceApp("trace:relative/path"));
    EXPECT_FALSE(isTraceApp("mcf"));
    EXPECT_FALSE(isTraceApp(""));
    EXPECT_FALSE(isTraceApp("not-trace:x"));
    EXPECT_EQ(traceAppPath("trace:/tmp/x.sipttrace"),
              "/tmp/x.sipttrace");
}

TEST(ConfigKey, L1PresetNamesRoundTrip)
{
    EXPECT_EQ(l1ConfigFromName("baseline32k8"),
              L1Config::Baseline32K8);
    EXPECT_EQ(l1ConfigFromName("small16k4"),
              L1Config::Small16K4);
    EXPECT_EQ(l1ConfigFromName("sipt32k2"), L1Config::Sipt32K2);
    EXPECT_EQ(l1ConfigFromName("sipt32k4"), L1Config::Sipt32K4);
    EXPECT_EQ(l1ConfigFromName("sipt64k4"), L1Config::Sipt64K4);
    EXPECT_EQ(l1ConfigFromName("sipt128k4"),
              L1Config::Sipt128K4);
    // Case-insensitive; unknown names are nullopt, not fatal.
    EXPECT_EQ(l1ConfigFromName("SIPT32K2"), L1Config::Sipt32K2);
    EXPECT_EQ(l1ConfigFromName("vivt"), std::nullopt);
    EXPECT_EQ(l1ConfigFromName(""), std::nullopt);
}

TEST(ConfigKey, ConditionNamesRoundTrip)
{
    EXPECT_EQ(conditionFromName("normal"), MemCondition::Normal);
    EXPECT_EQ(conditionFromName("fragmented"),
              MemCondition::Fragmented);
    EXPECT_EQ(conditionFromName("thp-off"),
              MemCondition::ThpOff);
    EXPECT_EQ(conditionFromName("no-contig"),
              MemCondition::NoContiguity);
    EXPECT_EQ(conditionFromName("Fragmented"),
              MemCondition::Fragmented);
    EXPECT_EQ(conditionFromName("swapped"), std::nullopt);
}

/** Flip one StreamSpec field, expect a different stream key. */
template <typename Mutate>
void
expectStreamFieldMatters(const char *field, Mutate mutate)
{
    const SystemConfig base;
    SystemConfig changed = base;
    mutate(changed);
    EXPECT_NE(streamKeyJson("mcf", changed),
              streamKeyJson("mcf", base))
        << field << " does not participate in the stream key";
}

/** FNV digest of the first @p refs resolved references of
 *  @p app's Stream under @p config: vaddr, paddr, hugePage, pc, op
 *  and the non-memory gap before each. */
std::uint64_t
streamDigest(const std::string &app, const SystemConfig &config,
             std::uint64_t refs)
{
    Stream stream(app, streamSpec(config));
    std::uint64_t h = fnv1a64Init;
    auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b)
            h = fnv1a64Step(h, static_cast<std::uint8_t>(v >> (8 * b)));
    };
    while (refs > 0) {
        const auto want = static_cast<std::size_t>(
            std::min<std::uint64_t>(refs, cpu::RefBatch::capacity));
        const cpu::RefBatch &batch = stream.stages().next(want);
        for (std::size_t i = 0; i < batch.size; ++i) {
            mix(batch.vaddr[i]);
            mix(batch.paddr[i]);
            mix(batch.hugePage[i]);
            mix(batch.pc[i]);
            mix(static_cast<std::uint64_t>(batch.op[i]));
            mix(batch.nonMemBefore[i]);
        }
        refs -= batch.size;
        if (batch.size < want)
            break;
    }
    return h;
}

TEST(StreamKey, EveryStreamFieldParticipates)
{
    expectStreamFieldMatters("condition", [](SystemConfig &c) {
        c.condition = MemCondition::ThpOff;
    });
    expectStreamFieldMatters("physMemBytes", [](SystemConfig &c) {
        c.physMemBytes *= 2;
    });
    expectStreamFieldMatters("warmupRefs", [](SystemConfig &c) {
        c.warmupRefs += 1;
    });
    expectStreamFieldMatters("measureRefs", [](SystemConfig &c) {
        c.measureRefs += 1;
    });
    expectStreamFieldMatters("seed", [](SystemConfig &c) {
        c.seed += 1;
    });
    expectStreamFieldMatters("footprintScale", [](SystemConfig &c) {
        c.footprintScale = 0.5;
    });
    // The app is part of the key too.
    const SystemConfig c;
    EXPECT_NE(streamKeyJson("mcf", c), streamKeyJson("gcc", c));
}

TEST(StreamKey, MachineFieldsLeaveTheStreamUnchanged)
{
    // Every SystemConfig field outside StreamSpec, flipped: the
    // stream key and the resolved reference stream both stay put.
    const std::pair<const char *, void (*)(SystemConfig &)> flips[] = {
        {"outOfOrder", [](SystemConfig &c) { c.outOfOrder = false; }},
        {"l1Config",
         [](SystemConfig &c) { c.l1Config = L1Config::Sipt64K4; }},
        {"l1SizeBytes",
         [](SystemConfig &c) { c.l1SizeBytes = 8 * 1024; }},
        {"l1Assoc", [](SystemConfig &c) { c.l1Assoc = 2; }},
        {"l1HitLatency", [](SystemConfig &c) { c.l1HitLatency = 3; }},
        {"policy",
         [](SystemConfig &c) { c.policy = IndexingPolicy::SiptPcax; }},
        {"xlatPredEntries",
         [](SystemConfig &c) { c.xlatPredEntries = 64; }},
        {"wayPrediction",
         [](SystemConfig &c) { c.wayPrediction = true; }},
        {"radixWalker", [](SystemConfig &c) { c.radixWalker = true; }},
        {"check", [](SystemConfig &c) { c.check = !c.check; }},
    };
    constexpr std::uint64_t refs = 10'000;
    const SystemConfig base;
    const std::string key = streamKeyJson("mcf", base);
    const std::uint64_t digest = streamDigest("mcf", base, refs);
    for (const auto &[field, flip] : flips) {
        SystemConfig changed = base;
        flip(changed);
        EXPECT_NE(runKeyJson("mcf", changed), runKeyJson("mcf", base))
            << field << " is not a machine field";
        EXPECT_EQ(streamKeyJson("mcf", changed), key) << field;
        EXPECT_EQ(streamDigest("mcf", changed, refs), digest) << field;
    }
}

} // namespace
} // namespace sipt::sim
