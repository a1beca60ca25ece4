/**
 * @file
 * SystemConfig as a run-cache key: the canonical key (runKeyJson(),
 * built on configToJson()) must react to every result-influencing
 * field — a field the key ignores would let the cache serve a
 * stale result for a different experiment. The stream key
 * (streamKeyJson()) must react to every StreamSpec field and to
 * nothing else, and the machine fields must leave the stream
 * itself unchanged.
 */

#include <algorithm>
#include <array>

#include <gtest/gtest.h>

#include "common/hash.hh"
#include "sim/sweep.hh"

namespace sipt::sim
{
namespace
{

/**
 * The SystemConfig fields deliberately excluded from the run-cache
 * key. This list must match, name for name, the fields annotated
 * `// sipt-analyze: key-exempt(...)` in sim/system.hh — the
 * sipt-analyze config-key pass diffs the two, so the annotation
 * and this test cannot drift apart silently.
 */
constexpr std::array<const char *, 0> kKeyExemptFields = {};

/** Mutate one field, expect a different key. */
template <typename Mutate>
void
expectFieldMatters(const char *field, Mutate mutate)
{
    const SystemConfig base;
    SystemConfig changed = base;
    mutate(changed);
    EXPECT_NE(runKeyJson("mcf", changed), runKeyJson("mcf", base))
        << field << " does not participate in the run key";
}

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
    expectFieldMatters("outOfOrder", [](SystemConfig &c) {
        c.outOfOrder = !c.outOfOrder;
    });
    expectFieldMatters("l1Config", [](SystemConfig &c) {
        c.l1Config = L1Config::Sipt64K4;
    });
    expectFieldMatters("policy", [](SystemConfig &c) {
        c.policy = IndexingPolicy::Ideal;
    });
    expectFieldMatters("xlatPredEntries", [](SystemConfig &c) {
        c.xlatPredEntries = 64;
    });
    expectFieldMatters("wayPrediction", [](SystemConfig &c) {
        c.wayPrediction = !c.wayPrediction;
    });
    expectFieldMatters("radixWalker", [](SystemConfig &c) {
        c.radixWalker = !c.radixWalker;
    });
    expectFieldMatters("condition", [](SystemConfig &c) {
        c.condition = MemCondition::NoContiguity;
    });
    expectFieldMatters("physMemBytes", [](SystemConfig &c) {
        c.physMemBytes *= 2;
    });
    expectFieldMatters("warmupRefs", [](SystemConfig &c) {
        c.warmupRefs += 1;
    });
    expectFieldMatters("measureRefs", [](SystemConfig &c) {
        c.measureRefs += 1;
    });
    expectFieldMatters("seed", [](SystemConfig &c) {
        c.seed += 1;
    });
    expectFieldMatters("footprintScale", [](SystemConfig &c) {
        c.footprintScale = 0.5;
    });
    expectFieldMatters("l1SizeBytes", [](SystemConfig &c) {
        c.l1SizeBytes = 8 * 1024;
    });
    expectFieldMatters("l1Assoc", [](SystemConfig &c) {
        c.l1Assoc = 2;
    });
    expectFieldMatters("l1HitLatency", [](SystemConfig &c) {
        c.l1HitLatency = 3;
    });
    expectFieldMatters("check", [](SystemConfig &c) {
        c.check = !c.check;
    });
}

TEST(ConfigKey, ExemptListFlipsLeaveTheKeyUnchanged)
{
    // Every listed exemption must be proven outside the key by a
    // mutation here (perturb the field, expect runKeyJson()
    // unchanged). No field is exempt today, so a new entry fails
    // until its mutation is added.
    for (const char *field : kKeyExemptFields) {
        FAIL() << "kKeyExemptFields names `" << field
               << "` but this test has no mutation for it";
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
        {"check", [](SystemConfig &c) { c.check = true; }},
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
