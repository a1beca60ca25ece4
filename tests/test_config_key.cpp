/**
 * @file
 * SystemConfig as a run-cache key: field-wise equality and
 * hashValue() must react to every result-influencing field —
 * a field the key ignores would let the cache serve a stale
 * result for a different experiment.
 */

#include <array>

#include <gtest/gtest.h>

#include "sim/system.hh"

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

/** Mutate one field, expect inequality and a hash change. */
template <typename Mutate>
void
expectFieldMatters(const char *field, Mutate mutate)
{
    const SystemConfig base;
    SystemConfig changed = base;
    mutate(changed);
    EXPECT_FALSE(changed == base)
        << field << " does not participate in operator==";
    EXPECT_NE(hashValue(changed), hashValue(base))
        << field << " does not participate in hashValue()";
}

TEST(ConfigKey, EqualConfigsCompareAndHashEqual)
{
    const SystemConfig a;
    const SystemConfig b;
    EXPECT_TRUE(a == b);
    EXPECT_EQ(hashValue(a), hashValue(b));

    SystemConfig c;
    c.policy = IndexingPolicy::SiptCombined;
    c.l1Config = L1Config::Sipt32K2;
    c.condition = MemCondition::Fragmented;
    c.footprintScale = 0.25;
    SystemConfig d = c;
    EXPECT_TRUE(c == d);
    EXPECT_EQ(hashValue(c), hashValue(d));
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
    // mutation here (perturb the field, expect operator== and
    // hashValue() unchanged). No field is exempt today, so a new
    // entry fails until its mutation is added.
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
            EXPECT_EQ(ca == cb, a == b);
            if (a != b) {
                EXPECT_NE(hashValue(ca), hashValue(cb));
            }
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

} // namespace
} // namespace sipt::sim
