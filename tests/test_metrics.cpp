/**
 * @file
 * Tests for the hierarchical metrics registry: counter/value
 * semantics, insertion-ordered nested serialisation, reset, and
 * the panics on path misuse.
 */

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/metrics.hh"

using namespace sipt;

TEST(Metrics, CountersAccumulate)
{
    MetricsRegistry m;
    m.addCounter("l1.hits");
    m.addCounter("l1.hits", 4);
    m.setCounter("l1.misses", 7);
    EXPECT_EQ(m.counter("l1.hits"), 5u);
    EXPECT_EQ(m.counter("l1.misses"), 7u);
    EXPECT_TRUE(m.has("l1.hits"));
    EXPECT_FALSE(m.has("l1.writebacks"));
    EXPECT_EQ(m.size(), 2u);
}

TEST(Metrics, ValuesAndWidening)
{
    MetricsRegistry m;
    m.setValue("ipc", 1.25);
    m.setCounter("cycles", 800);
    EXPECT_DOUBLE_EQ(m.value("ipc"), 1.25);
    // value() widens counters so callers can read either kind.
    EXPECT_DOUBLE_EQ(m.value("cycles"), 800.0);
}

TEST(Metrics, OverwriteKeepsOneEntry)
{
    MetricsRegistry m;
    m.setValue("energy.totalNj", 1.0);
    m.setValue("energy.totalNj", 2.5);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_DOUBLE_EQ(m.value("energy.totalNj"), 2.5);
}

TEST(Metrics, ResetDropsEverything)
{
    MetricsRegistry m;
    m.setCounter("a.b", 1);
    m.setValue("a.c", 2.0);
    m.reset();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_FALSE(m.has("a.b"));
    m.setCounter("a.b", 3);
    EXPECT_EQ(m.counter("a.b"), 3u);
}

TEST(Metrics, ToJsonNestsByDottedPath)
{
    MetricsRegistry m;
    m.setValue("summary.hmean.32K2w", 1.013);
    m.setValue("summary.hmean.16K4w", 1.002);
    m.setCounter("summary.apps", 26);
    m.setValue("ipc", 1.5);

    const Json j = m.toJson();
    ASSERT_TRUE(j.isObject());
    const Json &summary = j.get("summary");
    const Json &hmean = summary.get("hmean");
    EXPECT_DOUBLE_EQ(hmean.get("32K2w").asDouble(), 1.013);
    EXPECT_DOUBLE_EQ(hmean.get("16K4w").asDouble(), 1.002);
    EXPECT_EQ(summary.get("apps").asUint(), 26u);
    EXPECT_DOUBLE_EQ(j.get("ipc").asDouble(), 1.5);
    // The emitted document parses back byte for byte.
    const auto back = Json::parse(j.dump());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->dump(), j.dump());
}

TEST(Metrics, SerialisationIsInsertionOrderedAndStable)
{
    // Same fills in the same order must serialise identically —
    // this is what makes the figure JSON diffable run to run.
    const auto fill = [](MetricsRegistry &m) {
        m.setValue("z.late", 1.0);
        m.setCounter("a.early", 2);
        m.setValue("z.other", 3.0);
    };
    MetricsRegistry m1, m2;
    fill(m1);
    fill(m2);
    const std::string d1 = m1.toJson().dump();
    EXPECT_EQ(d1, m2.toJson().dump());
    // "z" was inserted first, so it serialises first.
    EXPECT_LT(d1.find("\"z\""), d1.find("\"a\""));
}

TEST(Metrics, PanicsOnKindMisuse)
{
    MetricsRegistry m;
    m.setValue("ipc", 1.0);
    EXPECT_DEATH(m.addCounter("ipc"), "value metric");
    EXPECT_DEATH(m.counter("ipc"), "not a counter");
    EXPECT_DEATH(m.counter("absent"), "no metric");
    EXPECT_DEATH(m.value("absent"), "no metric");
}

TEST(Metrics, PanicsOnBadPaths)
{
    MetricsRegistry m;
    EXPECT_DEATH(m.setCounter("", 1), "path");
    EXPECT_DEATH(m.setCounter("a..b", 1), "path");
    EXPECT_DEATH(m.setCounter(".a", 1), "path");
    EXPECT_DEATH(m.setCounter("a.", 1), "path");
}

TEST(Metrics, PanicsOnPrefixConflict)
{
    MetricsRegistry m;
    m.setValue("a", 1.0);
    m.setValue("a.b", 2.0);
    EXPECT_DEATH(m.toJson(), "prefix");
}
