/**
 * @file
 * Tests for the hierarchical metrics registry, read back through
 * its JSON: overwrite semantics, insertion-ordered nested
 * serialisation, and the panics on path misuse.
 */

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/metrics.hh"

using namespace sipt;

TEST(Metrics, OverwriteKeepsOneEntry)
{
    MetricsRegistry m;
    m.setValue("energy.totalNj", 1.0);
    m.setValue("energy.totalNj", 2.5);
    // A set on an existing path changes its kind too.
    m.setValue("cycles", 1.0);
    m.setCounter("cycles", 800);
    const Json j = m.toJson();
    ASSERT_EQ(j.size(), 2u);
    ASSERT_EQ(j.get("energy").size(), 1u);
    EXPECT_DOUBLE_EQ(j.get("energy").get("totalNj").asDouble(), 2.5);
    ASSERT_TRUE(j.get("cycles").isUint());
    EXPECT_EQ(j.get("cycles").asUint(), 800u);
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
