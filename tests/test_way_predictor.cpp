/**
 * @file
 * Tests for the MRU way predictor: prediction tracks the array's
 * MRU metadata through fills and touches, hit/miss accounting and
 * the mispredict latency penalty, accuracy over hits only, and
 * stat reset.
 */

#include <gtest/gtest.h>

#include "cache/cache_array.hh"
#include "cache/way_predictor.hh"

namespace sipt::cache
{
namespace
{

CacheGeometry
geom(std::uint64_t size, std::uint32_t assoc)
{
    CacheGeometry g;
    g.sizeBytes = size;
    g.assoc = assoc;
    g.lineBytes = 64;
    return g;
}

TEST(WayPredictor, PredictsMostRecentlyUsedWay)
{
    CacheArray a(geom(4 * 1024, 4));
    WayPredictor wp(a);

    // Two lines mapping to the same set; the last one touched is
    // the MRU way and must be the prediction.
    const Addr p0 = 0x10000;
    const Addr p1 = p0 + 4 * 1024; // same set, different tag
    const auto set = a.setOf(p0);
    ASSERT_EQ(a.setOf(p1), set);

    a.insert(set, p0, false);
    const int w0 = a.lookup(set, p0);
    ASSERT_GE(w0, 0);
    EXPECT_EQ(wp.predict(set),
              static_cast<std::uint32_t>(w0));

    a.insert(set, p1, false);
    const int w1 = a.lookup(set, p1);
    ASSERT_GE(w1, 0);
    EXPECT_EQ(wp.predict(set),
              static_cast<std::uint32_t>(w1));

    // Touching the first line again moves the prediction back.
    ASSERT_GE(a.lookup(set, p0), 0);
    EXPECT_EQ(wp.predict(set),
              static_cast<std::uint32_t>(w0));
}

TEST(WayPredictor, HitAccountingAndPenalty)
{
    CacheArray a(geom(4 * 1024, 4));
    WayPredictor wp(a);

    EXPECT_EQ(wp.recordHit(2, 2), 0u);
    EXPECT_EQ(wp.recordHit(1, 3), WayPredictor::mispredictPenalty);
    EXPECT_GT(WayPredictor::mispredictPenalty, 0u);
    EXPECT_EQ(wp.correct(), 1u);
    EXPECT_EQ(wp.wrong(), 1u);
    EXPECT_DOUBLE_EQ(wp.accuracy(), 0.5);
}

TEST(WayPredictor, MissesDoNotCountTowardAccuracy)
{
    CacheArray a(geom(4 * 1024, 4));
    WayPredictor wp(a);

    // Accuracy is defined over hits (as in the paper); an empty
    // predictor reports 0, and misses leave the ratio alone.
    EXPECT_DOUBLE_EQ(wp.accuracy(), 0.0);
    wp.recordMiss();
    wp.recordMiss();
    EXPECT_EQ(wp.misses(), 2u);
    EXPECT_DOUBLE_EQ(wp.accuracy(), 0.0);

    wp.recordHit(0, 0);
    EXPECT_DOUBLE_EQ(wp.accuracy(), 1.0);
    wp.recordMiss();
    EXPECT_DOUBLE_EQ(wp.accuracy(), 1.0);
}

TEST(WayPredictor, ResetStatsZeroesCounters)
{
    CacheArray a(geom(4 * 1024, 2));
    WayPredictor wp(a);

    wp.recordHit(0, 0);
    wp.recordHit(0, 1);
    wp.recordMiss();
    wp.resetStats();
    EXPECT_EQ(wp.correct(), 0u);
    EXPECT_EQ(wp.wrong(), 0u);
    EXPECT_EQ(wp.misses(), 0u);
    EXPECT_DOUBLE_EQ(wp.accuracy(), 0.0);

    // The predictor still works after a reset (warmup idiom).
    wp.recordHit(1, 1);
    EXPECT_DOUBLE_EQ(wp.accuracy(), 1.0);
}

TEST(WayPredictor, AllHitsOnRepeatedAccessPattern)
{
    // Repeatedly touching one line makes every MRU prediction
    // correct — the energy-saving case the paper quantifies.
    CacheArray a(geom(4 * 1024, 8));
    WayPredictor wp(a);
    const Addr paddr = 0x20000;
    const auto set = a.setOf(paddr);
    a.insert(set, paddr, false);

    for (int i = 0; i < 100; ++i) {
        const auto predicted = wp.predict(set);
        const int way = a.lookup(set, paddr);
        ASSERT_GE(way, 0);
        wp.recordHit(predicted, static_cast<std::uint32_t>(way));
    }
    EXPECT_EQ(wp.correct(), 100u);
    EXPECT_EQ(wp.wrong(), 0u);
    EXPECT_DOUBLE_EQ(wp.accuracy(), 1.0);
}

} // namespace
} // namespace sipt::cache
