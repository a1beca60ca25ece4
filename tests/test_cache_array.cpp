/**
 * @file
 * Tests for the set-associative cache array: geometry math,
 * lookup/insert/invalidate, dirty tracking, true-LRU replacement
 * against a reference model, and the speculative-bits helper.
 */

#include <algorithm>
#include <list>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache_array.hh"
#include "common/rng.hh"

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

TEST(CacheGeometry, DerivedQuantities)
{
    const auto g = geom(32 * 1024, 8);
    EXPECT_EQ(g.numSets(), 64u);
    EXPECT_EQ(g.speculativeBits(), 0u); // 4 KiB way = VIPT OK

    EXPECT_EQ(geom(32 * 1024, 2).speculativeBits(), 2u);
    EXPECT_EQ(geom(32 * 1024, 4).speculativeBits(), 1u);
    EXPECT_EQ(geom(64 * 1024, 4).speculativeBits(), 2u);
    EXPECT_EQ(geom(128 * 1024, 4).speculativeBits(), 3u);
    EXPECT_EQ(geom(16 * 1024, 4).speculativeBits(), 0u);
}

TEST(CacheArray, MissThenHit)
{
    CacheArray a(geom(4 * 1024, 2));
    const Addr paddr = 0xabcd00;
    const auto set = a.setOf(paddr);
    EXPECT_LT(set, a.numSets());
    EXPECT_EQ(a.probe(set, paddr), -1);
    a.insert(set, paddr, false);
    EXPECT_GE(a.probe(set, paddr), 0);
    EXPECT_GE(a.lookup(set, paddr), 0);
    EXPECT_EQ(a.validLines(), 1u);
}

TEST(CacheArray, SameLineDifferentOffsetHits)
{
    CacheArray a(geom(4 * 1024, 2));
    const Addr paddr = 0x10000;
    a.insert(a.setOf(paddr), paddr, false);
    EXPECT_GE(a.probe(a.setOf(paddr + 63), paddr + 63), 0);
    EXPECT_EQ(a.probe(a.setOf(paddr + 64), paddr + 64), -1);
}

TEST(CacheArray, WrongSetNeverFalseHits)
{
    // The SIPT safety property: probing with a wrong speculative
    // set cannot return another line (full-address tags).
    CacheArray a(geom(32 * 1024, 2));
    const Addr paddr = 0x40000; // set depends on bits 13:6
    a.insert(a.setOf(paddr), paddr, false);
    for (std::uint32_t s = 0; s < a.numSets(); ++s) {
        if (s == a.setOf(paddr))
            continue;
        EXPECT_EQ(a.probe(s, paddr), -1);
    }
}

TEST(CacheArray, EvictionReportsDirtyVictim)
{
    CacheArray a(geom(2 * 64 * 2, 2)); // 2 sets, 2 ways
    const auto set = a.setOf(0);
    a.insert(set, 0, true);                 // dirty
    a.insert(set, 256, false);              // same set (2 sets)
    const auto ev = a.insert(set, 512, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, 0u);
    EXPECT_TRUE(ev->dirty);
}

TEST(CacheArray, SetDirtyMarksLine)
{
    CacheArray a(geom(4 * 1024, 2));
    const Addr paddr = 0x1000;
    const auto set = a.setOf(paddr);
    a.insert(set, paddr, false);
    const int way = a.probe(set, paddr);
    ASSERT_GE(way, 0);
    a.setDirty(set, static_cast<std::uint32_t>(way));
    // Force eviction of the line and observe the dirty flag.
    std::optional<Eviction> ev;
    Addr alias = paddr;
    while (true) {
        alias += 4 * 1024 * 2; // same set in this geometry
        ev = a.insert(set, alias, false);
        if (ev && ev->lineAddr == paddr)
            break;
    }
    EXPECT_TRUE(ev->dirty);
}

TEST(CacheArray, Invalidate)
{
    CacheArray a(geom(4 * 1024, 2));
    const Addr paddr = 0x2000;
    const auto set = a.setOf(paddr);
    a.insert(set, paddr, false);
    EXPECT_TRUE(a.invalidate(set, paddr));
    EXPECT_EQ(a.probe(set, paddr), -1);
    EXPECT_FALSE(a.invalidate(set, paddr));
}

TEST(CacheArray, MruTracksLastTouch)
{
    CacheArray a(geom(4 * 1024, 4));
    const auto set = a.setOf(0);
    const Addr stride = 4 * 1024;
    for (int i = 0; i < 4; ++i)
        a.insert(set, stride * i, false);
    a.lookup(set, stride * 1);
    EXPECT_EQ(a.mruWay(set),
              static_cast<std::uint32_t>(
                  a.probe(set, stride * 1)));
}

TEST(CacheArray, InsertResidentLinePanics)
{
#ifdef NDEBUG
    GTEST_SKIP() << "resident-line re-probe is a debug-only "
                    "assert (SIPT_DEBUG_ASSERT)";
#else
    CacheArray a(geom(4 * 1024, 2));
    a.insert(a.setOf(0), 0, false);
    EXPECT_DEATH(a.insert(a.setOf(0), 0, false), "resident");
#endif
}

/**
 * True-LRU cross-check against an exact reference model, swept
 * over geometries (a direct-mapped one, and a 12-way one whose
 * unused high recency nibbles must stay out of the way). Lookups,
 * inserts, invalidations and re-inserts interleave; after every
 * operation the array's MRU way must be the model's front.
 */
class LruReference
    : public ::testing::TestWithParam<std::pair<std::uint64_t,
                                                std::uint32_t>>
{
};

TEST_P(LruReference, MatchesListModel)
{
    const auto [size, assoc] = GetParam();
    CacheArray a(geom(size, assoc));
    // Reference: per set, every way in recency order (MRU at
    // front, untouched ways in way order) and the line each valid
    // way holds. An invalidation frees a way without reordering.
    struct RefSet
    {
        std::list<std::uint32_t> order;
        std::vector<std::optional<Addr>> lines;
    };
    std::map<std::uint32_t, RefSet> ref;
    Rng rng(size + assoc);
    // Twice the capacity in distinct lines: hits and evictions mix.
    const std::uint64_t lines = 2ull * a.numSets() * assoc;

    for (int i = 0; i < 50000; ++i) {
        const Addr paddr = rng.below(lines) << lineShift;
        const auto set = a.setOf(paddr);
        auto [it, fresh] = ref.try_emplace(set);
        RefSet &model = it->second;
        if (fresh) {
            for (std::uint32_t w = 0; w < assoc; ++w)
                model.order.push_back(w);
            model.lines.resize(assoc);
        }
        const Addr line = paddr >> lineShift;
        const auto held =
            std::find(model.lines.begin(), model.lines.end(), line);
        const int want =
            held == model.lines.end()
                ? -1
                : static_cast<int>(held - model.lines.begin());
        const auto toFront = [&model](std::uint32_t way) {
            model.order.remove(way);
            model.order.push_front(way);
        };

        if (rng.below(8) == 0) {
            ASSERT_EQ(a.invalidate(set, paddr), want >= 0)
                << "invalidate disagrees with the model";
            if (want >= 0)
                model.lines[static_cast<std::size_t>(want)].reset();
        } else if (want >= 0) {
            ASSERT_EQ(a.lookup(set, paddr), want)
                << "model hit, array miss or wrong way";
            toFront(static_cast<std::uint32_t>(want));
        } else {
            ASSERT_EQ(a.lookup(set, paddr), -1)
                << "model miss, array hit";
            const auto hole = std::find(model.lines.begin(),
                                        model.lines.end(),
                                        std::nullopt);
            const std::uint32_t victim =
                hole != model.lines.end()
                    ? static_cast<std::uint32_t>(
                          hole - model.lines.begin())
                    : model.order.back();
            const auto ev = a.insert(set, paddr, false);
            if (model.lines[victim]) {
                ASSERT_TRUE(ev.has_value());
                ASSERT_EQ(ev->lineAddr >> lineShift,
                          *model.lines[victim])
                    << "wrong LRU victim";
            } else {
                ASSERT_FALSE(ev.has_value());
            }
            ASSERT_EQ(a.probe(set, paddr),
                      static_cast<int>(victim))
                << "fill not in the lowest free or LRU way";
            model.lines[victim] = line;
            toFront(victim);
        }
        ASSERT_EQ(a.mruWay(set), model.order.front())
            << "MRU way differs from the model";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LruReference,
    ::testing::Values(std::make_pair(4ull * 1024, 2u),
                      std::make_pair(8ull * 1024, 4u),
                      std::make_pair(32ull * 1024, 8u),
                      std::make_pair(16ull * 1024, 16u),
                      std::make_pair(1ull * 1024, 1u),
                      std::make_pair(12ull * 1024, 12u)));

TEST(CacheArray, BadGeometryIsFatal)
{
    EXPECT_EXIT(CacheArray a(geom(0, 2)),
                ::testing::ExitedWithCode(1), "zero");
    EXPECT_EXIT(CacheArray a(CacheGeometry{4096, 0, 64}),
                ::testing::ExitedWithCode(1), "zero");
    EXPECT_EXIT(CacheArray a(CacheGeometry{4096, 2, 0}),
                ::testing::ExitedWithCode(1), "zero");
    EXPECT_EXIT(CacheArray a(geom(4096, 32)),
                ::testing::ExitedWithCode(1), "associativity");
    EXPECT_EXIT(CacheArray a(geom(4096, 64)),
                ::testing::ExitedWithCode(1), "associativity");
}

} // namespace
} // namespace sipt::cache
