/**
 * @file
 * Tests for the physical-memory conditioning tools: the
 * fragmenter reaches its unusable-free-space target while
 * honouring the free-memory floor and releases cleanly; the
 * system ager converges to its resident fraction and leaves a
 * fragmented (but not exhausted) allocator behind. The exactness
 * oracle keeps the fragmenter's original per-frame loops and checks
 * that the bulk passes leave every allocator in the same state.
 * ConditionedMemory.PinnedStateAtSeed42 pins the default machine's
 * conditioned allocator, under every memory condition, to digests
 * taken before the conditioning code last changed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "common/rng.hh"
#include "os/buddy_allocator.hh"
#include "os/fragmenter.hh"
#include "sim/system.hh"

namespace sipt::os
{
namespace
{

constexpr std::uint64_t kFrames = 1 << 14; // 64 MiB of 4K frames

/**
 * The fragmenter's original loops, kept as the oracle: a per-frame
 * allocate(0) drain, a std::sort of the pinned frames and a
 * per-element run scan that re-reads Fu before every frame. Leaves
 * the pinned frames, in MemoryFragmenter's order, in @p pinned.
 */
double
legacyFragmentTo(BuddyAllocator &b, double target_fu, unsigned j,
                 Rng &rng, double min_free_fraction,
                 std::vector<Pfn> &pinned)
{
    const auto min_free = static_cast<std::uint64_t>(
        min_free_fraction * static_cast<double>(b.totalFrames()));
    std::vector<Pfn> grabbed;
    while (b.freeFrames() > 0) {
        auto pfn = b.allocate(0);
        if (!pfn)
            break;
        grabbed.push_back(*pfn);
    }
    for (std::size_t i = grabbed.size(); i > 1; --i)
        std::swap(grabbed[i - 1], grabbed[rng.below(i)]);
    std::size_t idx = 0;
    while (b.freeFrames() < min_free && idx < grabbed.size())
        b.free(grabbed[idx++], 0);

    pinned.assign(grabbed.begin() + static_cast<long>(idx),
                  grabbed.end());
    if (b.unusableFreeSpaceIndex(j) > target_fu) {
        std::sort(pinned.begin(), pinned.end());
        std::vector<Pfn> keep;
        const std::uint64_t run = std::uint64_t{1} << j;
        std::size_t i = 0;
        while (i < pinned.size() &&
               b.unusableFreeSpaceIndex(j) > target_fu) {
            if ((pinned[i] & (run - 1)) == 0 &&
                i + run <= pinned.size() &&
                pinned[i + run - 1] == pinned[i] + run - 1) {
                for (std::uint64_t k = 0; k < run; ++k)
                    b.free(pinned[i + k], 0);
                i += run;
            } else {
                keep.push_back(pinned[i]);
                ++i;
            }
        }
        keep.insert(keep.end(), pinned.begin() + static_cast<long>(i),
                    pinned.end());
        pinned.swap(keep);
    }
    return b.unusableFreeSpaceIndex(j);
}

/** Allocate everything left with a fixed mixed-order sequence;
 *  returns every (order, base) handed out. Two allocators in the
 *  same state return the same list. */
std::vector<std::pair<unsigned, Pfn>>
drainMixed(BuddyAllocator &b)
{
    Rng rng(99);
    std::vector<std::pair<unsigned, Pfn>> out;
    while (b.freeFrames() > 0) {
        auto order = static_cast<unsigned>(rng.below(b.maxOrder() + 1));
        auto base = b.allocate(order);
        if (!base) {
            order = 0;
            base = b.allocate(0);
        }
        out.emplace_back(order, *base);
    }
    return out;
}

/** Whether @p sorted (ascending) still holds a whole naturally
 *  aligned run of 2^@p j frames. */
bool
holdsAlignedRun(const std::vector<Pfn> &sorted, unsigned j)
{
    const std::uint64_t run = std::uint64_t{1} << j;
    for (std::size_t i = 0; i + run <= sorted.size(); ++i) {
        if ((sorted[i] & (run - 1)) == 0 &&
            sorted[i + run - 1] == sorted[i] + run - 1)
            return true;
    }
    return false;
}

/** What the legacy and the shipped fragmenter produced from the
 *  same aged allocator. */
struct Compared
{
    double fu = 0;
    std::uint64_t pinned = 0;
    std::uint64_t freeFrames = 0;
    std::vector<Pfn> legacyPinned;
};

/**
 * Age two identical allocators of @p frames frames with the uptime
 * recipe, fragment one with the legacy loops and one with
 * MemoryFragmenter, and expect identical results: Fu, pinned count,
 * the RNG's next draw, every PFN a mixed-order drain returns, and
 * (after both release their pins) every PFN of a second drain.
 */
Compared
compareWithLegacy(std::uint64_t frames, double target_fu, unsigned j,
                  double min_free_fraction, std::uint64_t seed)
{
    BuddyAllocator legacy(frames), shipped(frames);
    Rng legacyRng(seed), shippedRng(seed);
    SystemAger legacyAger(legacy), shippedAger(shipped);
    legacyAger.age(SystemAger::uptimeChurnOps,
                   SystemAger::uptimeResidentFraction, legacyRng);
    shippedAger.age(SystemAger::uptimeChurnOps,
                    SystemAger::uptimeResidentFraction, shippedRng);

    Compared c;
    const double legacyFu = legacyFragmentTo(
        legacy, target_fu, j, legacyRng, min_free_fraction,
        c.legacyPinned);
    MemoryFragmenter frag(shipped);
    c.fu = frag.fragmentTo(target_fu, j, shippedRng,
                           min_free_fraction);
    c.pinned = frag.pinnedFrames();
    c.freeFrames = shipped.freeFrames();
    EXPECT_EQ(c.fu, legacyFu);
    EXPECT_EQ(c.pinned, c.legacyPinned.size());
    EXPECT_EQ(shipped.freeFrames(), legacy.freeFrames());
    EXPECT_EQ(shippedRng(), legacyRng());

    const auto legacyDrain = drainMixed(legacy);
    EXPECT_EQ(drainMixed(shipped), legacyDrain);
    EXPECT_FALSE(legacyDrain.empty());

    // Release order depends on the pinned list's order too.
    for (Pfn pfn : c.legacyPinned)
        legacy.free(pfn, 0);
    frag.release();
    EXPECT_EQ(drainMixed(shipped), drainMixed(legacy));
    return c;
}

TEST(MemoryFragmenter, ReachesTargetFu)
{
    BuddyAllocator b(kFrames);
    MemoryFragmenter frag(b);
    Rng rng(11);

    // The free-memory floor can stop the fragmenter an epsilon
    // short of the requested Fu; what matters is that it gets
    // close and reports the truth.
    const double achieved = frag.fragmentTo(0.9, 2, rng);
    EXPECT_GE(achieved, 0.88);
    EXPECT_DOUBLE_EQ(achieved, b.unusableFreeSpaceIndex(2));
    EXPECT_GT(frag.pinnedFrames(), 0u);

    // The free floor holds: at least a quarter of memory stays
    // allocatable (as order-0 pages).
    EXPECT_GE(b.freeFrames(), kFrames / 4);
}

TEST(MemoryFragmenter, ReleaseRestoresAllFrames)
{
    BuddyAllocator b(kFrames);
    Rng rng(12);
    {
        MemoryFragmenter frag(b);
        frag.fragmentTo(0.8, 1, rng);
        ASSERT_LT(b.freeFrames(), kFrames);
        frag.release();
        EXPECT_EQ(frag.pinnedFrames(), 0u);
    }
    // Every frame is free again and buddies re-coalesced: a
    // max-order allocation succeeds.
    EXPECT_EQ(b.freeFrames(), kFrames);
    EXPECT_EQ(b.largestFreeOrder(),
              static_cast<int>(b.maxOrder()));
}

TEST(MemoryFragmenter, FragmentationDefeatsLargeAllocations)
{
    // The conditioned allocator is the paper's Section VII-B
    // scenario: plenty of free memory, but almost none of it in
    // blocks large enough for huge-page-sized requests.
    BuddyAllocator b(kFrames);
    MemoryFragmenter frag(b);
    Rng rng(14);

    frag.fragmentTo(0.95, 4, rng);
    EXPECT_GE(b.freeFrames(), kFrames / 4);
    EXPECT_FALSE(b.canAllocate(9)); // no 2 MiB-ish block left
    EXPECT_TRUE(b.canAllocate(0));  // singles remain plentiful
}

TEST(FragmenterOracle, AllocateAllMatchesRepeatedAllocate)
{
    // An aged allocator holds free blocks of every order, in lists
    // whose order reflects the churn.
    BuddyAllocator legacy(kFrames), bulk(kFrames);
    Rng legacyRng(31), bulkRng(31);
    SystemAger legacyAger(legacy), bulkAger(bulk);
    legacyAger.age(SystemAger::uptimeChurnOps, 0.3, legacyRng);
    bulkAger.age(SystemAger::uptimeChurnOps, 0.3, bulkRng);
    ASSERT_GT(legacy.largestFreeOrder(), 2);

    std::vector<Pfn> expected;
    while (auto pfn = legacy.allocate(0))
        expected.push_back(*pfn);
    const MappedArray<Pfn> got = bulk.allocateAll();
    EXPECT_EQ(std::vector<Pfn>(got.begin(), got.end()), expected);
    EXPECT_EQ(bulk.freeFrames(), 0u);
    for (unsigned o = 0; o <= bulk.maxOrder(); ++o)
        EXPECT_EQ(bulk.freeBlocks(o), 0u) << "order " << o;

    // Every slot was cleared: the frames free back (no double-free
    // panic) into the same state as the per-frame loop's.
    for (std::size_t i = 0; i < got.size(); i += 3) {
        legacy.free(expected[i], 0);
        bulk.free(got[i], 0);
    }
    EXPECT_EQ(drainMixed(bulk), drainMixed(legacy));
}

TEST(FragmenterOracle, NoRunFreedAtHugeOrder)
{
    // The Fragmented condition's target: no whole 2^9 run stays
    // pinned, so phase 3 sorts but frees nothing.
    const Compared c =
        compareWithLegacy(std::uint64_t{1} << 16, 0.95, 9, 0.30, 41);
    EXPECT_EQ(c.fu, 1.0);
    EXPECT_EQ(c.freeFrames,
              static_cast<std::uint64_t>(0.30 * (1 << 16)));
    EXPECT_TRUE(std::is_sorted(c.legacyPinned.begin(),
                               c.legacyPinned.end()));
}

TEST(FragmenterOracle, FragmentedConditionAtFullSize)
{
    // The Fragmented condition itself: a 4 GiB machine, Fu(9) >=
    // 0.95 and a 30% floor. Its multi-megabyte drain list is a
    // dense array, and phase 3 re-sorts the pinned tail in place.
    const Compared c =
        compareWithLegacy(std::uint64_t{1} << 20, 0.95, 9, 0.30, 42);
    EXPECT_EQ(c.fu, 1.0);
    EXPECT_EQ(c.freeFrames,
              static_cast<std::uint64_t>(0.30 * (1 << 20)));
    EXPECT_GT(c.pinned * sizeof(Pfn),
              MappedArray<Pfn>::hugePageBytes);
}

TEST(FragmenterOracle, ScanToTheEndFreesEveryRun)
{
    // Fu 0 is out of reach: every aligned pinned run of 2 and 4
    // frames is released. The odd frame count leaves a partial last
    // bitmap word.
    for (unsigned j : {1u, 2u}) {
        const Compared c = compareWithLegacy(
            (std::uint64_t{1} << 16) + 37, 0.0, j, 0.30, 42 + j);
        EXPECT_GT(c.fu, 0.0);
        EXPECT_GT(c.freeFrames,
                  static_cast<std::uint64_t>(0.30 * ((1 << 16) + 37)))
            << "j=" << j;
        EXPECT_FALSE(holdsAlignedRun(c.legacyPinned, j)) << "j=" << j;
    }
}

TEST(FragmenterOracle, TargetReachedPartwayThroughTheScan)
{
    // A target between the phase-2 Fu and what freeing every run
    // would reach stops the scan partway: whole runs stay pinned.
    // j = 1 and 3 scan within a bitmap word; j = 6 and 7 need one
    // and two whole words (a low free floor leaves such runs).
    const struct
    {
        unsigned j;
        double target;
        double minFree;
    } cases[] = {{1, 0.45, 0.30}, {3, 0.6, 0.10}, {6, 0.5, 0.02},
                 {7, 0.75, 0.02}};
    for (const auto &k : cases) {
        const Compared c = compareWithLegacy(
            std::uint64_t{1} << 16, k.target, k.j, k.minFree, 50 + k.j);
        EXPECT_LE(c.fu, k.target) << "j=" << k.j;
        EXPECT_TRUE(holdsAlignedRun(c.legacyPinned, k.j))
            << "j=" << k.j;
    }
}

/** Folds 64-bit values into a running FNV-1a hash. */
struct Digest
{
    std::uint64_t h = fnv1a64Init;

    void
    add(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b)
            h = fnv1a64Step(h, static_cast<std::uint8_t>(v >> (8 * b)));
    }
};

TEST(ConditionedMemory, PinnedStateAtSeed42)
{
    // The default 4 GiB machine at seed 42: every order's free
    // list in list order, the free count, the ager's resident
    // blocks and the fragmenter's pinned frames in release order,
    // then the conditioning RNG's next draw.
    const struct
    {
        sim::MemCondition condition;
        std::uint64_t digest;
        std::uint64_t nextDraw;
    } pins[] = {
        {sim::MemCondition::Normal, 0xb8b0f27071e092ed,
         0x655ae2b4559bd860},
        {sim::MemCondition::Fragmented, 0x8c150ca800b592bf,
         0x1b4777720484bfcf},
        {sim::MemCondition::ThpOff, 0xb8b0f27071e092ed,
         0x655ae2b4559bd860},
        {sim::MemCondition::NoContiguity, 0xb8b0f27071e092ed,
         0x655ae2b4559bd860},
    };
    for (const auto &pin : pins) {
        sim::SystemConfig config;
        config.condition = pin.condition;
        sim::ConditionedMemory memory(sim::streamSpec(config));
        Digest d;
        const BuddyAllocator &b = memory.buddy;
        for (unsigned o = 0; o <= b.maxOrder(); ++o) {
            d.add(b.freeList(o).size());
            for (const Pfn pfn : b.freeList(o))
                d.add(pfn);
        }
        d.add(b.freeFrames());
        d.add(memory.ager.resident().size());
        for (const auto &blk : memory.ager.resident()) {
            d.add(blk.base);
            d.add(blk.order);
        }
        d.add(memory.fragmenter.pinned().size());
        for (const Pfn pfn : memory.fragmenter.pinned())
            d.add(pfn);
        const char *name = sim::conditionName(pin.condition);
        EXPECT_EQ(d.h, pin.digest) << name;
        EXPECT_EQ(memory.rng(), pin.nextDraw) << name;
    }
}

TEST(SystemAger, ConvergesToResidentFraction)
{
    BuddyAllocator b(kFrames);
    SystemAger ager(b);
    Rng rng(21);

    ager.age(20000, 0.5, rng);
    const double resident =
        static_cast<double>(ager.residentFrames()) /
        static_cast<double>(kFrames);
    EXPECT_NEAR(resident, 0.5, 0.15);
    EXPECT_EQ(b.freeFrames() + ager.residentFrames(), kFrames);
}

TEST(SystemAger, ReleaseRestoresAllFrames)
{
    BuddyAllocator b(kFrames);
    Rng rng(22);
    {
        SystemAger ager(b);
        ager.age(5000, 0.3, rng);
        ASSERT_GT(ager.residentFrames(), 0u);
        ager.release();
        EXPECT_EQ(ager.residentFrames(), 0u);
    }
    EXPECT_EQ(b.freeFrames(), kFrames);
    EXPECT_EQ(b.largestFreeOrder(),
              static_cast<int>(b.maxOrder()));
}

TEST(SystemAger, AgedMemoryIsFragmented)
{
    // Weeks of churn leave scattered small blocks: the unusable
    // free space index at higher orders is clearly above a fresh
    // allocator's zero.
    BuddyAllocator b(kFrames);
    SystemAger ager(b);
    Rng rng(23);

    EXPECT_DOUBLE_EQ(b.unusableFreeSpaceIndex(5), 0.0);
    ager.age(30000, 0.6, rng);
    EXPECT_GT(b.unusableFreeSpaceIndex(5), 0.0);
    // But it never runs the machine out of memory.
    EXPECT_GT(b.freeFrames(), 0u);
}

} // namespace
} // namespace sipt::os
