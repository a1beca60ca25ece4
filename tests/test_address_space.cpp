/**
 * @file
 * Tests for demand paging, THP promotion, page coloring, and
 * random placement in os::AddressSpace, plus the fragmenter and
 * system ager.
 */

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "os/fragmenter.hh"

namespace sipt::os
{
namespace
{

constexpr std::uint64_t frames = (1ull << 30) / pageSize; // 1 GiB

TEST(AddressSpace, TouchFaultsOnce)
{
    BuddyAllocator buddy(frames);
    AddressSpace as(buddy, PagingPolicy{});
    const Addr base = as.mmap(1 << 20);
    EXPECT_TRUE(as.touch(base));
    EXPECT_FALSE(as.touch(base));
    EXPECT_FALSE(as.touch(base + 100));
}

TEST(AddressSpace, TranslationRoundTrips)
{
    BuddyAllocator buddy(frames);
    PagingPolicy pol;
    pol.thpEnabled = false;
    AddressSpace as(buddy, pol);
    const Addr base = as.mmap(64 * pageSize);
    for (int i = 0; i < 64; ++i) {
        const Addr va = base + i * pageSize + 123;
        const auto xlat = as.translateTouch(va);
        EXPECT_EQ(xlat.paddr & mask(pageShift),
                  va & mask(pageShift));
        EXPECT_FALSE(xlat.hugePage);
        EXPECT_LT(xlat.paddr >> pageShift, frames);
    }
    EXPECT_EQ(as.smallFaults(), 64u);
    EXPECT_EQ(as.hugeFaults(), 0u);
}

TEST(AddressSpace, ThpPromotesAlignedChunks)
{
    BuddyAllocator buddy(frames);
    AddressSpace as(buddy, PagingPolicy{});
    const Addr base = as.mmap(4 * hugePageSize, hugePageShift);
    as.touch(base);
    EXPECT_TRUE(as.pageTable().isHugeMapped(base));
    // The whole chunk is mapped by one fault.
    EXPECT_FALSE(as.touch(base + hugePageSize - 1));
    EXPECT_EQ(as.hugeFaults(), 1u);
    EXPECT_GT(as.hugeCoverage(), 0.99);
}

TEST(AddressSpace, ThpOffMeansSmallPagesOnly)
{
    BuddyAllocator buddy(frames);
    PagingPolicy pol;
    pol.thpEnabled = false;
    AddressSpace as(buddy, pol);
    const Addr base = as.mmap(2 * hugePageSize, hugePageShift);
    for (Addr off = 0; off < 2 * hugePageSize; off += pageSize)
        as.touch(base + off);
    EXPECT_EQ(as.hugeFaults(), 0u);
    EXPECT_EQ(as.smallFaults(), 2 * pagesPerHugePage);
    EXPECT_DOUBLE_EQ(as.hugeCoverage(), 0.0);
}

TEST(AddressSpace, ThpSkipsPartialChunks)
{
    BuddyAllocator buddy(frames);
    AddressSpace as(buddy, PagingPolicy{});
    // Region smaller than a huge page can never promote.
    const Addr base = as.mmap(hugePageSize / 2, hugePageShift);
    as.touch(base);
    EXPECT_EQ(as.hugeFaults(), 0u);
}

TEST(AddressSpace, HugePageTranslationPreservesOffset)
{
    BuddyAllocator buddy(frames);
    AddressSpace as(buddy, PagingPolicy{});
    const Addr base = as.mmap(2 * hugePageSize, hugePageShift);
    const Addr va = base + 0x12345;
    const auto xlat = as.translateTouch(va);
    EXPECT_TRUE(xlat.hugePage);
    EXPECT_EQ(xlat.paddr & mask(hugePageShift),
              va & mask(hugePageShift));
}

TEST(AddressSpace, SequentialTouchGivesConstantDelta)
{
    // The core contiguity property behind the IDB (paper Fig.10).
    BuddyAllocator buddy(frames);
    PagingPolicy pol;
    pol.thpEnabled = false;
    AddressSpace as(buddy, pol);
    const Addr base = as.mmap(256 * pageSize, pageShift);
    std::int64_t delta = 0;
    bool first = true;
    int changes = 0;
    for (int i = 0; i < 256; ++i) {
        const Addr va = base + static_cast<Addr>(i) * pageSize;
        const auto xlat = as.translateTouch(va);
        const std::int64_t d =
            static_cast<std::int64_t>(xlat.paddr >> pageShift) -
            static_cast<std::int64_t>(va >> pageShift);
        if (!first && d != delta)
            ++changes;
        delta = d;
        first = false;
    }
    // On a fresh allocator the whole run is one split cascade.
    EXPECT_LE(changes, 1);
}

TEST(AddressSpace, RandomPlacementScattersDeltas)
{
    BuddyAllocator buddy(frames);
    PagingPolicy pol;
    pol.thpEnabled = false;
    pol.randomPlacement = true;
    AddressSpace as(buddy, pol);
    const Addr base = as.mmap(256 * pageSize, pageShift);
    std::int64_t prev = 0;
    int same = 0;
    for (int i = 0; i < 256; ++i) {
        const Addr va = base + static_cast<Addr>(i) * pageSize;
        const auto xlat = as.translateTouch(va);
        const std::int64_t d =
            static_cast<std::int64_t>(xlat.paddr >> pageShift) -
            static_cast<std::int64_t>(va >> pageShift);
        same += (i > 0 && d == prev);
        prev = d;
    }
    EXPECT_LT(same, 32);
}

TEST(AddressSpace, ColoringMatchesLowBits)
{
    BuddyAllocator buddy(frames);
    PagingPolicy pol;
    pol.thpEnabled = false;
    pol.coloringBits = 3;
    AddressSpace as(buddy, pol);
    const Addr base = as.mmap(128 * pageSize, pageShift);
    for (int i = 0; i < 128; ++i) {
        const Addr va = base + static_cast<Addr>(i) * pageSize;
        const auto xlat = as.translateTouch(va);
        EXPECT_EQ((xlat.paddr >> pageShift) & mask(3),
                  (va >> pageShift) & mask(3));
    }
}

TEST(AddressSpace, SegfaultOnUnmappedRegion)
{
    BuddyAllocator buddy(frames);
    AddressSpace as(buddy, PagingPolicy{});
    as.mmap(pageSize);
    EXPECT_EXIT(as.touch(Addr{0xdead0000}),
                ::testing::ExitedWithCode(1), "segfault");
}

TEST(Fragmenter, ReachesTargetIndex)
{
    BuddyAllocator buddy(frames);
    MemoryFragmenter frag(buddy);
    Rng rng(3);
    const double fu = frag.fragmentTo(0.95, 9, rng, 0.25);
    EXPECT_GE(fu, 0.95);
    EXPECT_GE(buddy.freeFrames(),
              static_cast<std::uint64_t>(0.2 * frames));
    // Huge pages are now essentially unobtainable.
    EXPECT_FALSE(buddy.canAllocate(9));
    frag.release();
    EXPECT_EQ(buddy.freeFrames(), frames);
}

TEST(Fragmenter, FragmentedMemoryBlocksThp)
{
    BuddyAllocator buddy(frames);
    MemoryFragmenter frag(buddy);
    Rng rng(4);
    frag.fragmentTo(0.95, 9, rng, 0.25);
    AddressSpace as(buddy, PagingPolicy{});
    const Addr base = as.mmap(4 * hugePageSize);
    for (Addr off = 0; off < 4 * hugePageSize; off += pageSize)
        as.touch(base + off);
    EXPECT_EQ(as.hugeFaults(), 0u);
}

TEST(SystemAger, LeavesTargetResident)
{
    BuddyAllocator buddy(frames);
    SystemAger ager(buddy);
    Rng rng(5);
    ager.age(5000, 0.25, rng);
    const double resident =
        static_cast<double>(ager.residentFrames()) /
        static_cast<double>(frames);
    EXPECT_GT(resident, 0.2);
    EXPECT_LT(resident, 0.4);
    // Most free memory should still be in large blocks (a real
    // machine's free lists are top-heavy).
    EXPECT_LT(buddy.unusableFreeSpaceIndex(9), 0.5);
    ager.release();
    EXPECT_EQ(buddy.freeFrames(), frames);
}

} // namespace
} // namespace sipt::os
