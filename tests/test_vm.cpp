/**
 * @file
 * Tests for the page table (including its dense layout: map order,
 * span growth and the span cap), TLB, and MMU.
 */

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "vm/mmu.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

namespace sipt::vm
{
namespace
{

TEST(PageTable, MapAndTranslate)
{
    PageTable pt;
    pt.mapPage(0x1000, 42);
    const auto xlat = pt.translate(0x1abc);
    ASSERT_TRUE(xlat);
    EXPECT_EQ(xlat->paddr, (42ull << pageShift) | 0xabc);
    EXPECT_FALSE(xlat->hugePage);
    EXPECT_FALSE(pt.translate(0x2000).has_value());
}

TEST(PageTable, HugeMapCoversChunk)
{
    PageTable pt;
    pt.mapHugePage(hugePageSize, 512);
    for (Addr off : {Addr{0}, Addr{pageSize},
                     Addr{hugePageSize - 1}}) {
        const auto xlat = pt.translate(hugePageSize + off);
        ASSERT_TRUE(xlat);
        EXPECT_TRUE(xlat->hugePage);
        EXPECT_EQ(xlat->paddr, (512ull << pageShift) + off);
    }
    EXPECT_FALSE(pt.translate(2 * hugePageSize).has_value());
}

TEST(PageTable, HugeMapRequiresAlignedFrame)
{
    PageTable pt;
    EXPECT_DEATH(pt.mapHugePage(0, 5), "aligned");
}

TEST(PageTable, SmallBlocksHugeAndViceVersa)
{
    PageTable pt;
    pt.mapPage(0, 1);
    EXPECT_TRUE(pt.chunkHasSmallMappings(100));
    EXPECT_DEATH(pt.mapHugePage(100, 512), "over 4K");

    PageTable pt2;
    pt2.mapHugePage(0, 0);
    EXPECT_DEATH(pt2.mapPage(0x3000, 7), "inside huge");
}

TEST(PageTable, UnmapPage)
{
    PageTable pt;
    pt.mapPage(0x5000, 9);
    EXPECT_TRUE(pt.isMapped(0x5000));
    pt.unmapPage(0x5000);
    EXPECT_FALSE(pt.isMapped(0x5000));
    EXPECT_FALSE(pt.chunkHasSmallMappings(0x5000));
    // Unmapping again is harmless.
    pt.unmapPage(0x5000);
}

TEST(PageTable, UnmapHugePage)
{
    PageTable pt;
    pt.mapHugePage(0, 512);
    pt.unmapHugePage(pageSize);
    EXPECT_FALSE(pt.isMapped(0));
    EXPECT_EQ(pt.hugePageCount(), 0u);
}

TEST(PageTable, CountsAndClear)
{
    PageTable pt;
    pt.mapPage(0x1000, 1);
    pt.mapPage(0x2000, 2);
    pt.mapHugePage(1ull << 30, 1024);
    EXPECT_EQ(pt.smallPageCount(), 2u);
    EXPECT_EQ(pt.hugePageCount(), 1u);
    pt.clear();
    EXPECT_EQ(pt.smallPageCount(), 0u);
    EXPECT_FALSE(pt.isMapped(0x1000));
}

/** Map @p n pages at 1 GiB + i * 4 KiB -> frame 1000 + i, in the
 *  order @p order gives, and check every translation and the
 *  unmapped pages just outside the span. */
void
mapInOrderAndCheck(const std::vector<std::uint64_t> &order)
{
    const Addr base = Addr{1} << 30;
    PageTable pt;
    for (const std::uint64_t i : order)
        pt.mapPage(base + i * pageSize, 1000 + i);
    EXPECT_EQ(pt.smallPageCount(), order.size());
    for (std::uint64_t i = 0; i < order.size(); ++i) {
        const auto xlat = pt.translate(base + i * pageSize + 0x123);
        ASSERT_TRUE(xlat) << "page " << i;
        EXPECT_EQ(xlat->paddr, ((1000 + i) << pageShift) | 0x123);
        EXPECT_FALSE(xlat->hugePage);
    }
    EXPECT_FALSE(pt.isMapped(base - pageSize));
    EXPECT_FALSE(pt.isMapped(base + order.size() * pageSize));
    EXPECT_FALSE(pt.isMapped(0));
    EXPECT_FALSE(pt.isMapped(~Addr{0}));
}

TEST(PageTable, DescendingMapOrder)
{
    std::vector<std::uint64_t> order(3000);
    std::iota(order.rbegin(), order.rend(), 0);
    mapInOrderAndCheck(order);
}

TEST(PageTable, ShuffledMapOrder)
{
    std::vector<std::uint64_t> order(3000);
    std::iota(order.begin(), order.end(), 0);
    Rng rng(14);
    std::shuffle(order.begin(), order.end(), rng);
    mapInOrderAndCheck(order);
}

TEST(PageTable, SmallAndHugeInNeighbouringChunks)
{
    PageTable pt;
    const Addr chunk = Addr{8} * hugePageSize;
    pt.mapPage(chunk - pageSize, 7);     // last page before
    pt.mapHugePage(chunk, 1024);         // the huge chunk
    pt.mapPage(chunk + hugePageSize, 9); // first page after
    EXPECT_EQ(pt.smallPageCount(), 2u);
    EXPECT_EQ(pt.hugePageCount(), 1u);

    const auto before = pt.translate(chunk - 1);
    ASSERT_TRUE(before);
    EXPECT_EQ(before->paddr, (7ull << pageShift) | 0xfff);
    EXPECT_FALSE(before->hugePage);
    const auto inside = pt.translate(chunk + hugePageSize - 1);
    ASSERT_TRUE(inside);
    EXPECT_EQ(inside->paddr,
              (1024ull << pageShift) + hugePageSize - 1);
    EXPECT_TRUE(inside->hugePage);
    const auto after = pt.translate(chunk + hugePageSize);
    ASSERT_TRUE(after);
    EXPECT_EQ(after->paddr, 9ull << pageShift);
    EXPECT_FALSE(after->hugePage);

    EXPECT_TRUE(pt.chunkHasSmallMappings(chunk - pageSize));
    EXPECT_FALSE(pt.chunkHasSmallMappings(chunk));
    EXPECT_TRUE(pt.chunkHasSmallMappings(chunk + hugePageSize));
    EXPECT_TRUE(pt.isHugeMapped(chunk + pageSize));
    EXPECT_FALSE(pt.isHugeMapped(chunk - pageSize));
    EXPECT_FALSE(pt.isHugeMapped(chunk + hugePageSize));
}

TEST(PageTable, UnmapOfChunksLastSmallPageAllowsHugeMap)
{
    PageTable pt;
    const Addr chunk = Addr{3} * hugePageSize;
    pt.mapPage(chunk + pageSize, 11);
    pt.mapPage(chunk + 7 * pageSize, 12);
    pt.unmapPage(chunk + pageSize);
    EXPECT_TRUE(pt.chunkHasSmallMappings(chunk));
    EXPECT_DEATH(pt.mapHugePage(chunk, 512), "over 4K");
    pt.unmapPage(chunk + 7 * pageSize);
    EXPECT_FALSE(pt.chunkHasSmallMappings(chunk));
    pt.mapHugePage(chunk, 512);
    const auto xlat = pt.translate(chunk + 7 * pageSize);
    ASSERT_TRUE(xlat);
    EXPECT_TRUE(xlat->hugePage);
    EXPECT_EQ(xlat->paddr, (512ull + 7) << pageShift);
    EXPECT_EQ(pt.smallPageCount(), 0u);
    EXPECT_EQ(pt.hugePageCount(), 1u);
}

TEST(PageTable, CountsAndCoverageAfterUnmapsAndClear)
{
    os::BuddyAllocator buddy(1 << 16);
    os::AddressSpace as(buddy, os::PagingPolicy{}, 1);
    const Addr base = Addr{1} << 36;
    as.adoptRegion(base, 2 * hugePageSize);
    as.installMapping(base, 512, /*huge=*/true);
    for (std::uint64_t p = 0; p < 512; ++p)
        as.installMapping(base + hugePageSize + p * pageSize,
                          4096 + p, /*huge=*/false);
    const vm::PageTable &pt = as.pageTable();
    EXPECT_EQ(pt.smallPageCount(), 512u);
    EXPECT_EQ(pt.hugePageCount(), 1u);
    EXPECT_DOUBLE_EQ(as.hugeCoverage(), 0.5);

    for (std::uint64_t p = 0; p < 256; ++p)
        as.unmapPage(base + hugePageSize + p * pageSize);
    EXPECT_EQ(pt.smallPageCount(), 256u);
    EXPECT_DOUBLE_EQ(as.hugeCoverage(), 2.0 / 3.0);
    EXPECT_FALSE(pt.isMapped(base + hugePageSize));
    EXPECT_TRUE(pt.isMapped(base + hugePageSize + 256 * pageSize));

    as.pageTable().unmapHugePage(base);
    EXPECT_EQ(pt.hugePageCount(), 0u);
    EXPECT_DOUBLE_EQ(as.hugeCoverage(), 0.0);

    as.pageTable().clear();
    EXPECT_EQ(pt.smallPageCount(), 0u);
    EXPECT_EQ(pt.hugePageCount(), 0u);
    EXPECT_FALSE(pt.isMapped(base + hugePageSize + 300 * pageSize));
    EXPECT_FALSE(pt.chunkHasSmallMappings(base + hugePageSize));
    // A cleared table starts a fresh span anywhere.
    as.pageTable().mapPage(Addr{1} << 46, 5);
    EXPECT_TRUE(pt.isMapped(Addr{1} << 46));
}

TEST(PageTable, MappingBeyondSpanCapIsFatal)
{
    const Addr cap = PageTable::maxSpanPages * pageSize;
    const Addr base = Addr{1} << 40;
    {
        // The last chunk that still fits is fine, either way round
        // (huge mappings keep this cheap: one slot per chunk).
        PageTable up;
        up.mapHugePage(base, 0);
        up.mapHugePage(base + cap - hugePageSize, 512);
        PageTable down;
        down.mapHugePage(base + cap - hugePageSize, 512);
        down.mapHugePage(base, 0);
        EXPECT_TRUE(down.translate(base)->hugePage);
        EXPECT_EQ(down.translate(base + cap - 1)->paddr,
                  (512ull << pageShift) + hugePageSize - 1);
    }
    PageTable up;
    up.mapPage(base, 1);
    EXPECT_DEATH(up.mapPage(base + cap, 2),
                 "beyond the 16777216-page cap");
    PageTable down;
    down.mapPage(base + cap, 2);
    EXPECT_DEATH(down.mapPage(base, 1), "widens the mapped span");
    PageTable huge;
    huge.mapHugePage(base, 0);
    EXPECT_DEATH(huge.mapHugePage(base + cap, 512), "page cap");
}

TEST(Tlb, HitAfterInsert)
{
    Tlb tlb(TlbParams{64, 4});
    EXPECT_FALSE(tlb.lookup(5));
    tlb.insert(5);
    EXPECT_TRUE(tlb.lookup(5));
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
    EXPECT_DOUBLE_EQ(tlb.hitRate(), 0.5);
}

TEST(Tlb, SizeClassesAreDistinct)
{
    Tlb tlb(TlbParams{64, 4});
    tlb.insert(7, false);
    EXPECT_FALSE(tlb.lookup(7, true));
    EXPECT_TRUE(tlb.lookup(7, false));
}

TEST(Tlb, LruEvictionWithinSet)
{
    Tlb tlb(TlbParams{8, 2}); // 4 sets, 2 ways
    // These VPNs all map to set 0.
    tlb.insert(0);
    tlb.insert(4);
    tlb.lookup(0);     // make 4 the LRU
    tlb.insert(8);     // evicts 4
    EXPECT_TRUE(tlb.lookup(0));
    EXPECT_TRUE(tlb.lookup(8));
    EXPECT_FALSE(tlb.lookup(4));
}

TEST(Tlb, FlushInvalidatesEverything)
{
    Tlb tlb(TlbParams{64, 4});
    for (Vpn v = 0; v < 32; ++v)
        tlb.insert(v);
    tlb.flush();
    for (Vpn v = 0; v < 32; ++v)
        EXPECT_FALSE(tlb.lookup(v));
}

TEST(Tlb, CapacityIsRespected)
{
    Tlb tlb(TlbParams{64, 4});
    for (Vpn v = 0; v < 64; ++v)
        tlb.insert(v);
    int present = 0;
    for (Vpn v = 0; v < 64; ++v)
        present += tlb.lookup(v);
    EXPECT_EQ(present, 64); // exactly fits
    for (Vpn v = 64; v < 128; ++v)
        tlb.insert(v);
    int old_present = 0;
    for (Vpn v = 0; v < 64; ++v)
        old_present += tlb.lookup(v);
    EXPECT_EQ(old_present, 0); // fully displaced
}

TEST(Mmu, LatenciesFollowHierarchy)
{
    PageTable pt;
    pt.mapPage(0x1000, 99);
    Mmu mmu;
    // First access: L1 and L2 miss -> walk.
    const auto r1 = mmu.translate(0x1000, pt);
    EXPECT_EQ(r1.latency, mmu.params().l2Latency +
                              mmu.params().walkLatency);
    EXPECT_FALSE(r1.l1Hit);
    EXPECT_EQ(mmu.walks(), 1u);
    // Second access: L1 hit.
    const auto r2 = mmu.translate(0x1000, pt);
    EXPECT_EQ(r2.latency, mmu.params().l1Latency);
    EXPECT_TRUE(r2.l1Hit);
    EXPECT_EQ(r2.paddr, (99ull << pageShift));
}

TEST(Mmu, L2CatchesL1Evictions)
{
    PageTable pt;
    Mmu mmu;
    // Fill far more than L1 (64 entries) but less than L2.
    for (Vpn v = 0; v < 512; ++v) {
        pt.mapPage(v << pageShift, v + 1);
        mmu.translate(v << pageShift, pt);
    }
    // Re-walk the early pages: L1 misses, L2 hits, no new walk.
    const auto walks_before = mmu.walks();
    const auto r = mmu.translate(0, pt);
    EXPECT_EQ(r.latency, mmu.params().l2Latency);
    EXPECT_EQ(mmu.walks(), walks_before);
}

TEST(Mmu, HugePagesUseHugeTlb)
{
    PageTable pt;
    pt.mapHugePage(0, 512);
    Mmu mmu;
    mmu.translate(123, pt);
    const auto r = mmu.translate(hugePageSize - 1, pt);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_TRUE(r.hugePage);
    EXPECT_EQ(mmu.l1Huge().hits(), 1u);
    EXPECT_EQ(mmu.l1Small().hits() + mmu.l1Small().misses(), 0u);
}

TEST(Mmu, FlushAllForcesRewalk)
{
    PageTable pt;
    pt.mapPage(0, 1);
    Mmu mmu;
    mmu.translate(0, pt);
    mmu.flushAll();
    const auto r = mmu.translate(0, pt);
    EXPECT_EQ(r.latency, mmu.params().l2Latency +
                             mmu.params().walkLatency);
}

TEST(Mmu, UnmappedPanics)
{
    PageTable pt;
    Mmu mmu;
    EXPECT_DEATH(mmu.translate(0x1234, pt), "unmapped");
}

} // namespace
} // namespace sipt::vm
