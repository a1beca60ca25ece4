/**
 * @file
 * Tests for the page table (including its dense layout: map order,
 * span growth and the span cap), TLB, and MMU (including its split
 * into a TLB lookup and a latency half).
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
#include "vm/page_walker.hh"
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

/**
 * The MMU before translation was split into lookup and latency:
 * one fused pass over its own TLBs that fills with insert() (which
 * rescans the set) and walks between the L2 probe and the fills.
 * The split halves must reproduce it exactly.
 */
struct FusedMmu
{
    MmuParams params;
    Tlb l1Small{params.l1Small};
    Tlb l1Huge{params.l1Huge};
    Tlb l2{params.l2};
    PageWalker *walker = nullptr;
    std::uint64_t walks = 0;

    MmuResult
    translate(Addr vaddr, const Translation &entry, Cycles now)
    {
        MmuResult res;
        res.paddr = entry.paddr;
        res.hugePage = entry.hugePage;
        const Vpn vpn = entry.hugePage ? hugePageNumber(vaddr)
                                       : pageNumber(vaddr);
        Tlb &l1 = entry.hugePage ? l1Huge : l1Small;
        if (l1.lookup(vpn, entry.hugePage)) {
            res.latency = params.l1Latency;
            res.l1Hit = true;
            return res;
        }
        if (l2.lookup(vpn, entry.hugePage)) {
            res.latency = params.l2Latency;
            l1.insert(vpn, entry.hugePage);
            return res;
        }
        ++walks;
        res.latency = params.l2Latency +
                      (walker ? walker->walk(vaddr,
                                             now + params.l2Latency,
                                             entry.hugePage)
                              : params.walkLatency);
        l2.insert(vpn, entry.hugePage);
        l1.insert(vpn, entry.hugePage);
        return res;
    }
};

/** A walk port whose latency depends on the PTE address and the
 *  issue cycle, logging every read. */
class LoggingWalkPort : public WalkPort
{
  public:
    Cycles
    walkRead(Addr paddr, Cycles now) override
    {
        reads.emplace_back(paddr, now);
        return 3 + (paddr >> 6) % 11 + now % 5;
    }

    std::vector<std::pair<Addr, Cycles>> reads;
};

void
expectSameTlb(const Tlb &split, const Tlb &fused, const char *name)
{
    EXPECT_EQ(split.hits(), fused.hits()) << name;
    EXPECT_EQ(split.misses(), fused.misses()) << name;
}

TEST(Mmu, SplitReproducesFusedTranslation)
{
    // 2048 small pages (twice the L2 TLB) and 64 huge chunks (twice
    // the huge L1 TLB), so every level serves some references.
    PageTable pt;
    constexpr Addr hugeBase = Addr{1} << 32;
    for (Vpn v = 0; v < 2048; ++v)
        pt.mapPage(v << pageShift, 7 * v + 3);
    for (Addr c = 0; c < 64; ++c)
        pt.mapHugePage(hugeBase + c * hugePageSize, 512 * (c + 100));

    for (const bool radix : {false, true}) {
        SCOPED_TRACE(radix ? "radix walker" : "constant walk");
        LoggingWalkPort fused_port;
        LoggingWalkPort split_port;
        PageWalker fused_walker(WalkerParams{}, fused_port);
        PageWalker split_walker(WalkerParams{}, split_port);
        FusedMmu fused;
        // The pipeline's shape: the stream's Mmu looks up, and a
        // machine's own MmuTiming charges the latency.
        Mmu tlbs;
        MmuTiming timing(tlbs.params());
        if (radix) {
            fused.walker = &fused_walker;
            timing.setWalker(&split_walker);
        }
        Rng rng(2024);
        std::uint64_t levels[3] = {};
        for (Cycles now = 0; now < 20'000 * 4; now += 4) {
            const bool huge = rng() % 4 == 0;
            const Addr va =
                huge ? hugeBase + (rng() % 64) * hugePageSize +
                           rng() % hugePageSize
                     : ((rng() % 2048) << pageShift) + rng() % pageSize;
            const Translation entry = *pt.translate(va);
            const MmuResult want = fused.translate(va, entry, now);
            const TlbLevel level = tlbs.lookup(va, entry.hugePage);
            ++levels[static_cast<int>(level)];
            const MmuResult got = timing.complete(va, entry, level, now);
            ASSERT_EQ(got.latency, want.latency) << "va " << va;
            ASSERT_EQ(got.l1Hit, want.l1Hit) << "va " << va;
            ASSERT_EQ(got.paddr, want.paddr) << "va " << va;
            ASSERT_EQ(got.hugePage, want.hugePage) << "va " << va;
        }
        for (const std::uint64_t n : levels)
            EXPECT_GT(n, 0u);
        EXPECT_EQ(tlbs.walks(), fused.walks);
        expectSameTlb(tlbs.l1Small(), fused.l1Small, "l1Small");
        expectSameTlb(tlbs.l1Huge(), fused.l1Huge, "l1Huge");
        expectSameTlb(tlbs.l2(), fused.l2, "l2");
        EXPECT_EQ(split_port.reads, fused_port.reads);
        EXPECT_EQ(split_walker.pwcHits(), fused_walker.pwcHits());
        EXPECT_EQ(radix, !split_port.reads.empty());
    }
}

} // namespace
} // namespace sipt::vm
