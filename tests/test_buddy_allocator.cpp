/**
 * @file
 * Unit and property tests for the buddy allocator: alignment,
 * splitting, coalescing, coloring, the unusable-free-space index,
 * a randomised invariant-checking stress test, and a committed
 * allocation-sequence fixture.
 *
 * Buddy.AllocatorSequence pins the allocator's exact behaviour:
 * every PFN a seeded op stream gets back, through aging,
 * fragmentation and release, must match
 * tests/fixtures/os/AllocatorSequence.txt. Each run writes its
 * actual table to the build tree; after an intentional change to
 * the allocation order, regenerate with:
 *
 *   ctest --test-dir build -R Buddy.AllocatorSequence
 *   cp build/tests/os_fixtures/AllocatorSequence.txt \
 *      tests/fixtures/os/
 */

#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "common/hash.hh"
#include "common/rng.hh"
#include "fixture_table.hh"
#include "os/buddy_allocator.hh"
#include "os/fragmenter.hh"

namespace sipt::os
{
namespace
{

TEST(Buddy, FreshAllocatorIsFullyFree)
{
    BuddyAllocator b(4096);
    EXPECT_EQ(b.freeFrames(), 4096u);
    EXPECT_EQ(b.totalFrames(), 4096u);
    EXPECT_EQ(b.largestFreeOrder(), 10);
    EXPECT_DOUBLE_EQ(b.unusableFreeSpaceIndex(9), 0.0);
}

TEST(Buddy, AllocateReturnsAlignedBlocks)
{
    BuddyAllocator b(1 << 16);
    for (unsigned order = 0; order <= 10; ++order) {
        const auto pfn = b.allocate(order);
        ASSERT_TRUE(pfn.has_value());
        EXPECT_EQ(*pfn & mask(order), 0u)
            << "order " << order << " misaligned";
    }
}

TEST(Buddy, SequentialSingleAllocationsAreContiguous)
{
    // The contiguity property the SIPT IDB depends on: burst
    // demand faults get consecutive frames.
    BuddyAllocator b(4096);
    const auto first = b.allocate(0);
    ASSERT_TRUE(first);
    for (std::uint64_t i = 1; i < 1024; ++i) {
        const auto pfn = b.allocate(0);
        ASSERT_TRUE(pfn);
        EXPECT_EQ(*pfn, *first + i);
    }
}

TEST(Buddy, ExhaustionReturnsNullopt)
{
    BuddyAllocator b(16, 4);
    EXPECT_TRUE(b.allocate(4).has_value());
    EXPECT_FALSE(b.allocate(0).has_value());
    EXPECT_FALSE(b.canAllocate(0));
}

TEST(Buddy, FreeCoalescesBackToFull)
{
    BuddyAllocator b(1024);
    std::vector<Pfn> pages;
    while (auto pfn = b.allocate(0))
        pages.push_back(*pfn);
    EXPECT_EQ(b.freeFrames(), 0u);
    for (Pfn pfn : pages)
        b.free(pfn, 0);
    EXPECT_EQ(b.freeFrames(), 1024u);
    EXPECT_EQ(b.largestFreeOrder(), 10);
    EXPECT_EQ(b.freeBlocks(10), 1u);
}

TEST(Buddy, PartialFreeDoesNotOvercoalesce)
{
    BuddyAllocator b(4);
    const auto a0 = b.allocate(0);
    const auto a1 = b.allocate(0);
    ASSERT_TRUE(a0 && a1);
    b.free(*a0, 0);
    // a1 still allocated: no order-1 block containing it may
    // appear; the freed page stays order 0.
    EXPECT_EQ(b.freeFrames(), 3u);
    EXPECT_EQ(b.freeBlocks(0), 1u);
    EXPECT_EQ(b.freeBlocks(1), 1u);
    EXPECT_EQ(b.freeBlocks(2), 0u);
}

TEST(Buddy, DoubleFreePanics)
{
    BuddyAllocator b(64);
    // Keep the buddy allocated so the double free cannot be
    // masked by coalescing.
    const auto a0 = b.allocate(0);
    const auto a1 = b.allocate(0);
    ASSERT_TRUE(a0 && a1);
    b.free(*a0, 0);
    EXPECT_DEATH(b.free(*a0, 0), "double free");
}

TEST(Buddy, FreeOfBaseFreeAtAnotherOrderPanics)
{
    BuddyAllocator b(64);
    // a stays free as an order-1 block because its order-1 buddy
    // is held; freeing its base again as order 0 is a double free.
    const auto a = b.allocate(1);
    const auto held = b.allocate(1);
    ASSERT_TRUE(a && held);
    b.free(*a, 1);
    EXPECT_DEATH(b.free(*a, 0), "double free");

    // Frame 2 is free at order 0 and [0, 2) at order 1: freeing
    // [2, 4) as order 1 would coalesce down to base 0 and hide
    // the stale order-0 entry.
    BuddyAllocator c(64);
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(c.allocate(0), Pfn(i));
    c.free(0, 0);
    c.free(1, 0);
    c.free(2, 0);
    ASSERT_EQ(c.freeBlocks(1), 1u);
    ASSERT_EQ(c.freeBlocks(0), 1u);
    EXPECT_DEATH(c.free(2, 1), "double free");
}

TEST(Buddy, NonPowerOfTwoTotalFrames)
{
    BuddyAllocator b(1000);
    EXPECT_EQ(b.freeFrames(), 1000u);
    std::uint64_t got = 0;
    while (b.allocate(0))
        ++got;
    EXPECT_EQ(got, 1000u);
}

TEST(Buddy, UnusableFreeSpaceIndex)
{
    BuddyAllocator b(2048);
    // Fully free: one order-10 block x2 -> Fu(9) = 0.
    EXPECT_DOUBLE_EQ(b.unusableFreeSpaceIndex(9), 0.0);

    // Allocate everything then free alternating singles: no
    // order-9 blocks remain free.
    std::vector<Pfn> pages;
    while (auto pfn = b.allocate(0))
        pages.push_back(*pfn);
    for (std::size_t i = 0; i < pages.size(); i += 2)
        b.free(pages[i], 0);
    EXPECT_DOUBLE_EQ(b.unusableFreeSpaceIndex(9), 1.0);
    EXPECT_GT(b.unusableFreeSpaceIndex(1), 0.99);
    EXPECT_DOUBLE_EQ(b.unusableFreeSpaceIndex(0), 0.0);
}

TEST(Buddy, ColoredAllocationMatchesColor)
{
    BuddyAllocator b(1 << 15);
    for (Vpn vpn = 0; vpn < 64; ++vpn) {
        const auto pfn = b.allocateColored(0, vpn, 3);
        ASSERT_TRUE(pfn);
        EXPECT_EQ(*pfn & mask(3), vpn & mask(3))
            << "vpn " << vpn;
    }
}

TEST(Buddy, ColoredAllocationRespectsAlignment)
{
    BuddyAllocator b(1 << 15);
    const auto pfn = b.allocateColored(2, 4, 3);
    ASSERT_TRUE(pfn);
    EXPECT_EQ(*pfn & mask(2), 0u);
    EXPECT_EQ(*pfn & mask(3), 4u);
}

TEST(Buddy, RandomAllocationStaysValid)
{
    BuddyAllocator b(1 << 14);
    Rng rng(5);
    std::set<Pfn> live;
    for (int i = 0; i < 2000; ++i) {
        const auto pfn = b.allocateRandom(0, rng);
        ASSERT_TRUE(pfn);
        EXPECT_LT(*pfn, b.totalFrames());
        EXPECT_TRUE(live.insert(*pfn).second)
            << "duplicate frame " << *pfn;
    }
    for (Pfn pfn : live)
        b.free(pfn, 0);
    EXPECT_EQ(b.freeFrames(), b.totalFrames());
}

TEST(Buddy, RandomAllocationScatters)
{
    BuddyAllocator b(1 << 16);
    Rng rng(6);
    // Consecutive random allocations should rarely be adjacent.
    auto prev = b.allocateRandom(0, rng);
    ASSERT_TRUE(prev);
    int adjacent = 0;
    for (int i = 0; i < 500; ++i) {
        const auto pfn = b.allocateRandom(0, rng);
        ASSERT_TRUE(pfn);
        adjacent += (*pfn == *prev + 1);
        prev = pfn;
    }
    EXPECT_LT(adjacent, 25);
}

/** Randomised stress: allocate/free a churn and check accounting
 *  invariants hold throughout, parameterised by max order. */
class BuddyStress : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BuddyStress, AccountingInvariants)
{
    const unsigned max_order = GetParam();
    BuddyAllocator b(1 << 13, max_order);
    Rng rng(max_order * 7 + 1);
    struct Block
    {
        Pfn base;
        unsigned order;
    };
    std::vector<Block> live;
    std::uint64_t live_frames = 0;

    for (int i = 0; i < 20000; ++i) {
        if (live.empty() || rng.chance(0.55)) {
            unsigned order = static_cast<unsigned>(
                rng.below(max_order + 1));
            if (auto base = b.allocate(order)) {
                EXPECT_EQ(*base & mask(order), 0u);
                live.push_back({*base, order});
                live_frames += std::uint64_t{1} << order;
            }
        } else {
            const std::size_t idx = rng.below(live.size());
            const Block blk = live[idx];
            live[idx] = live.back();
            live.pop_back();
            b.free(blk.base, blk.order);
            live_frames -= std::uint64_t{1} << blk.order;
        }
        ASSERT_EQ(b.freeFrames() + live_frames, b.totalFrames());
    }
    for (const auto &blk : live)
        b.free(blk.base, blk.order);
    EXPECT_EQ(b.freeFrames(), b.totalFrames());
    EXPECT_EQ(b.largestFreeOrder(),
              static_cast<int>(max_order));
}

INSTANTIATE_TEST_SUITE_P(Orders, BuddyStress,
                         ::testing::Values(0u, 1u, 4u, 10u));

/** Running digest of every PFN the allocator hands out. */
struct PfnDigest
{
    std::uint64_t hash = fnv1a64Init;
    std::uint64_t count = 0;

    void
    add(std::optional<Pfn> pfn)
    {
        const std::uint64_t v = pfn ? *pfn : ~std::uint64_t{0};
        for (int i = 0; i < 8; ++i)
            hash = fnv1a64Step(hash,
                               static_cast<std::uint8_t>(v >> (8 * i)));
        ++count;
    }
};

/** A held block of the op stream. */
struct HeldBlock
{
    Pfn base;
    unsigned order;
};

/**
 * Run @p ops seeded operations mixing allocate, allocateRandom,
 * allocateColored and free (of a random held block).
 */
void
runOps(BuddyAllocator &b, Rng &rng, std::vector<HeldBlock> &held,
       int ops, PfnDigest &digest)
{
    for (int i = 0; i < ops; ++i) {
        const std::uint64_t kind = rng.below(100);
        // Mostly single pages, with a tail up to max order.
        const unsigned order =
            rng.chance(0.7)
                ? 0
                : static_cast<unsigned>(rng.below(b.maxOrder() + 1));
        std::optional<Pfn> pfn;
        if (kind < 30) {
            pfn = b.allocate(order);
        } else if (kind < 45) {
            pfn = b.allocateRandom(order, rng);
        } else if (kind < 55) {
            const Vpn vpn = rng.below(1u << 20);
            const auto bits = static_cast<unsigned>(1 + rng.below(6));
            pfn = b.allocateColored(order, vpn, bits);
        } else {
            if (held.empty())
                continue;
            const std::size_t idx = rng.below(held.size());
            const HeldBlock blk = held[idx];
            held[idx] = held.back();
            held.pop_back();
            b.free(blk.base, blk.order);
            continue;
        }
        digest.add(pfn);
        if (pfn)
            held.push_back({*pfn, order});
    }
}

/** One fixture row: @p label, the digest so far, and the free
 *  block count of every order. */
std::string
allocatorRow(const std::string &label, const BuddyAllocator &b,
             const PfnDigest &digest)
{
    std::ostringstream os;
    os << label << " pfns=" << digest.count << " digest=" << std::hex
       << std::setw(16) << std::setfill('0') << digest.hash
       << std::dec << " freeFrames=" << b.freeFrames() << " blocks=";
    for (unsigned o = 0; o <= b.maxOrder(); ++o)
        os << (o ? "," : "") << b.freeBlocks(o);
    return os.str();
}

TEST(Buddy, AllocatorSequence)
{
    // 4 GiB of 4 KiB frames, conditioned as runSingleCore does.
    BuddyAllocator b(std::uint64_t{1} << 20);
    Rng rng(2018);
    PfnDigest digest;
    std::vector<HeldBlock> held;
    std::vector<std::string> rows;

    for (int round = 0; round < 4; ++round) {
        runOps(b, rng, held, 5'000, digest);
        rows.push_back(allocatorRow("fresh" + std::to_string(round),
                                    b, digest));
    }
    SystemAger ager(b);
    ager.age(SystemAger::uptimeChurnOps,
             SystemAger::uptimeResidentFraction, rng);
    rows.push_back(allocatorRow("aged", b, digest));
    runOps(b, rng, held, 5'000, digest);
    rows.push_back(allocatorRow("aged+ops", b, digest));

    MemoryFragmenter fragmenter(b);
    fragmenter.fragmentTo(0.95, 9, rng, 0.30);
    rows.push_back(allocatorRow("fragmented", b, digest));
    runOps(b, rng, held, 5'000, digest);
    rows.push_back(allocatorRow("fragmented+ops", b, digest));

    fragmenter.release();
    rows.push_back(allocatorRow("fragmenter-released", b, digest));
    runOps(b, rng, held, 5'000, digest);
    rows.push_back(allocatorRow("released+ops", b, digest));
    ager.release();
    rows.push_back(allocatorRow("ager-released", b, digest));
    runOps(b, rng, held, 5'000, digest);
    rows.push_back(allocatorRow("ager-released+ops", b, digest));

    for (const HeldBlock &blk : held)
        b.free(blk.base, blk.order);
    rows.push_back(allocatorRow("drained", b, digest));
    EXPECT_EQ(b.freeFrames(), b.totalFrames());

    testfix::expectMatchesFixture(
        rows, SIPT_OS_FIXTURE_DIR, SIPT_OS_FIXTURE_OUT,
        "Buddy.AllocatorSequence: one row per checkpoint "
        "(tests/test_buddy_allocator.cpp)");
}

} // namespace
} // namespace sipt::os
