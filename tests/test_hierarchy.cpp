/**
 * @file
 * Tests for the L2/LLC timing caches, the below-L1 composition
 * (fills, writebacks, prefetch), and the DRAM model.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "cache/timing_cache.hh"
#include "common/rng.hh"
#include "dram/dram.hh"

namespace sipt
{
namespace
{

using cache::BelowL1;
using cache::TimingCache;
using cache::TimingCacheParams;

TimingCacheParams
smallCache(std::uint64_t size, Cycles latency)
{
    TimingCacheParams p;
    p.geometry.sizeBytes = size;
    p.geometry.assoc = 8;
    p.latency = latency;
    return p;
}

TEST(TimingCache, ReadMissFillsThenHits)
{
    TimingCache c(smallCache(64 * 1024, 12));
    EXPECT_FALSE(c.read(0x1000).hit);
    EXPECT_TRUE(c.read(0x1000).hit);
    EXPECT_EQ(c.accesses(), 2u);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.5);
}

TEST(TimingCache, WriteAllocatesAndWritesBack)
{
    TimingCache c(smallCache(8 * 64 * 8, 1)); // 8 sets, 8 ways
    c.write(0);
    // Fill set 0 with conflicting reads until the dirty line is
    // displaced (stride of 8 lines stays in set 0).
    bool saw_writeback = false;
    for (Addr a = 512; a <= 512 * 20; a += 512) {
        const auto res = c.read(a);
        if (res.writebackAddr &&
            *res.writebackAddr >> lineShift == 0) {
            saw_writeback = true;
        }
    }
    EXPECT_TRUE(saw_writeback);
    EXPECT_GE(c.writebacks(), 1u);
}

TEST(TimingCache, CleanEvictionsAreSilent)
{
    TimingCache c(smallCache(8 * 64 * 8, 1));
    for (Addr a = 0; a < 64 * 64; a += 64)
        EXPECT_FALSE(c.read(a).writebackAddr.has_value());
    EXPECT_EQ(c.writebacks(), 0u);
}

TEST(TimingCache, EnergyScalesWithAccesses)
{
    auto params = smallCache(64 * 1024, 12);
    params.accessEnergyNj = 0.13;
    TimingCache c(params);
    for (int i = 0; i < 10; ++i)
        c.read(static_cast<Addr>(i) << lineShift);
    EXPECT_DOUBLE_EQ(c.dynamicEnergyNj(), 1.3);
    c.resetStats();
    EXPECT_DOUBLE_EQ(c.dynamicEnergyNj(), 0.0);
}

TEST(Dram, RowHitIsFasterThanMiss)
{
    dram::Dram d;
    const Cycles first = d.access(0, 0);
    // Same channel (line % 4 == 0), same bank ((line/4) % 8 ==
    // 0), same row: line 32 = byte 2048.
    const Cycles second = d.access(2048, 1000);
    EXPECT_GT(first, second);
    EXPECT_EQ(d.rowHits(), 1u);
}

TEST(Dram, RowConflictCostsExtra)
{
    dram::Dram d;
    const auto row_span =
        d.params().rowBytes * d.params().channels;
    d.access(0, 0);
    const Cycles conflict = d.access(row_span * 8, 100000);
    EXPECT_EQ(d.rowConflicts(), 1u);
    EXPECT_GE(conflict, d.params().rowMissLatency +
                            d.params().rowConflictExtra);
}

TEST(Dram, NearbyAccessesQueue)
{
    dram::Dram d;
    const Cycles l1 = d.access(0, 0);
    const Cycles l2 = d.access(0, 0); // same bank, same time
    EXPECT_GT(l2, l1 - d.params().rowMissLatency +
                      d.params().rowHitLatency - 1);
}

TEST(Dram, FarFutureWorkDoesNotBlockThePresent)
{
    // The queue-window rule: an access stamped far in the future
    // must not delay one stamped much earlier (out-of-order
    // chain timestamps, see DramParams::queueWindow).
    dram::Dram d;
    d.access(0, 1'000'000);
    const Cycles lat = d.access(64 * 8, 0); // other line, bank 0?
    EXPECT_LE(lat, d.params().rowMissLatency +
                       d.params().rowConflictExtra +
                       d.params().queueWindow);
}

TEST(Dram, ChannelsSpreadLines)
{
    dram::Dram d;
    // Adjacent lines land on different channels: no queueing.
    const Cycles a = d.access(0, 0);
    const Cycles b = d.access(64, 0);
    const Cycles c = d.access(128, 0);
    EXPECT_EQ(a, b);
    EXPECT_EQ(b, c);
}

TEST(Dram, StatsAccumulate)
{
    dram::Dram d;
    Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        d.access(rng.below(1u << 28), i * 10);
    EXPECT_EQ(d.accesses(), 1000u);
    EXPECT_EQ(d.rowHits() + d.rowMisses() + d.rowConflicts(),
              1000u);
    EXPECT_GT(d.dynamicEnergyNj(), 0.0);
}

TEST(BelowL1, TwoLevelFillLatency)
{
    dram::Dram d;
    TimingCache llc(smallCache(1 << 20, 20));
    BelowL1 below(nullptr, llc, d);
    const Cycles cold = below.fill(0x100000, 0);
    EXPECT_GT(cold, llc.latency()); // went to DRAM
    const Cycles warm = below.fill(0x100000, 1000);
    EXPECT_EQ(warm, llc.latency());
}

TEST(BelowL1, ThreeLevelFillLatency)
{
    dram::Dram d;
    TimingCache llc(smallCache(1 << 20, 25));
    const auto l2 = smallCache(256 * 1024, 12);
    BelowL1 below(&l2, llc, d);
    const Cycles cold = below.fill(0x200000, 0);
    EXPECT_GT(cold, l2.latency + llc.latency());
    const Cycles warm = below.fill(0x200000, 1000);
    EXPECT_EQ(warm, below.l2()->latency());
    // An address displaced from L2 but present in the LLC.
    EXPECT_EQ(below.l2()->hits(), 1u);
}

TEST(BelowL1, WritebackReachesLowerLevels)
{
    dram::Dram d;
    TimingCache llc(smallCache(1 << 20, 25));
    const auto l2 = smallCache(256 * 1024, 12);
    BelowL1 below(&l2, llc, d);
    below.writeback(0x300000, 0);
    EXPECT_EQ(below.l2()->accesses(), 1u);
    // A writeback carries the full line, so the L2 allocates it
    // without fetching from the LLC.
    EXPECT_EQ(llc.accesses(), 0u);
    // Once the dirty line is pushed out of the L2 the LLC sees
    // the write.
    for (Addr a = 0; a < (1u << 19); a += 64)
        below.writeback(0x600000 + a, 0);
    EXPECT_GE(llc.accesses(), 1u);
}

TEST(BelowL1, CheckOptionArmsTheWritebackShim)
{
    dram::Dram d;
    TimingCache llc(smallCache(1 << 20, 25));
    // Off by default: the synthetic writebacks above are legal.
    EXPECT_EQ(BelowL1(nullptr, llc, d).fillTracker(), nullptr);

    check::Options checking;
    checking.enabled = true;
    BelowL1 below(nullptr, llc, d, checking);
    ASSERT_NE(below.fillTracker(), nullptr);
    below.fill(0x1000, 0);
    below.writeback(0x1000, 0);
    EXPECT_EQ(below.fillTracker()->failure(), "");
    // A line the hierarchy never filled is a fabricated writeback.
    below.writeback(0x2000, 0);
    EXPECT_NE(below.fillTracker()->failure(), "");
}

TEST(BelowL1, PrefetchWarmsTheL2)
{
    dram::Dram d;
    TimingCache llc(smallCache(1 << 20, 25));
    const auto l2 = smallCache(256 * 1024, 12);
    BelowL1 below(&l2, llc, d);
    below.prefetch(0x400000, 0);
    const Cycles lat = below.fill(0x400000, 100);
    EXPECT_EQ(lat, below.l2()->latency());
}

TEST(BelowL1, DramTrafficCounted)
{
    dram::Dram d;
    TimingCache llc(smallCache(1 << 20, 25));
    BelowL1 below(nullptr, llc, d);
    below.fill(0, 0);
    below.fill(1 << 21, 0);
    EXPECT_EQ(below.dramReads(), 2u);
    below.resetStats();
    EXPECT_EQ(below.dramReads(), 0u);
}

} // namespace
} // namespace sipt
