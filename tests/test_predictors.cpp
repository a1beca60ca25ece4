/**
 * @file
 * Tests for the perceptron bypass predictor, the index delta
 * buffer, the combined predictor, and the counter ablation
 * predictor.
 */

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "predictor/combined.hh"
#include "predictor/counter.hh"
#include "predictor/idb.hh"
#include "predictor/perceptron.hh"

namespace sipt::predictor
{
namespace
{

TEST(Perceptron, StorageMatchesPaperEstimate)
{
    PerceptronBypassPredictor p;
    // 64 perceptrons x 13 weights x 6 bits = 624 bytes (Sec. V).
    EXPECT_EQ(p.storageBytes(), 624u);
}

TEST(Perceptron, DefaultsToSpeculating)
{
    PerceptronBypassPredictor p;
    EXPECT_TRUE(p.resolve(0x400000, true));
}

TEST(Perceptron, LearnsAlwaysChangedPc)
{
    PerceptronBypassPredictor p;
    const Addr pc = 0x400100;
    for (int i = 0; i < 64; ++i)
        p.resolve(pc, false);
    EXPECT_FALSE(p.resolve(pc, false));
}

TEST(Perceptron, LearnsPerPcPattern)
{
    // Interleave a PC whose bits never change with one whose
    // bits always change; after warmup both must be predicted
    // correctly (probed in phase with the global history).
    PerceptronBypassPredictor p;
    const Addr good = 0x400000;
    const Addr bad = 0x400004;
    int good_ok = 0, bad_ok = 0;
    for (int i = 0; i < 200; ++i) {
        const bool pg = p.resolve(good, true);
        const bool pb = p.resolve(bad, false);
        if (i >= 100) {
            good_ok += pg;
            bad_ok += !pb;
        }
    }
    EXPECT_GT(good_ok, 95);
    EXPECT_GT(bad_ok, 95);
}

TEST(Perceptron, AccuracyOnBiasedStream)
{
    PerceptronBypassPredictor p;
    Rng rng(1);
    int correct = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const Addr pc = 0x400000 + 4 * rng.below(32);
        const bool unchanged = rng.chance(0.9);
        correct += (p.resolve(pc, unchanged) == unchanged);
    }
    // Must learn the bias (>= ~88% on a 90/10 stream).
    EXPECT_GT(correct, n * 85 / 100);
}

TEST(Perceptron, AdaptsToPhaseChange)
{
    PerceptronBypassPredictor p;
    const Addr pc = 0x400040;
    for (int i = 0; i < 100; ++i)
        p.resolve(pc, true);
    EXPECT_TRUE(p.resolve(pc, true));
    for (int i = 0; i < 100; ++i)
        p.resolve(pc, false);
    EXPECT_FALSE(p.resolve(pc, false));
}

TEST(Perceptron, BadParamsAreFatal)
{
    PerceptronParams params;
    params.entries = 63;
    EXPECT_EXIT(PerceptronBypassPredictor p(params),
                ::testing::ExitedWithCode(1), "power of two");
}

TEST(Idb, ColdEntryPredictsUnchanged)
{
    IndexDeltaBuffer idb(IdbParams{64, 3, false, 1});
    EXPECT_EQ(idb.predictBits(0x400000, 0b101), 0b101u);
}

TEST(Idb, LearnsDelta)
{
    IndexDeltaBuffer idb(IdbParams{64, 3, false, 1});
    const Addr pc = 0x400000;
    idb.update(pc, 100, 100 + 5);
    // Same delta applies to any page: (vpn + 5) mod 8.
    EXPECT_EQ(idb.predictBits(pc, 200), (200 + 5) & 7u);
    EXPECT_EQ(idb.predictBits(pc, 203), (203 + 5) & 7u);
}

TEST(Idb, DeltaIsModuloSpecBits)
{
    IndexDeltaBuffer idb(IdbParams{64, 2, false, 1});
    idb.update(0x400000, 0, 4); // delta 4 = 0 mod 4
    EXPECT_EQ(idb.predictBits(0x400000, 7), 7u & 3u);
}

TEST(Idb, EntriesArePcIndexed)
{
    IndexDeltaBuffer idb(IdbParams{64, 3, false, 1});
    idb.update(0x400000, 0, 3);
    // A different (non-aliasing) PC keeps its cold behaviour.
    EXPECT_EQ(idb.predictBits(0x400004, 0), 0u);
    EXPECT_EQ(idb.predictBits(0x400000, 0), 3u);
}

TEST(Idb, PcAliasingWrapsTable)
{
    IndexDeltaBuffer idb(IdbParams{64, 3, false, 1});
    idb.update(0x400000, 0, 3);
    // 64 entries, pc >> 2 indexing: +64*4 aliases to entry 0.
    EXPECT_EQ(idb.predictBits(0x400000 + 64 * 4, 0), 3u);
}

TEST(Idb, ZeroContiguityModeRandomisesAcrossPages)
{
    IndexDeltaBuffer idb(IdbParams{64, 3, true, 1});
    const Addr pc = 0x400000;
    idb.update(pc, 100, 105);
    // Same page: deterministic delta.
    EXPECT_EQ(idb.predictBits(pc, 100), (100 + 5) & 7u);
    // Different pages: predictions become random; over many
    // pages they cannot all equal the trained delta.
    int matches = 0;
    for (Vpn v = 200; v < 400; ++v)
        matches += (idb.predictBits(pc, v) == ((v + 5) & 7));
    EXPECT_LT(matches, 80);
    EXPECT_GT(matches, 2);
}

TEST(Idb, StorageIsTiny)
{
    IndexDeltaBuffer idb(IdbParams{64, 3, false, 1});
    EXPECT_LE(idb.storageBytes(), 32u);
}

TEST(Combined, SpeculatesRawBitsWhenPerceptronAgrees)
{
    CombinedIndexPredictor c(2);
    const Addr pc = 0x400000;
    // Train "unchanged": perceptron should speculate with VA.
    for (int i = 0; i < 50; ++i)
        c.resolve(pc, 100 + i, 100 + i);
    const auto pred = c.resolve(pc, 77, 77);
    EXPECT_EQ(pred.source, IndexSource::VaBits);
    EXPECT_EQ(pred.bits, 77u & 3u);
}

TEST(Combined, UsesIdbWhenBypassPredicted)
{
    CombinedIndexPredictor c(3);
    const Addr pc = 0x400000;
    // Constant nonzero delta: perceptron learns "changed", IDB
    // learns the delta.
    for (Vpn v = 0; v < 100; ++v)
        c.resolve(pc, v, v + 3);
    const auto pred = c.resolve(pc, 200, 203);
    EXPECT_EQ(pred.source, IndexSource::Idb);
    EXPECT_EQ(pred.bits, (200 + 3) & 7u);
}

TEST(Combined, SingleBitUsesReversal)
{
    CombinedIndexPredictor c(1);
    const Addr pc = 0x400000;
    for (Vpn v = 0; v < 100; ++v)
        c.resolve(pc, v, v + 1); // bit always flips
    const auto pred = c.resolve(pc, 40, 41);
    EXPECT_EQ(pred.source, IndexSource::Reversed);
    EXPECT_EQ(pred.bits, (40u & 1u) ^ 1u);
}

TEST(Combined, TracksDeltaChanges)
{
    CombinedIndexPredictor c(3);
    const Addr pc = 0x400000;
    for (Vpn v = 0; v < 100; ++v)
        c.resolve(pc, v, v + 2);
    for (Vpn v = 100; v < 200; ++v)
        c.resolve(pc, v, v + 6);
    const auto pred = c.resolve(pc, 300, 306);
    EXPECT_EQ(pred.bits, (300 + 6) & 7u);
}

TEST(Combined, StorageWithinPaperBound)
{
    // Paper: combined predictor < 2% of L1 area; in absolute
    // terms well under 1 KiB.
    CombinedIndexPredictor c(3);
    EXPECT_LT(c.storageBytes(), 1024u);
}

TEST(Combined, ZeroBitsIsFatal)
{
    EXPECT_EXIT(CombinedIndexPredictor c(0),
                ::testing::ExitedWithCode(1), "specBits");
}

TEST(Counter, LearnsBias)
{
    CounterBypassPredictor c;
    const Addr pc = 0x400000;
    for (int i = 0; i < 4; ++i)
        c.resolve(pc, false);
    EXPECT_FALSE(c.resolve(pc, true));
    for (int i = 0; i < 4; ++i)
        c.resolve(pc, true);
    EXPECT_TRUE(c.resolve(pc, true));
}

TEST(Counter, SaturatesAtBounds)
{
    CounterBypassPredictor c(CounterParams{64, 2});
    const Addr pc = 0x400000;
    for (int i = 0; i < 100; ++i)
        c.resolve(pc, true);
    // One bad outcome must not flip a saturated counter.
    c.resolve(pc, false);
    EXPECT_TRUE(c.resolve(pc, true));
}

TEST(Counter, IsWorseThanPerceptronOnAlternation)
{
    // The pattern class where history helps: strict alternation.
    CounterBypassPredictor counter;
    PerceptronBypassPredictor perceptron;
    const Addr pc = 0x400000;
    int counter_ok = 0, perceptron_ok = 0;
    bool unchanged = false;
    for (int i = 0; i < 4000; ++i) {
        unchanged = !unchanged;
        counter_ok += (counter.resolve(pc, unchanged) == unchanged);
        perceptron_ok +=
            (perceptron.resolve(pc, unchanged) == unchanged);
    }
    EXPECT_GT(perceptron_ok, 3500);
    EXPECT_LT(counter_ok, 2800);
}

} // namespace
} // namespace sipt::predictor
