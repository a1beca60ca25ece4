/**
 * @file
 * Integration tests: Tab. II presets, single-core end-to-end
 * runs under every policy, determinism, the ideal >= SIPT >=
 * naive ordering on speculation-hostile inputs, multicore runs,
 * and the memory-condition sweep.
 */

#include <gtest/gtest.h>

#include "sim/presets.hh"
#include "sim/system.hh"

namespace sipt::sim
{
namespace
{

SystemConfig
quick(IndexingPolicy policy, L1Config l1 = L1Config::Sipt32K2)
{
    SystemConfig cfg;
    cfg.l1Config = l1;
    cfg.policy = policy;
    cfg.warmupRefs = 20'000;
    cfg.measureRefs = 60'000;
    return cfg;
}

TEST(Presets, TableIIL1Values)
{
    const auto base =
        l1Preset(L1Config::Baseline32K8, IndexingPolicy::Vipt);
    EXPECT_EQ(base.geometry.sizeBytes, 32u * 1024);
    EXPECT_EQ(base.geometry.assoc, 8u);
    EXPECT_EQ(base.hitLatency, 4u);
    EXPECT_DOUBLE_EQ(base.accessEnergyNj, 0.38);
    EXPECT_DOUBLE_EQ(base.staticPowerMw, 46.0);

    const auto s2 =
        l1Preset(L1Config::Sipt32K2, IndexingPolicy::Ideal);
    EXPECT_EQ(s2.hitLatency, 2u);
    EXPECT_DOUBLE_EQ(s2.accessEnergyNj, 0.10);
    EXPECT_EQ(s2.geometry.speculativeBits(), 2u);

    const auto s128 =
        l1Preset(L1Config::Sipt128K4, IndexingPolicy::Ideal);
    EXPECT_EQ(s128.hitLatency, 4u);
    EXPECT_EQ(s128.geometry.speculativeBits(), 3u);
}

TEST(Presets, LowerLevels)
{
    const auto l2 = l2Preset();
    EXPECT_EQ(l2.geometry.sizeBytes, 256u * 1024);
    EXPECT_EQ(l2.latency, 12u);

    const auto llc1 = llcPreset(true, 1);
    EXPECT_EQ(llc1.geometry.sizeBytes, 2ull << 20);
    EXPECT_EQ(llc1.latency, 25u);
    const auto llc4 = llcPreset(true, 4);
    EXPECT_EQ(llc4.geometry.sizeBytes, 8ull << 20);
    EXPECT_DOUBLE_EQ(llc4.staticPowerMw, 4 * 578.0);

    const auto llc_in = llcPreset(false, 1);
    EXPECT_EQ(llc_in.geometry.sizeBytes, 1ull << 20);
    EXPECT_EQ(llc_in.latency, 20u);
}

TEST(Presets, SiptConfigListMatchesPaper)
{
    const auto &cfgs = siptConfigs();
    ASSERT_EQ(cfgs.size(), 4u);
    EXPECT_EQ(cfgs[0], L1Config::Sipt32K2);
    EXPECT_EQ(cfgs[3], L1Config::Sipt128K4);
}

TEST(SingleCore, BaselineRunProducesSaneMetrics)
{
    const auto r = runSingleCore(
        "povray", quick(IndexingPolicy::Vipt,
                        L1Config::Baseline32K8));
    EXPECT_GT(r.ipc, 0.05);
    EXPECT_LT(r.ipc, 6.0);
    EXPECT_GT(r.l1HitRate, 0.3);
    EXPECT_DOUBLE_EQ(r.fastFraction, 1.0);
    EXPECT_GT(r.energy.total(), 0.0);
    EXPECT_EQ(r.l1.accesses, 60'000u);
    EXPECT_GT(r.dtlbHitRate, 0.5);
}

TEST(SingleCore, EveryPolicyRuns)
{
    for (const auto policy :
         {IndexingPolicy::Ideal, IndexingPolicy::SiptNaive,
          IndexingPolicy::SiptBypass,
          IndexingPolicy::SiptCombined}) {
        const auto r = runSingleCore("gamess", quick(policy));
        EXPECT_GT(r.ipc, 0.0) << policyName(policy);
    }
}

TEST(SingleCore, DeterministicForSameSeed)
{
    const auto a = runSingleCore(
        "gobmk", quick(IndexingPolicy::SiptCombined));
    const auto b = runSingleCore(
        "gobmk", quick(IndexingPolicy::SiptCombined));
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.l1.hits, b.l1.hits);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

TEST(SingleCore, CheckFieldIsTheOnlySwitch)
{
    // SystemConfig::check alone decides whether a run is checked,
    // whatever SIPT_CHECK says, so the run key always tells checked
    // and unchecked results apart. Checking never changes timing.
    auto cfg = quick(IndexingPolicy::SiptCombined);
    cfg.check = false;
    const auto off = runSingleCore("gobmk", cfg);
    EXPECT_EQ(off.checkDigest, 0u);
    EXPECT_EQ(off.checkEvents, 0u);
    cfg.check = true;
    const auto on = runSingleCore("gobmk", cfg);
    EXPECT_NE(on.checkDigest, 0u);
    EXPECT_EQ(on.checkEvents, cfg.measureRefs);
    EXPECT_EQ(on.checkFailure, "");
    EXPECT_DOUBLE_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.l1.hits, off.l1.hits);
}

TEST(SingleCore, SeedChangesRun)
{
    auto cfg = quick(IndexingPolicy::SiptCombined);
    const auto a = runSingleCore("gobmk", cfg);
    cfg.seed = 999;
    const auto b = runSingleCore("gobmk", cfg);
    EXPECT_NE(a.l1.hits, b.l1.hits);
}

TEST(SingleCore, CombinedBeatsNaiveOnHostileApp)
{
    // calculix: constant nonzero delta -> naive replays
    // everything, combined rescues via the IDB.
    const auto naive = runSingleCore(
        "calculix", quick(IndexingPolicy::SiptNaive));
    const auto combined = runSingleCore(
        "calculix", quick(IndexingPolicy::SiptCombined));
    EXPECT_LT(naive.fastFraction, 0.6);
    EXPECT_GT(combined.fastFraction, 0.9);
    EXPECT_GE(combined.ipc, naive.ipc);
    EXPECT_LT(combined.l1.extraArrayAccesses,
              naive.l1.extraArrayAccesses);
}

TEST(SingleCore, IdealIsAtLeastAsFastAsSipt)
{
    for (const auto &app : {"calculix", "graph500"}) {
        const auto sipt = runSingleCore(
            app, quick(IndexingPolicy::SiptCombined));
        const auto ideal = runSingleCore(
            app, quick(IndexingPolicy::Ideal));
        EXPECT_GE(ideal.ipc, sipt.ipc * 0.999) << app;
        EXPECT_LE(ideal.energy.total(),
                  sipt.energy.total() * 1.001)
            << app;
    }
}

TEST(SingleCore, BypassCutsExtraAccessesVsNaive)
{
    const auto naive = runSingleCore(
        "calculix", quick(IndexingPolicy::SiptNaive));
    const auto bypass = runSingleCore(
        "calculix", quick(IndexingPolicy::SiptBypass));
    EXPECT_LT(bypass.l1.extraArrayAccesses,
              naive.l1.extraArrayAccesses / 4);
}

TEST(SingleCore, WayPredictionSavesEnergy)
{
    auto cfg = quick(IndexingPolicy::Vipt,
                     L1Config::Baseline32K8);
    const auto base = runSingleCore("gamess", cfg);
    cfg.wayPrediction = true;
    const auto wp = runSingleCore("gamess", cfg);
    EXPECT_GT(wp.wayPredAccuracy, 0.6);
    EXPECT_LT(wp.energy.l1Dynamic, base.energy.l1Dynamic);
    EXPECT_LE(wp.ipc, base.ipc * 1.001);
}

TEST(SingleCore, WayPredictionMoreAccurateAtLowAssoc)
{
    auto base_cfg = quick(IndexingPolicy::Vipt,
                          L1Config::Baseline32K8);
    base_cfg.wayPrediction = true;
    const auto base = runSingleCore("gamess", base_cfg);

    auto sipt_cfg = quick(IndexingPolicy::SiptCombined);
    sipt_cfg.wayPrediction = true;
    const auto sipt = runSingleCore("gamess", sipt_cfg);
    EXPECT_GT(sipt.wayPredAccuracy, base.wayPredAccuracy);
}

TEST(SingleCore, InOrderHierarchyIsTwoLevel)
{
    auto cfg = quick(IndexingPolicy::Vipt,
                     L1Config::Baseline32K8);
    cfg.outOfOrder = false;
    const auto r = runSingleCore("povray", cfg);
    EXPECT_DOUBLE_EQ(r.energy.l2Dynamic, 0.0);
    EXPECT_DOUBLE_EQ(r.energy.l2Static, 0.0);
    EXPECT_GT(r.ipc, 0.0);
}

TEST(SingleCore, ConditionsAffectHugePages)
{
    auto cfg = quick(IndexingPolicy::SiptCombined);
    cfg.condition = MemCondition::ThpOff;
    const auto thp_off = runSingleCore("libquantum", cfg);
    EXPECT_DOUBLE_EQ(thp_off.hugeCoverage, 0.0);

    cfg.condition = MemCondition::Normal;
    const auto normal = runSingleCore("libquantum", cfg);
    EXPECT_GT(normal.hugeCoverage, 0.5);

    cfg.condition = MemCondition::Fragmented;
    const auto frag = runSingleCore("libquantum", cfg);
    EXPECT_LT(frag.hugeCoverage, normal.hugeCoverage);
}

TEST(SingleCore, NoContiguityHurtsPrediction)
{
    auto cfg = quick(IndexingPolicy::SiptCombined);
    const auto normal = runSingleCore("calculix", cfg);
    cfg.condition = MemCondition::NoContiguity;
    const auto scattered = runSingleCore("calculix", cfg);
    EXPECT_LT(scattered.fastFraction,
              normal.fastFraction - 0.1);
}

TEST(SingleCore, RadixWalkerChangesWalkCostOnly)
{
    // graph500 misses the TLB constantly: the radix walker model
    // must run, produce sane IPC, and leave speculation behaviour
    // untouched (it only changes walk latency and L2 traffic).
    auto cfg = quick(IndexingPolicy::SiptCombined);
    const auto constant = runSingleCore("graph500", cfg);
    cfg.radixWalker = true;
    const auto radix = runSingleCore("graph500", cfg);
    EXPECT_GT(radix.ipc, 0.0);
    EXPECT_EQ(radix.l1.accesses, constant.l1.accesses);
    EXPECT_NEAR(radix.fastFraction, constant.fastFraction,
                0.02);
    EXPECT_GT(radix.pageWalks, 1000u);
}

TEST(Multicore, RunsAndAggregates)
{
    SystemConfig cfg = quick(IndexingPolicy::SiptCombined);
    cfg.warmupRefs = 5'000;
    cfg.measureRefs = 20'000;
    cfg.footprintScale = 0.5;
    const std::vector<std::string> mix = {"povray", "gamess",
                                          "gobmk", "hmmer"};
    const auto r = runMulticore(mix, cfg);
    ASSERT_EQ(r.perCore.size(), 4u);
    double sum = 0.0;
    for (const auto &core : r.perCore) {
        EXPECT_GT(core.ipc, 0.0);
        sum += core.ipc;
    }
    EXPECT_DOUBLE_EQ(r.sumIpc, sum);
    EXPECT_GT(r.energy.total(), 0.0);
}

TEST(Multicore, DeterministicForSameSeed)
{
    SystemConfig cfg = quick(IndexingPolicy::SiptCombined);
    cfg.warmupRefs = 2'000;
    cfg.measureRefs = 10'000;
    cfg.footprintScale = 0.5;
    const std::vector<std::string> mix = {"povray", "gamess"};
    const auto a = runMulticore(mix, cfg);
    const auto b = runMulticore(mix, cfg);
    EXPECT_DOUBLE_EQ(a.sumIpc, b.sumIpc);
}

TEST(Conditions, NamesAreStable)
{
    EXPECT_STREQ(conditionName(MemCondition::Normal), "Normal");
    EXPECT_STREQ(conditionName(MemCondition::Fragmented),
                 "Fragmented");
    EXPECT_STREQ(conditionName(MemCondition::ThpOff), "THP-off");
}

} // namespace
} // namespace sipt::sim
