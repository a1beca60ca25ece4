/**
 * @file
 * The pipeline's memory stage (the hierarchy's function) apart from
 * its timing stage.
 *
 *  - DramHalves: the row half and the queue half of dram::Dram,
 *    composed directly or through an AccessLog replay, time every
 *    access exactly as the single-body model they replaced, kept
 *    here as the reference.
 *  - FunctionInvariance: physical tags make speculation a matter of
 *    timing only, so SIPT-naive, SIPT-combined and Ideal at one
 *    geometry write identical memory records batch by batch, and
 *    their L1, L2, LLC and DRAM counters agree, for a single job and
 *    for a quad mix over a shared LLC.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "batch/pipeline.hh"
#include "cache/hierarchy.hh"
#include "cache/timing_cache.hh"
#include "common/bitops.hh"
#include "common/rng.hh"
#include "cpu/core.hh"
#include "dram/dram.hh"
#include "sim/presets.hh"
#include "sim/system.hh"
#include "sipt/l1_cache.hh"
#include "vm/mmu.hh"
#include "vm/page_walker.hh"

namespace sipt
{
namespace
{

// ---------------------------------------------------------------
// DramHalves
// ---------------------------------------------------------------

/** The DRAM model as one body, before its split into a row half
 *  and a queue half: the reference the halves must reproduce. */
class ReferenceDram
{
  public:
    explicit ReferenceDram(const dram::DramParams &params)
        : params_(params),
          banks_(static_cast<std::size_t>(params.channels) *
                 params.banksPerChannel),
          channelBusyUntil_(params.channels, 0)
    {
    }

    Cycles
    access(Addr paddr, Cycles now)
    {
        ++accesses;
        const Addr line = blockNumber(paddr, lineShift);
        const std::uint32_t channel = static_cast<std::uint32_t>(
            line & (params_.channels - 1));
        const Addr after_ch =
            blockNumber(line, floorLog2(params_.channels));
        const std::uint32_t bank = static_cast<std::uint32_t>(
            after_ch & (params_.banksPerChannel - 1));
        const std::uint64_t row =
            blockNumber(paddr, floorLog2(params_.rowBytes *
                                         params_.channels));
        Bank &b = banks_[static_cast<std::size_t>(channel) *
                             params_.banksPerChannel +
                         bank];
        Cycles start = now;
        if (b.busyUntil > start &&
            b.busyUntil - start <= params_.queueWindow) {
            start = b.busyUntil;
        }
        if (channelBusyUntil_[channel] > start &&
            channelBusyUntil_[channel] - start <=
                params_.queueWindow) {
            start = channelBusyUntil_[channel];
        }
        Cycles service;
        if (b.rowOpen && b.openRow == row) {
            ++rowHits;
            service = params_.rowHitLatency;
        } else if (!b.rowOpen) {
            ++rowMisses;
            service = params_.rowMissLatency;
        } else {
            ++rowConflicts;
            service =
                params_.rowMissLatency + params_.rowConflictExtra;
        }
        b.rowOpen = true;
        b.openRow = row;
        b.busyUntil = start + params_.bankBusy;
        channelBusyUntil_[channel] = start + params_.busBusy;
        return (start - now) + service;
    }

    std::uint64_t accesses = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t rowConflicts = 0;

  private:
    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        Cycles busyUntil = 0;
    };

    dram::DramParams params_;
    std::vector<Bank> banks_;
    std::vector<Cycles> channelBusyUntil_;
};

/** One access of the random sequence. */
struct DramStep
{
    Addr paddr;
    Cycles now;
};

/**
 * @p n accesses over a few rows of every bank (so hits, misses and
 * conflicts all occur), at issue cycles that mostly advance but
 * also step back, within queueWindow of the busy banks and beyond
 * it, and jump far ahead.
 */
std::vector<DramStep>
randomDramSequence(const dram::DramParams &params, std::uint64_t seed,
                   std::size_t n)
{
    Rng rng(seed);
    std::vector<DramStep> steps;
    Cycles now = 100'000;
    const Addr row_span = params.rowBytes * params.channels;
    for (std::size_t i = 0; i < n; ++i) {
        switch (rng.below(8)) {
          case 0:
            // Back, inside the queue window.
            now -= rng.below(params.queueWindow);
            break;
          case 1:
            // Back, past the queue window.
            now -= params.queueWindow + 1 + rng.below(2'000);
            break;
          case 2:
            now += 10'000 + rng.below(100'000);
            break;
          default:
            now += rng.below(40);
            break;
        }
        const Addr paddr = rng.below(4) * row_span +
                           rng.below(row_span / lineSize) * lineSize +
                           rng.below(lineSize);
        steps.push_back({paddr, now});
    }
    return steps;
}

TEST(DramHalves, ComposedMatchesThePreSplitModel)
{
    const dram::DramParams params;
    const auto steps = randomDramSequence(params, 7, 50'000);
    ReferenceDram reference(params);
    dram::Dram composed(params);
    for (std::size_t i = 0; i < steps.size(); ++i) {
        ASSERT_EQ(composed.access(steps[i].paddr, steps[i].now),
                  reference.access(steps[i].paddr, steps[i].now))
            << "access " << i;
    }
    EXPECT_EQ(composed.accesses(), reference.accesses);
    EXPECT_EQ(composed.rowHits(), reference.rowHits);
    EXPECT_EQ(composed.rowMisses(), reference.rowMisses);
    EXPECT_EQ(composed.rowConflicts(), reference.rowConflicts);
    // The sequence exercises every outcome.
    EXPECT_GT(reference.rowHits, 0u);
    EXPECT_GT(reference.rowMisses, 0u);
    EXPECT_GT(reference.rowConflicts, 0u);
}

TEST(DramHalves, LoggedRowsReplayedLaterMatchThePreSplitModel)
{
    // The pipeline's use: the row half runs a whole batch ahead and
    // records into a log; the queue half replays it, each access at
    // its operation's start plus its offset.
    dram::DramParams params;
    params.channels = 2;
    params.banksPerChannel = 4;
    const auto steps = randomDramSequence(params, 11, 50'000);
    ReferenceDram reference(params);
    dram::DramRows rows(params);
    dram::DramQueue queue(params);
    Rng rng(3);
    constexpr std::size_t batch = 1024;
    for (std::size_t first = 0; first < steps.size(); first += batch) {
        const std::size_t last =
            std::min(steps.size(), first + batch);
        dram::AccessLog log;
        std::vector<Cycles> starts;
        for (std::size_t i = first; i < last; ++i) {
            // One operation per access, at a random offset.
            const auto offset =
                static_cast<std::uint32_t>(rng.below(60));
            const std::size_t op = log.accesses.size();
            log.add(rows.access(steps[i].paddr), offset, true);
            EXPECT_TRUE(log.close(op));
            starts.push_back(steps[i].now - offset);
        }
        dram::AccessLog::Cursor cursor;
        for (std::size_t i = first; i < last; ++i) {
            ASSERT_EQ(queue.replay(log, cursor, starts[i - first]),
                      reference.access(steps[i].paddr, steps[i].now))
                << "access " << i;
        }
        EXPECT_EQ(cursor.next, log.accesses.size());
    }
    EXPECT_EQ(rows.accesses(), reference.accesses);
    EXPECT_EQ(rows.rowHits(), reference.rowHits);
    EXPECT_EQ(rows.rowMisses(), reference.rowMisses);
    EXPECT_EQ(rows.rowConflicts(), reference.rowConflicts);
}

TEST(DramHalves, OnlyDemandAccessesAddLatency)
{
    // An operation's victim writeback occupies its bank but adds
    // nothing to the operation's latency; an operation that made no
    // access records nothing.
    const dram::DramParams params;
    dram::DramRows rows(params);
    dram::DramQueue queue(params);
    dram::AccessLog log;
    EXPECT_FALSE(log.close(0));
    log.add(rows.access(0), 30, false);
    log.add(rows.access(0), 30, true);
    EXPECT_TRUE(log.close(0));
    dram::AccessLog::Cursor cursor;
    ReferenceDram reference(params);
    reference.access(0, 1030);
    EXPECT_EQ(queue.replay(log, cursor, 1000),
              reference.access(0, 1030));
    EXPECT_EQ(cursor.next, 2u);
}

// ---------------------------------------------------------------
// FunctionInvariance
// ---------------------------------------------------------------

using sim::JobKind;
using sim::StreamSpec;

/** A radix walker's PTE reads through a hierarchy, split into its
 *  function and timing halves. */
class CachePort : public vm::WalkPort
{
  public:
    explicit CachePort(cache::BelowL1 &below) : below_(below) {}

    Cycles
    walkRead(Addr paddr, Cycles now) override
    {
        return below_.fill(paddr, now);
    }

    std::uint8_t
    walkFunction(Addr paddr, dram::AccessLog &log) override
    {
        return below_.fill(paddr, log);
    }

    Cycles
    walkTiming(Addr paddr, std::uint8_t outcome, Cycles now,
               const dram::AccessLog &log,
               dram::AccessLog::Cursor &cursor) override
    {
        return below_.timeFill(paddr, outcome, log, cursor, now);
    }

  private:
    cache::BelowL1 &below_;
};

/** One config's LLC and DRAM, shared by its cores. */
struct TestUncore
{
    dram::Dram dram;
    cache::TimingCache llc;

    explicit TestUncore(std::uint32_t cores)
        : llc(sim::llcPreset(true, cores))
    {
    }
};

/** One checked 32 KiB 2-way core with a radix walker, over
 *  @p uncore. */
struct TestCore
{
    cache::TimingCacheParams l2 = sim::l2Preset();
    vm::MmuTiming timing;
    cache::BelowL1 below;
    CachePort port;
    vm::PageWalker walker;
    SiptL1Cache l1;
    cpu::TraceCore core;
    batch::MachineStages stages;

    TestCore(IndexingPolicy policy, const vm::PageTable &table,
             TestUncore &uncore, std::uint64_t seed)
        : timing(sim::mmuPreset()),
          below(&l2, uncore.llc, uncore.dram, checked()),
          port(below), walker(vm::WalkerParams{}, port),
          l1([&] {
              L1Params p = sim::l1Preset(sim::L1Config::Sipt32K2, policy);
              p.check = checked();
              return p;
          }(),
             below),
          core([&] {
              cpu::CoreParams p = cpu::outOfOrderCoreParams();
              p.seed = seed + 3;
              return p;
          }()),
          stages(timing, table, l1, core)
    {
        timing.setWalker(&walker);
    }

    static check::Options
    checked()
    {
        check::Options options;
        options.enabled = true;
        return options;
    }
};

void
expectSameRecord(const batch::MemoryRecord &a,
                 const batch::MemoryRecord &b, std::size_t size)
{
    ASSERT_EQ(a.size, size);
    ASSERT_EQ(b.size, size);
    EXPECT_FALSE(a.error);
    EXPECT_FALSE(b.error);
    for (std::size_t i = 0; i < size; ++i) {
        ASSERT_EQ(a.outcome[i], b.outcome[i]) << "reference " << i;
        ASSERT_EQ(a.facts[i].dirtyAfter, b.facts[i].dirtyAfter);
        ASSERT_EQ(a.facts[i].evicted, b.facts[i].evicted);
        ASSERT_EQ(a.facts[i].evictedLine, b.facts[i].evictedLine);
    }
    EXPECT_EQ(a.walks, b.walks);
    EXPECT_EQ(a.log, b.log);
}

/**
 * Run @p apps as a @p kind job under every policy of @p policies,
 * each batch through every policy's memory stage then its timing
 * stage, and require identical records and function counters.
 */
void
expectFunctionInvariant(JobKind kind,
                        const std::vector<std::string> &apps,
                        const std::vector<IndexingPolicy> &policies)
{
    sim::SystemConfig config;
    config.warmupRefs = 6'000;
    config.measureRefs = 14'000;
    config.footprintScale = kind == JobKind::Mix ? 0.5 : 1.0;
    const StreamSpec spec = sim::streamSpec(config);
    sim::ConditionedMemory memory(spec);
    std::vector<std::unique_ptr<sim::Stream>> streams;
    for (std::size_t c = 0; c < apps.size(); ++c) {
        streams.push_back(std::make_unique<sim::Stream>(
            apps[c], spec, memory.buddy,
            sim::coreSeed(kind, spec.seed, c)));
    }
    std::vector<std::unique_ptr<TestUncore>> uncores;
    std::vector<std::vector<std::unique_ptr<TestCore>>> cores;
    for (const IndexingPolicy policy : policies) {
        uncores.push_back(std::make_unique<TestUncore>(
            static_cast<std::uint32_t>(apps.size())));
        cores.emplace_back();
        for (std::size_t c = 0; c < apps.size(); ++c) {
            cores.back().push_back(std::make_unique<TestCore>(
                policy, streams[c]->addressSpace().pageTable(),
                *uncores.back(), sim::coreSeed(kind, spec.seed, c)));
        }
    }

    // A mix takes turns in 5,000-reference slices, as runGroup()
    // schedules it; a single job runs the whole phase.
    const std::uint64_t refs = spec.warmupRefs + spec.measureRefs;
    const std::uint64_t slice = kind == JobKind::Mix ? 5'000 : refs;
    cpu::RefBatch batch;
    std::vector<batch::MemoryRecord> records(policies.size());
    std::uint64_t batches = 0;
    for (std::uint64_t done = 0; done < refs; done += slice) {
        for (std::size_t c = 0; c < apps.size(); ++c) {
            for (auto &per_policy : cores)
                per_policy[c]->stages.beginPhase();
            batch::forEachBatch(std::min(slice, refs - done),
                                [&](std::size_t want) {
                streams[c]->stages().fill(batch, want);
                for (std::size_t p = 0; p < policies.size(); ++p)
                    cores[p][c]->stages.memory(batch, records[p]);
                for (std::size_t p = 1; p < policies.size(); ++p) {
                    SCOPED_TRACE("batch " + std::to_string(batches) +
                                 ", policy " +
                                 policyName(policies[p]));
                    expectSameRecord(records[0], records[p],
                                     batch.size);
                }
                for (std::size_t p = 0; p < policies.size(); ++p)
                    cores[p][c]->stages.timing(batch, records[p]);
                ++batches;
                return batch.size;
            });
            for (auto &per_policy : cores)
                per_policy[c]->stages.endPhase();
        }
    }

    for (std::size_t p = 0; p < policies.size(); ++p) {
        SCOPED_TRACE(policyName(policies[p]));
        const TestUncore &u0 = *uncores[0];
        const TestUncore &u = *uncores[p];
        EXPECT_EQ(u.llc.accesses(), u0.llc.accesses());
        EXPECT_EQ(u.llc.hits(), u0.llc.hits());
        EXPECT_EQ(u.llc.misses(), u0.llc.misses());
        EXPECT_EQ(u.llc.writebacks(), u0.llc.writebacks());
        EXPECT_EQ(u.dram.accesses(), u0.dram.accesses());
        EXPECT_EQ(u.dram.rowHits(), u0.dram.rowHits());
        EXPECT_EQ(u.dram.rowMisses(), u0.dram.rowMisses());
        EXPECT_EQ(u.dram.rowConflicts(), u0.dram.rowConflicts());
        for (std::size_t c = 0; c < apps.size(); ++c) {
            SCOPED_TRACE("core " + std::to_string(c));
            const TestCore &k0 = *cores[0][c];
            const TestCore &k = *cores[p][c];
            EXPECT_FALSE(k.stages.error());
            EXPECT_EQ(k.l1.checkFailure(), "");
            EXPECT_EQ(k.l1.stats().accesses, k0.l1.stats().accesses);
            EXPECT_EQ(k.l1.stats().hits, k0.l1.stats().hits);
            EXPECT_EQ(k.l1.stats().misses, k0.l1.stats().misses);
            EXPECT_EQ(k.l1.stats().writebacks, k0.l1.stats().writebacks);
            EXPECT_EQ(k.l1.checkDigest(), k0.l1.checkDigest());
            const cache::TimingCache &l2 = *k.below.l2();
            const cache::TimingCache &l2_0 = *k0.below.l2();
            EXPECT_EQ(l2.accesses(), l2_0.accesses());
            EXPECT_EQ(l2.hits(), l2_0.hits());
            EXPECT_EQ(l2.misses(), l2_0.misses());
            EXPECT_EQ(l2.writebacks(), l2_0.writebacks());
            EXPECT_EQ(k.below.dramReads(), k0.below.dramReads());
            EXPECT_EQ(k.below.dramWrites(), k0.below.dramWrites());
            EXPECT_EQ(k.walker.pteReads(), k0.walker.pteReads());
        }
    }
    // Not vacuous: the runs missed to DRAM, wrote back and walked,
    // and the policies timed them differently.
    EXPECT_GT(uncores[0]->dram.accesses(), 0u);
    EXPECT_GT(uncores[0]->llc.writebacks() +
                  cores[0][0]->l1.stats().writebacks,
              0u);
    EXPECT_GT(cores[0][0]->walker.pteReads(), 0u);
    EXPECT_NE(cores[0][0]->l1.stats().fastAccesses,
              cores[1][0]->l1.stats().fastAccesses);
}

const std::vector<IndexingPolicy> invariancePolicies = {
    IndexingPolicy::SiptNaive, IndexingPolicy::SiptCombined,
    IndexingPolicy::Ideal};

TEST(FunctionInvariance, SingleJobRecordsMatchAcrossPolicies)
{
    expectFunctionInvariant(JobKind::Single, {"mcf"},
                            invariancePolicies);
}

TEST(FunctionInvariance, QuadMixRecordsMatchAcrossPolicies)
{
    expectFunctionInvariant(JobKind::Mix, {"mcf", "gcc", "lbm", "mcf"},
                            invariancePolicies);
}

} // namespace
} // namespace sipt
