/**
 * @file
 * The stream and memory threads (sim::StreamThread): a group run
 * that generates and resolves its batches on a second host thread
 * (Overlap::Threaded), or also runs every machine's memory stage on
 * a third while the caller predicts and times (Overlap::Pipelined),
 * must return exactly what the inline run returns, bit for bit, for
 * every job shape, and must neither hang nor leak a thread when a
 * phase is empty, the stream fails or a machine fails. One helper
 * body serves each case on any set of layouts: the StreamThread
 * suite runs it on two threads, the PredictThread suite on three,
 * and the cases without a twin on both. The PredictThread suite
 * also covers what only the three-thread layout has: the memory
 * thread's ring, its errors and a machine failing in its memory
 * stage.
 */

#include <bit>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <sched.h>
#include <unistd.h>

#include "batch/pipeline.hh"
#include "cache/hierarchy.hh"
#include "cache/timing_cache.hh"
#include "cpu/core.hh"
#include "dram/dram.hh"
#include "os/address_space.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "sipt/l1_cache.hh"
#include "vm/mmu.hh"
#include "vm/page_walker.hh"
#include "workload/profile.hh"
#include "workload/synthetic.hh"
#include "workload/trace_format.hh"

namespace sipt::sim
{
namespace
{

/** A checked single-core config small enough for a unit test. */
SystemConfig
checkedConfig(IndexingPolicy policy = IndexingPolicy::SiptCombined)
{
    SystemConfig config;
    config.l1Config = policy == IndexingPolicy::Vipt
                          ? L1Config::Baseline32K8
                          : L1Config::Sipt32K2;
    config.policy = policy;
    config.warmupRefs = 3'000;
    config.measureRefs = 12'500;
    config.check = true; // populate the functional digest
    return config;
}

/** Every field of @p threaded equals @p inlined's, doubles by bit
 *  pattern. */
void
expectIdentical(const RunResult &threaded, const RunResult &inlined)
{
    EXPECT_TRUE(inlined.checkFailure.empty()) << inlined.checkFailure;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(threaded.cycles),
              std::bit_cast<std::uint64_t>(inlined.cycles));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(threaded.dtlbHitRate),
              std::bit_cast<std::uint64_t>(inlined.dtlbHitRate));
    EXPECT_EQ(threaded.pageWalks, inlined.pageWalks);
    EXPECT_EQ(threaded.checkDigest, inlined.checkDigest);
    EXPECT_EQ(threaded.checkEvents, inlined.checkEvents);
    // The result codec names every field, L1Stats included.
    EXPECT_EQ(runResultToJson(threaded).dump(),
              runResultToJson(inlined).dump());
}

/** Layouts that run stages off the caller's thread. */
using Layouts = std::vector<Overlap>;

/** Both threaded layouts: two threads and three. */
const Layouts bothLayouts = {Overlap::Threaded, Overlap::Pipelined};

/** Printable name of a threaded layout, for SCOPED_TRACE. */
const char *
layoutName(Overlap overlap)
{
    return overlap == Overlap::Threaded ? "two threads"
                                        : "three threads";
}

/** runGroup() inline and on each of @p layouts agree on every
 *  config and core. */
void
expectGroupIdentical(JobKind kind, const std::vector<std::string> &apps,
                     const std::vector<SystemConfig> &configs,
                     const Layouts &layouts = bothLayouts)
{
    const std::vector<MulticoreResult> inlined =
        runGroup(kind, apps, configs, nullptr, Overlap::Inline);
    ASSERT_EQ(inlined.size(), configs.size());
    for (const Overlap overlap : layouts) {
        SCOPED_TRACE(layoutName(overlap));
        const std::vector<MulticoreResult> threaded =
            runGroup(kind, apps, configs, nullptr, overlap);
        ASSERT_EQ(threaded.size(), configs.size());
        for (std::size_t i = 0; i < configs.size(); ++i) {
            ASSERT_EQ(threaded[i].perCore.size(), apps.size());
            ASSERT_EQ(inlined[i].perCore.size(), apps.size());
            for (std::size_t c = 0; c < apps.size(); ++c) {
                SCOPED_TRACE("config " + std::to_string(i) + " core " +
                             std::to_string(c));
                EXPECT_GT(inlined[i].perCore[c].checkEvents, 0u);
                expectIdentical(threaded[i].perCore[c],
                                inlined[i].perCore[c]);
            }
            EXPECT_EQ(std::bit_cast<std::uint64_t>(threaded[i].sumIpc),
                      std::bit_cast<std::uint64_t>(inlined[i].sumIpc));
        }
    }
}

/** Threads of this process, from /proc/self/task. */
std::size_t
liveThreads()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &task :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

/** liveThreads() once a stream thread has come and gone (a
 *  sanitizer runtime starts a helper thread of its own at the
 *  first thread start). */
std::size_t
threadsAtRest()
{
    {
        const StreamThread idle([](StreamThread &) {});
    }
    return liveThreads();
}

TEST(StreamThread, SingleRunMatchesInline)
{
    expectGroupIdentical(JobKind::Single, {"mcf"}, {checkedConfig()});
}

TEST(StreamThread, ThreeConfigGroupMatchesInline)
{
    SystemConfig ideal = checkedConfig(IndexingPolicy::Ideal);
    ideal.wayPrediction = true;
    expectGroupIdentical(JobKind::Single, {"gcc"},
                         {checkedConfig(IndexingPolicy::Vipt),
                          checkedConfig(), ideal});
}

/** An mcf group with the radix walker, and one without, on
 *  @p layouts. */
void
expectRadixWalkerIdentical(const Layouts &layouts)
{
    SystemConfig radix = checkedConfig();
    radix.radixWalker = true;
    expectGroupIdentical(JobKind::Single, {"mcf"},
                         {radix, checkedConfig()}, layouts);
}

TEST(StreamThread, RadixWalkerMatchesInline)
{
    expectRadixWalkerIdentical({Overlap::Threaded});
}

/** A milc trace recorded with checkedConfig(), at a path no other
 *  process uses; removed with the object. */
struct RecordedTrace
{
    std::string path;

    explicit RecordedTrace(const std::string &tag)
    {
        const auto dir = std::filesystem::temp_directory_path() /
                         "sipt_test_stream_thread";
        std::filesystem::create_directories(dir);
        path = (dir / ("milc." + tag + "." + std::to_string(getpid()) +
                       ".trace"))
                   .string();
        recordTrace("milc", checkedConfig(), path);
    }
    ~RecordedTrace() { std::filesystem::remove(path); }
};

/** A recorded milc trace replayed under two policies, on
 *  @p layouts. */
void
expectTraceReplayIdentical(const Layouts &layouts)
{
    const RecordedTrace trace("replay");
    expectGroupIdentical(JobKind::Single, {"trace:" + trace.path},
                         {checkedConfig(),
                          checkedConfig(IndexingPolicy::Vipt)},
                         layouts);
}

TEST(StreamThread, TraceReplayMatchesInline)
{
    expectTraceReplayIdentical({Overlap::Threaded});
}

/** A four-core mix under @p policy and the default SIPT policy, on
 *  @p layouts. */
void
expectQuadMixIdentical(IndexingPolicy policy, const Layouts &layouts)
{
    // Both phases span several 5,000-reference episodes per core
    // and end mid-episode, and the stream thread resets the TLB
    // counters at the phase boundary while the caller still steps
    // warmup batches.
    std::vector<SystemConfig> configs = {checkedConfig(policy),
                                         checkedConfig()};
    for (SystemConfig &config : configs) {
        config.footprintScale = 0.5;
        config.warmupRefs = 12'000;
        config.measureRefs = 11'111;
    }
    expectGroupIdentical(JobKind::Mix, {"mcf", "gcc", "lbm", "mcf"},
                         configs, layouts);
}

TEST(StreamThread, QuadMixMatchesInline)
{
    expectQuadMixIdentical(IndexingPolicy::Vipt, {Overlap::Threaded});
}

/** Phases shorter than one batch: one partial batch each. */
SystemConfig
shortRunConfig()
{
    SystemConfig config = checkedConfig();
    config.warmupRefs = cpu::RefBatch::capacity / 3;
    config.measureRefs = cpu::RefBatch::capacity - 1;
    return config;
}

/** Single and mix runs shorter than one batch, on @p layouts. */
void
expectShortRunIdentical(const Layouts &layouts)
{
    const SystemConfig config = shortRunConfig();
    expectGroupIdentical(JobKind::Single, {"mcf"}, {config}, layouts);
    expectGroupIdentical(JobKind::Mix, {"mcf", "gcc"}, {config},
                         layouts);
}

TEST(StreamThread, RunShorterThanOneBatchMatchesInline)
{
    expectShortRunIdentical({Overlap::Threaded});
}

/** 0- and 1-reference phases, single and mix, return on each of
 *  @p layouts exactly what they return inline. */
void
expectTinyPhasesIdentical(const Layouts &layouts)
{
    for (const auto &[warmup, measure] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {0, 0}, {0, 1}, {1, 0}, {1, 1}}) {
        SCOPED_TRACE(std::to_string(warmup) + "+" +
                     std::to_string(measure));
        SystemConfig config = checkedConfig();
        config.check = false;
        config.warmupRefs = warmup;
        config.measureRefs = measure;
        for (const JobKind kind : {JobKind::Single, JobKind::Mix}) {
            const std::vector<std::string> apps =
                kind == JobKind::Single
                    ? std::vector<std::string>{"gcc"}
                    : std::vector<std::string>{"gcc", "mcf"};
            const auto inlined =
                runGroup(kind, apps, {config}, nullptr, Overlap::Inline);
            for (const Overlap overlap : layouts) {
                SCOPED_TRACE(layoutName(overlap));
                const auto threaded =
                    runGroup(kind, apps, {config}, nullptr, overlap);
                for (std::size_t c = 0; c < apps.size(); ++c) {
                    EXPECT_EQ(threaded[0].perCore[c].l1.accesses,
                              measure);
                    expectIdentical(threaded[0].perCore[c],
                                    inlined[0].perCore[c]);
                }
            }
        }
    }
}

TEST(StreamThread, EmptyAndOneReferencePhasesReturn)
{
    expectTinyPhasesIdentical({Overlap::Threaded});
}

/** What ThrowingSource throws: the batch it failed at. */
struct StreamFailure : std::runtime_error
{
    explicit StreamFailure(std::uint64_t at)
        : std::runtime_error("stream failed"), at(at)
    {
    }
    std::uint64_t at;
};

/** A workload whose batch number @p fail_at (from 0) throws. */
class ThrowingSource : public cpu::TraceSource
{
  public:
    ThrowingSource(std::unique_ptr<cpu::TraceSource> inner,
                   std::uint64_t fail_at)
        : inner_(std::move(inner)), failAt_(fail_at)
    {
    }

    bool next(MemRef &ref) override { return inner_->next(ref); }

    std::size_t
    nextBatch(cpu::RefBatch &batch, std::size_t max_refs) override
    {
        if (batches_++ == failAt_)
            throw StreamFailure(failAt_);
        return inner_->nextBatch(batch, max_refs);
    }

  private:
    std::unique_ptr<cpu::TraceSource> inner_;
    std::uint64_t failAt_;
    std::uint64_t batches_ = 0;
};

/** runOnStreams() over a gcc stream whose batch @p fail_at throws;
 *  returns the failure it rethrew. */
std::uint64_t
failingRun(std::uint64_t fail_at, Overlap overlap)
{
    const SystemConfig config = checkedConfig();
    const StreamSpec spec = streamSpec(config);
    ConditionedMemory memory(spec);
    const std::uint64_t seed = coreSeed(JobKind::Single, spec.seed, 0);
    Workload w;
    w.as = std::make_unique<os::AddressSpace>(
        memory.buddy, os::PagingPolicy{}, seed + 1);
    w.source = std::make_unique<ThrowingSource>(
        std::make_unique<workload::SyntheticWorkload>(
            workload::appProfile("gcc"), *w.as, seed + 2),
        fail_at);
    Stream stream(std::move(w));
    Stream *const streams[] = {&stream};
    try {
        runOnStreams(JobKind::Single, streams, {"gcc"}, {config},
                     nullptr, overlap);
    } catch (const StreamFailure &failure) {
        return failure.at;
    }
    ADD_FAILURE() << "the stream's exception did not reach the caller";
    return 0;
}

/** A source exception at the middle of the warmup, at its last
 *  (partial) batch and at the first measured batch reaches the
 *  caller on each of @p layouts, as inline, with no thread left. */
void
expectSourceExceptionAtItsBatch(const Layouts &layouts)
{
    const std::uint64_t warmup_batches =
        (checkedConfig().warmupRefs + cpu::RefBatch::capacity - 1) /
        cpu::RefBatch::capacity;
    ASSERT_GE(warmup_batches, 3u);
    const std::size_t threads = threadsAtRest();
    for (const std::uint64_t fail_at :
         {warmup_batches / 2, warmup_batches - 1, warmup_batches}) {
        SCOPED_TRACE(fail_at);
        for (const Overlap overlap : layouts) {
            SCOPED_TRACE(layoutName(overlap));
            EXPECT_EQ(failingRun(fail_at, overlap), fail_at);
            EXPECT_EQ(liveThreads(), threads);
        }
        EXPECT_EQ(failingRun(fail_at, Overlap::Inline), fail_at);
    }
}

TEST(StreamThread, SourceExceptionRethrownOnCaller)
{
    expectSourceExceptionAtItsBatch({Overlap::Threaded});
}

/** 20 batches of sizes 0..19, then a StreamFailure. */
void
twentyBatchesThenThrow(StreamThread &self)
{
    for (std::size_t i = 0; i < 20; ++i) {
        self.claim().size = i;
        self.publish();
    }
    throw StreamFailure(20);
}

TEST(StreamThread, ErrorArrivesAtItsBatch)
{
    StreamThread ring(twentyBatchesThenThrow);
    for (std::size_t i = 0; i < 20; ++i) {
        EXPECT_EQ(ring.front().batch.size, i);
        ring.pop();
    }
    EXPECT_THROW(ring.front(), StreamFailure);
}

/** Publishes empty batches until cancelled. */
void
endlessStream(StreamThread &self)
{
    for (;;) {
        self.claim();
        self.publish();
    }
}

TEST(StreamThread, AbandonedRunJoins)
{
    // The caller stops reading while the producer would run
    // forever, usually asleep on a full ring: the destructor must
    // wake it and join.
    const std::size_t threads = threadsAtRest();
    {
        StreamThread ring(endlessStream);
        EXPECT_EQ(ring.front().batch.size, 0u);
    }
    EXPECT_EQ(liveThreads(), threads);
}

TEST(StreamThread, SweepFuturesMatchInlineRuns)
{
    // A pool's groups get the thread on any host with two usable
    // CPUs; the inline group is the reference.
    const std::vector<SystemConfig> configs = {
        checkedConfig(IndexingPolicy::Vipt), checkedConfig()};
    const std::vector<MulticoreResult> inlined = runGroup(
        JobKind::Single, {"mcf"}, configs, nullptr, Overlap::Inline);
    SweepRunner runner(SweepOptions{2, "-"});
    std::vector<std::shared_future<RunResult>> futures;
    for (const SystemConfig &config : configs)
        futures.push_back(runner.enqueue("mcf", config));
    for (std::size_t i = 0; i < configs.size(); ++i)
        expectIdentical(futures[i].get(), inlined[i].perCore[0]);
}

// ---------------------------------------------------------------
// The three-thread layout: Overlap::Pipelined against inline runs,
// every policy on both layouts, and what only three threads have.
// ---------------------------------------------------------------

TEST(PredictThread, EveryPolicyMatchesInline)
{
    // One group of every indexing policy, with and without way
    // prediction: each machine's memory record travels in the same
    // slot of the three-thread ring.
    std::vector<SystemConfig> configs;
    for (const bool way_prediction : {false, true}) {
        for (const IndexingPolicy policy :
             {IndexingPolicy::Vipt, IndexingPolicy::Ideal,
              IndexingPolicy::SiptNaive, IndexingPolicy::SiptBypass,
              IndexingPolicy::SiptCombined, IndexingPolicy::SiptVespa,
              IndexingPolicy::SiptRevelator, IndexingPolicy::SiptPcax}) {
            SystemConfig config = checkedConfig(policy);
            config.wayPrediction = way_prediction;
            configs.push_back(config);
        }
    }
    expectGroupIdentical(JobKind::Single, {"gcc"}, configs);
}

TEST(PredictThread, RadixWalkerMatchesInline)
{
    expectRadixWalkerIdentical({Overlap::Pipelined});
}

TEST(PredictThread, TraceReplayMatchesInline)
{
    expectTraceReplayIdentical({Overlap::Pipelined});
}

TEST(PredictThread, QuadMixMatchesInline)
{
    expectQuadMixIdentical(IndexingPolicy::SiptBypass,
                           {Overlap::Pipelined});
}

TEST(PredictThread, ShortAndEmptyPhasesMatchInline)
{
    expectShortRunIdentical({Overlap::Pipelined});
    expectTinyPhasesIdentical({Overlap::Pipelined});
}

TEST(PredictThread, SourceExceptionRethrownAtItsBatch)
{
    expectSourceExceptionAtItsBatch({Overlap::Pipelined});
}

TEST(PredictThread, TruncatedTraceFailsTheRunEveryWay)
{
    // Cut the record stream a tenth of the way in, inside the
    // warmup: decoding fails mid-stream, on whichever thread
    // decodes, and the run (not the process) fails.
    const RecordedTrace trace("truncated");
    std::string error;
    const auto info = workload::readTraceInfo(trace.path, error);
    ASSERT_TRUE(info) << error;
    const auto bytes = std::filesystem::file_size(trace.path);
    std::filesystem::resize_file(
        trace.path, bytes - info->recordBytes + info->recordBytes / 10);

    const std::string app = "trace:" + trace.path;
    const std::size_t threads = threadsAtRest();
    const auto failure = [&](Overlap overlap) -> std::string {
        try {
            runGroup(JobKind::Single, {app}, {checkedConfig()},
                     nullptr, overlap);
        } catch (const std::runtime_error &e) {
            return e.what();
        }
        return "no exception";
    };
    const std::string inlined = failure(Overlap::Inline);
    EXPECT_NE(inlined.find("truncated record stream"),
              std::string::npos)
        << inlined;
    EXPECT_EQ(failure(Overlap::Threaded), inlined);
    EXPECT_EQ(liveThreads(), threads);
    EXPECT_EQ(failure(Overlap::Pipelined), inlined);
    EXPECT_EQ(liveThreads(), threads);

    // A pool's future carries the same error.
    SweepRunner runner(SweepOptions{1, "-"});
    const auto future = runner.enqueue(app, checkedConfig());
    try {
        future.get();
        ADD_FAILURE() << "the truncated trace's run succeeded";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()), inlined);
    }
}

/** What ThrowingWalkPort throws: the walk read it failed at. */
struct MachineFailure : std::runtime_error
{
    explicit MachineFailure(std::uint64_t at)
        : std::runtime_error("machine failed"), at(at)
    {
    }
    std::uint64_t at;
};

/** A radix walker's memory port whose read number @p fail_at (from
 *  0) throws in its function half, in the memory stage; the others
 *  take 20 cycles. */
class ThrowingWalkPort : public vm::WalkPort
{
  public:
    explicit ThrowingWalkPort(std::uint64_t fail_at) : failAt_(fail_at)
    {
    }

    Cycles
    walkRead(Addr paddr, Cycles) override
    {
        walkFunction(paddr, scratch_);
        return 20;
    }

    std::uint8_t
    walkFunction(Addr, dram::AccessLog &) override
    {
        if (reads_++ == failAt_)
            throw MachineFailure(failAt_);
        return 0;
    }

    Cycles
    walkTiming(Addr, std::uint8_t, Cycles, const dram::AccessLog &,
               dram::AccessLog::Cursor &) override
    {
        return 20;
    }

  private:
    std::uint64_t failAt_;
    std::uint64_t reads_ = 0;
    dram::AccessLog scratch_;
};

/** One machine built from the layer classes, with a radix walker
 *  whose port fails at read @p fail_at. */
struct TestMachine
{
    ThrowingWalkPort port;
    vm::PageWalker walker;
    vm::MmuTiming timing;
    dram::Dram dram;
    cache::TimingCache llc;
    cache::BelowL1 below;
    SiptL1Cache l1;
    cpu::TraceCore core;
    batch::MachineStages stages;

    TestMachine(const vm::PageTable &table, std::uint64_t fail_at)
        : port(fail_at), walker(vm::WalkerParams{}, port),
          timing(mmuPreset()), llc(llcPreset(true, 1)),
          below(nullptr, llc, dram),
          l1(l1Preset(L1Config::Sipt32K2, IndexingPolicy::SiptCombined),
             below),
          core(cpu::outOfOrderCoreParams()),
          stages(timing, table, l1, core)
    {
        timing.setWalker(&walker);
    }
};

/** A gcc stream over @p memory, as a single job's core 0. */
Stream
gccStream(ConditionedMemory &memory, const StreamSpec &spec)
{
    const std::uint64_t seed = coreSeed(JobKind::Single, spec.seed, 0);
    Workload w;
    w.as = std::make_unique<os::AddressSpace>(
        memory.buddy, os::PagingPolicy{}, seed + 1);
    w.source = std::make_unique<workload::SyntheticWorkload>(
        workload::appProfile("gcc"), *w.as, seed + 2);
    return Stream(std::move(w));
}

/** What one machine of a failing-machine run left. */
struct MachineOutcome
{
    cpu::CoreResult result;
    L1Stats l1;
    /** The walk read its MachineFailure names, or -1 for none. */
    std::int64_t failedAt = -1;
};

/** One phase of @p refs references of a gcc stream through a
 *  healthy machine, one that fails at walk read 40 and another
 *  healthy one, inline or on the stream and memory threads. */
std::vector<MachineOutcome>
failingMachineRun(std::uint64_t refs, bool pipelined)
{
    const SystemConfig config = checkedConfig();
    const StreamSpec spec = streamSpec(config);
    ConditionedMemory memory(spec);
    Stream stream = gccStream(memory, spec);
    const vm::PageTable &table = stream.addressSpace().pageTable();
    std::vector<std::unique_ptr<TestMachine>> machines;
    for (const std::uint64_t fail_at : {~0ull, 40ull, ~0ull})
        machines.push_back(std::make_unique<TestMachine>(table, fail_at));
    std::vector<batch::MachineStages *> stepping;
    for (const auto &machine : machines)
        stepping.push_back(&machine->stages);

    std::vector<cpu::CoreResult> ran;
    if (pipelined) {
        StreamThread ring(
            [&](StreamThread &self) {
                batch::forEachBatch(refs, [&](std::size_t want) {
                    cpu::RefBatch &slot = self.claim();
                    stream.stages().fill(slot, want);
                    const std::size_t got = slot.size;
                    self.publish();
                    return got;
                });
            },
            [&](StreamThread &self) {
                batch::forEachBatch(refs, [&](std::size_t) {
                    return self.memoryNext(stepping);
                });
            },
            stepping.size());
        StreamThread::Batches batches(ring);
        ran = batch::runPhase(stepping, refs, batches);
    } else {
        batch::StreamBatches batches(stream.stages());
        ran = batch::runPhase(stepping, refs, batches);
    }
    std::vector<MachineOutcome> outcomes;
    for (std::size_t j = 0; j < machines.size(); ++j) {
        MachineOutcome outcome{ran[j], machines[j]->l1.stats()};
        if (const auto &error = machines[j]->stages.error()) {
            try {
                std::rethrow_exception(error);
            } catch (const MachineFailure &failure) {
                outcome.failedAt =
                    static_cast<std::int64_t>(failure.at);
            }
        }
        outcomes.push_back(outcome);
    }
    return outcomes;
}

/** What one machine left after one batch: its memory record's size,
 *  the errors, the episode and the L1 counters. */
struct BatchOutcome
{
    std::size_t recorded = 0;
    bool recordError = false;
    bool machineError = false;
    cpu::CoreResult result;
    L1Stats l1;
};

/** One batch of a gcc stream through a machine in which only
 *  reference @p at walks, and the walker's first read throws. With
 *  @p cut the walker never throws and the batch ends before @p at
 *  instead. */
BatchOutcome
throwAtReference(std::size_t at, bool cut)
{
    const SystemConfig config = checkedConfig();
    const StreamSpec spec = streamSpec(config);
    ConditionedMemory memory(spec);
    Stream stream = gccStream(memory, spec);
    cpu::RefBatch batch;
    stream.stages().fill(batch, cpu::RefBatch::capacity);
    batch.tlbLevel.fill(static_cast<std::uint8_t>(vm::TlbLevel::L1));
    batch.tlbLevel[at] = static_cast<std::uint8_t>(vm::TlbLevel::Walk);
    if (cut)
        batch.size = at;
    TestMachine machine(stream.addressSpace().pageTable(),
                        cut ? ~0ull : 0ull);
    batch::MemoryRecord record;
    machine.stages.beginPhase();
    machine.stages.memory(batch, record);
    machine.stages.timing(batch, record);
    return {record.size, record.error != nullptr,
            machine.stages.error() != nullptr,
            machine.stages.endPhase(), machine.l1.stats()};
}

TEST(PredictThread, FailingMachineDropsOut)
{
    // The failing machine keeps its exception and stops at pinned
    // counts: the inline and pipelined runs share the stage code,
    // so they cannot check each other. The machines around it
    // finish the phase exactly as inline.
    const std::size_t threads = threadsAtRest();
    const std::uint64_t refs = 5 * cpu::RefBatch::capacity + 99;
    const auto inlined = failingMachineRun(refs, false);
    const auto pipelined = failingMachineRun(refs, true);
    EXPECT_EQ(liveThreads(), threads);
    ASSERT_EQ(inlined.size(), 3u);
    ASSERT_EQ(pipelined.size(), 3u);
    EXPECT_EQ(inlined[1].failedAt, 40);
    for (const auto *run : {&inlined, &pipelined}) {
        const MachineOutcome &failed = (*run)[1];
        EXPECT_EQ(failed.l1.accesses, 61u);
        EXPECT_EQ(failed.result.instructions, 169u);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(failed.result.cycles),
                  0x4098580000000000ull);
    }
    for (std::size_t j = 0; j < 3; ++j) {
        SCOPED_TRACE(j);
        EXPECT_EQ(pipelined[j].failedAt, inlined[j].failedAt);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(pipelined[j].result.cycles),
                  std::bit_cast<std::uint64_t>(inlined[j].result.cycles));
        EXPECT_EQ(pipelined[j].result.instructions,
                  inlined[j].result.instructions);
        EXPECT_EQ(pipelined[j].l1.accesses, inlined[j].l1.accesses);
        EXPECT_EQ(pipelined[j].l1.hits, inlined[j].l1.hits);
        EXPECT_EQ(pipelined[j].l1.fastAccesses,
                  inlined[j].l1.fastAccesses);
    }
    EXPECT_EQ(inlined[0].l1.accesses, refs);
    EXPECT_EQ(inlined[2].l1.accesses, refs);

    // A memory stage that throws at a batch's first or last
    // reference records the references before it, and timing()
    // times exactly those: as a healthy machine times the batch cut
    // there.
    for (const std::size_t at : {std::size_t{0},
                                 cpu::RefBatch::capacity - 1}) {
        SCOPED_TRACE(at);
        const BatchOutcome failed = throwAtReference(at, false);
        const BatchOutcome cut = throwAtReference(at, true);
        EXPECT_EQ(failed.recorded, at);
        EXPECT_TRUE(failed.recordError);
        EXPECT_TRUE(failed.machineError);
        EXPECT_EQ(cut.recorded, at);
        EXPECT_FALSE(cut.recordError);
        EXPECT_FALSE(cut.machineError);
        EXPECT_EQ(failed.l1.accesses, at);
        EXPECT_EQ(cut.l1.accesses, at);
        EXPECT_EQ(failed.l1.hits, cut.l1.hits);
        EXPECT_EQ(failed.result.instructions, cut.result.instructions);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(failed.result.cycles),
                  std::bit_cast<std::uint64_t>(cut.result.cycles));
    }
}

TEST(PredictThread, ErrorsArriveAtTheirBatch)
{
    // A stream error passes through the memory thread to the
    // caller at its batch...
    {
        StreamThread ring(twentyBatchesThenThrow, [](StreamThread &self) {
            for (;;)
                self.memoryNext({});
        });
        for (std::size_t i = 0; i < 20; ++i) {
            EXPECT_EQ(ring.front().batch.size, i);
            ring.pop();
        }
        EXPECT_THROW(ring.front(), StreamFailure);
    }
    // ...and so does the memory thread's own.
    StreamThread ring(endlessStream, [](StreamThread &self) {
        for (std::size_t i = 0; i < 12; ++i)
            self.memoryNext({});
        throw StreamFailure(12);
    });
    for (std::size_t i = 0; i < 12; ++i) {
        ring.front();
        ring.pop();
    }
    EXPECT_THROW(ring.front(), StreamFailure);
}

TEST(PredictThread, AbandonedRunJoins)
{
    // Both threads would run forever; the caller reads one batch
    // and leaves.
    const std::size_t threads = threadsAtRest();
    {
        StreamThread ring(endlessStream, [](StreamThread &self) {
            for (;;)
                self.memoryNext({});
        });
        EXPECT_EQ(ring.front().batch.size, 0u);
    }
    EXPECT_EQ(liveThreads(), threads);
}

TEST(StreamThread, UsableCpusIsTheAffinityMask)
{
    cpu_set_t set;
    ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
    EXPECT_EQ(usableCpus(), static_cast<unsigned>(CPU_COUNT(&set)));
}

} // namespace
} // namespace sipt::sim
