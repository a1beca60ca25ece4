/**
 * @file
 * The simulation engine: runs every core's reference loop over
 * RefBatch-sized groups of references in fixed stages —
 * generate-N, resolve-N, predict-N, then memory and timing —
 * instead of threading one reference at a time through every
 * layer.
 *
 * The stages split into two halves along what their state depends
 * on:
 *
 *  - StreamStages (generate + resolve) touch only the reference
 *    stream: workload RNG / cursors, the address space's page
 *    table and the TLB hierarchy. They depend on the application
 *    and its memory layout, never on the simulated machine.
 *  - MachineStages (predict + memory + timing) touch only one
 *    simulated machine.
 *
 * runPhase() drives any number of MachineStages over one stream's
 * resolved batches: each batch goes through every machine in turn,
 * so machines that share a stream pay for generation, resolution
 * and TLB lookups once. Every machine steps a batch the same way:
 * its memory stage records the whole batch (MachineStages::memory()
 * into a MemoryRecord), then its predict and timing stages replay
 * that record (MachineStages::timing()). The batches come from a
 * StreamBatches, which runs the stream stages on the same thread,
 * or from other host threads that run them ahead
 * (sim::runGroup()): the stream stages fill a batch the caller
 * owns, and the stream half reads nothing the machines write. A
 * batch may arrive with every machine's memory record already
 * written by a memory thread (its source's records()); otherwise
 * runPhase() runs memory() itself. The layouts differ only in which
 * host thread calls memory(). BatchPipeline is the
 * one-stream/one-machine composition.
 *
 * Each simulated component's state is touched by exactly one
 * stage, in reference order (tools/stage_ownership.json, checked by
 * sipt-analyze's stage-ownership pass):
 *
 *  - generate (StreamStages): workload RNG / cursors
 *    (TraceSource::nextBatch)
 *  - resolve (StreamStages): the TLB hierarchy (Mmu::lookup); the
 *    VA->PA function itself is read from the address space's dense
 *    page table
 *  - predict (MachineStages): bypass/combined/xlat tables
 *    (SiptL1Cache::decideBatch)
 *  - memory (MachineStages::memory): the function — the radix
 *    walker's page-walk caches and PTE reads
 *    (MmuTiming::lookupWalk), the L1 array and way predictor, the
 *    L2/LLC arrays and their counters, the DRAM row buffers and
 *    the fill tracker (SiptL1Cache::accessArray)
 *  - timing (MachineStages::timing): the core model, TLB and
 *    walk latency, DRAM bank/bus queueing, every L1 counter, the
 *    golden-model checker and the tracer (dispatchRef /
 *    MmuTiming::complete / accessTimed / completeRef)
 *
 * SIPT keeps physical tags and lines live under their physical
 * set, so where the index comes from changes when data returns,
 * never what the L1 and the levels below hold: the memory stage
 * needs no decision and no cycle. Every design shares one TLB
 * hierarchy (Tab. II), and its contents depend only on the (vpn,
 * page size) sequence, so the resolve stage looks each reference
 * up once for every machine and records the serving level in the
 * batch's tlbLevel lane. A radix walker's PTE reads and the L1's
 * fills reach the DRAM queues at the cycle the core issued them,
 * so the timing stage replays the memory stage's record of each
 * reference (its walk, then its fill, prefetch and writeback) in
 * reference order at its dispatch cycle. Predictions need only the
 * resolved address and huge-page bit, never TLB state.
 *
 * The per-access invariant checker snapshots the L1 *counters* at
 * every access, so all counter mutation stays in the timing stage
 * (decideBatch touches predictor state only, accessArray the
 * array). The function runs a batch ahead of the counters, or up
 * to a ring of batches ahead when a group run gives the memory
 * stage a host thread of its own: nothing observes the array
 * between accesses.
 *
 * Timing is pinned by the committed engine fixtures
 * (tests/test_batch.cpp); function by the golden model.
 */

#ifndef SIPT_BATCH_PIPELINE_HH
#define SIPT_BATCH_PIPELINE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <vector>

#include "check/options.hh"
#include "common/types.hh"
#include "cpu/core.hh"
#include "cpu/ref_batch.hh"
#include "cpu/trace_source.hh"
#include "dram/dram.hh"
#include "sipt/l1_cache.hh"
#include "vm/mmu.hh"
#include "vm/page_table.hh"

namespace sipt::batch
{

/**
 * Generate + resolve: produces resolved batches (references plus
 * their paddr/hugePage/tlbLevel lanes) from one reference source.
 */
class StreamStages
{
  public:
    /**
     * @param page_table the address space's table; immutable once
     *        references flow (every page is mapped up front)
     * @param tlbs the stream's TLB hierarchy, advanced by every
     *        resolved reference (its timing half is not used)
     */
    StreamStages(cpu::TraceSource &source,
                 const vm::PageTable &page_table, vm::Mmu &tlbs);

    /**
     * Generate and resolve up to @p want references (at most
     * RefBatch::capacity; fewer only when the source is
     * exhausted) into @p batch, replacing its contents.
     */
    void fill(cpu::RefBatch &batch, std::size_t want);

  private:
    void generate(cpu::RefBatch &batch, std::size_t want);
    void resolve(cpu::RefBatch &batch);

    cpu::TraceSource &source_;
    const vm::PageTable &pageTable_;
    vm::Mmu &tlbs_;
};

/**
 * One machine's memory-stage output for one batch: the record its
 * timing stage replays. Per reference, what the access did to the
 * array (ArrayOutcome bits); per radix walk, its shape; the DRAM
 * accesses of all of them, in call order (walk reads, then fill,
 * prefetch and writeback, reference by reference); and, for a
 * checked L1, each access's checker facts. None of it depends on
 * timing or on a speculation decision.
 */
struct MemoryRecord
{
    std::array<std::uint8_t, cpu::RefBatch::capacity> outcome{};
    /** One per reference that walked with a radix walker. */
    std::vector<vm::WalkShape> walks;
    /** One entry per reference for a checked L1, else empty. */
    std::vector<ArrayFacts> facts;
    dram::AccessLog log;
    /** References recorded: the batch's, or those before the one
     *  the memory stage threw at. */
    std::size_t size = 0;
    /** What the memory stage threw, at reference size, or null. */
    std::exception_ptr error;
};

/**
 * Predict + memory + timing: steps one simulated machine over
 * resolved batches. Each phase (warmup, measure) is one
 * beginPhase()/endPhase() episode of the core.
 *
 * A batch is stepped in two calls: memory() records it, then
 * timing() predicts and times it from that record. They may run on
 * one thread or on two: the memory stage owns the machine's
 * function (L1 array and way predictor, walker PWCs, below-L1
 * arrays, DRAM rows), the other two stages its predictor tables
 * and timing (core, TLB and walk latency, DRAM queues, counters,
 * checker, tracer), and they share nothing but the MemoryRecord
 * each batch carries from one to the other. memory() may run any
 * number of batches ahead of timing(). The object is line-aligned:
 * a memory thread reads its head at every reference, and the
 * object before it (a sim::Machine's core) is written by the caller
 * at every reference.
 */
class alignas(64) MachineStages
{
  public:
    /**
     * @param timing the core's TLB latencies, with or without a
     *        radix walker
     * @param page_table the stream's table, read by the
     *        translation check only
     */
    MachineStages(vm::MmuTiming &timing,
                  const vm::PageTable &page_table, SiptL1Cache &l1,
                  cpu::TraceCore &core);

    /** Open a phase episode. */
    void beginPhase();

    /**
     * Memory stage: run the function of every reference of
     * @p batch into @p out. Never throws: an exception goes to
     * out.error, after the references recorded before it, and
     * every later call repeats it without recording.
     */
    void memory(const cpu::RefBatch &batch, MemoryRecord &out);

    /**
     * Predict and timing stages: decide @p batch and time it from
     * @p recorded, what memory() wrote for it. A memory error in
     * @p recorded, after its recorded references, or an exception
     * from these stages is kept (error()) instead of propagating,
     * and every later batch is ignored: the other machines stepping
     * the same stream carry on.
     */
    void timing(const cpu::RefBatch &batch,
                const MemoryRecord &recorded);

    /** Close the episode opened by beginPhase(). */
    cpu::CoreResult endPhase();

    /** The exception a stage threw, or null (caller's side). */
    const std::exception_ptr &error() const { return error_; }

    /** First translation or latency failure, or empty (sticky). */
    const std::string &checkFailure() const { return failure_; }

  private:
    /** Predict stage: decide every reference of @p batch into
     *  decisions_. */
    void predict(const cpu::RefBatch &batch);

    /**
     * Translation check: the address the resolve stage recorded
     * must still be the page table's. The TLB model never produces
     * an address, so this cannot catch a TLB bug; it guards that
     * the table did not change between resolve and timing.
     */
    void checkTranslation(Addr vaddr, Addr paddr);

    /** Record @p error as the sticky first failure, or panic under
     *  Options::abortOnDivergence. */
    void fail(const std::string &error);

    vm::MmuTiming &timing_;
    const vm::PageTable &pageTable_;
    SiptL1Cache &l1_;
    cpu::TraceCore &core_;
    check::Options check_;
    /**
     * Harness self-test corruption (check::Mutation::CorruptProbe):
     * a physical-address bit XORed into what the L1 probes, after
     * the translation check, and only under the SIPT-naive policy,
     * so the corruption surfaces as a functional-digest divergence
     * between policies that the policy-invariance fuzzer must
     * catch. 0 (no corruption) otherwise.
     */
    Addr probeFlip_ = 0;

    // The memory stage's own state, apart from the caller's.
    /** The memory stage's first exception (memory() only). */
    alignas(64) std::exception_ptr memoryError_;

    // The caller's state.
    alignas(64) cpu::TraceCore::RunCursor cursor_;
    /** The predict stage's decision lane for the current batch. */
    std::array<std::uint8_t, cpu::RefBatch::capacity> decisions_{};
    /** The first exception of any stage, as the caller met it. */
    std::exception_ptr error_;
    std::string failure_;
};

/**
 * The batches of one phase of up to @p max_refs references: calls
 * @p batch(want), which returns how many references the batch got,
 * with want = min(remaining, RefBatch::capacity) until the phase is
 * done. A batch short of want ends the phase (the source is
 * exhausted). Whoever walks a phase's batches, on whichever thread,
 * walks them through this one loop, so they agree on every batch.
 */
template <typename Batch>
void
forEachBatch(std::uint64_t max_refs, Batch &&batch)
{
    std::uint64_t remaining = max_refs;
    while (remaining > 0) {
        const auto want = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining,
                                    cpu::RefBatch::capacity));
        const std::size_t got = batch(want);
        remaining -= got;
        if (got < want)
            break;
    }
}

/**
 * The batches of one stream, generated and resolved by its
 * StreamStages on the calling thread: runPhase()'s inline source.
 */
class StreamBatches
{
  public:
    explicit StreamBatches(StreamStages &stream) : stream_(stream) {}

    /** The next batch of up to @p want references. */
    const cpu::RefBatch &
    take(std::size_t want)
    {
        stream_.fill(batch_, want);
        return batch_;
    }

    /** No memory stage has run ahead: runPhase() runs each
     *  machine's. */
    const MemoryRecord *records() const { return nullptr; }

    /** Every machine has stepped the batch take() returned. */
    void release() {}

  private:
    StreamStages &stream_;
    cpu::RefBatch batch_;
};

/**
 * Run one phase of up to @p max_refs references: each batch
 * (forEachBatch()) comes from @p batches.take(want), every machine
 * steps it in turn, and batches.release() gives it back. A machine
 * times the batch from its memory record: machine j's at index j
 * of batches.records() when that is non-null, else one that
 * runPhase() records here, machine by machine. Returns each
 * machine's episode result, in order.
 */
template <typename Batches>
std::vector<cpu::CoreResult>
runPhase(std::span<MachineStages *const> machines,
         std::uint64_t max_refs, Batches &batches)
{
    for (MachineStages *machine : machines)
        machine->beginPhase();
    MemoryRecord record;
    forEachBatch(max_refs, [&](std::size_t want) {
        const cpu::RefBatch &batch = batches.take(want);
        const MemoryRecord *records = batches.records();
        for (std::size_t j = 0; j < machines.size(); ++j) {
            if (!records)
                machines[j]->memory(batch, record);
            machines[j]->timing(batch, records ? records[j] : record);
        }
        const std::size_t got = batch.size;
        batches.release();
        return got;
    });
    std::vector<cpu::CoreResult> results;
    results.reserve(machines.size());
    for (MachineStages *machine : machines)
        results.push_back(machine->endPhase());
    return results;
}

/**
 * One core's stream and machine stages composed: drives its
 * warmup/measure episodes through the staged batch loop. Construct
 * once per core; run() may be called repeatedly (timing state
 * carries over between calls).
 */
class BatchPipeline
{
  public:
    /**
     * @param mmu the core's MMU, with or without a radix walker:
     *        the stream stages look up its TLBs and the machine
     *        stages walk and charge its latencies
     * @param page_table the address space's table
     */
    BatchPipeline(cpu::TraceSource &source, vm::Mmu &mmu,
                  const vm::PageTable &page_table, SiptL1Cache &l1,
                  cpu::TraceCore &core);

    /** Run up to @p max_refs references (fewer only when the
     *  source is exhausted); rethrows a stage's exception. */
    cpu::CoreResult run(std::uint64_t max_refs);

  private:
    StreamStages stream_;
    MachineStages machine_;
};

} // namespace sipt::batch

#endif // SIPT_BATCH_PIPELINE_HH
