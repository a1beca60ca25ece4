/**
 * @file
 * The simulation engine: runs every core's reference loop over
 * RefBatch-sized groups of references in fixed stages —
 * generate-N, resolve-N, predict-N, account-N — instead of
 * threading one reference at a time through every layer.
 *
 * The stages split into two halves along what their state depends
 * on:
 *
 *  - StreamStages (generate + resolve) touch only the reference
 *    stream: workload RNG / cursors, the address space's page
 *    table and the TLB hierarchy. They depend on the application
 *    and its memory layout, never on the simulated machine.
 *  - MachineStages (predict + account) touch only one simulated
 *    machine: predictor tables, walk latency (radix walker), L1
 *    array, below-L1 hierarchy and core timing.
 *
 * runPhase() drives any number of MachineStages over one stream's
 * resolved batches: each batch is stepped through every machine in
 * turn, so machines that share a stream pay for generation,
 * resolution and TLB lookups once. The batches come from a
 * StreamBatches, which runs the stream stages on the same thread,
 * or from other host threads that run them ahead
 * (sim::runGroup()): the stream stages fill a batch the caller
 * owns, and the stream half reads nothing the machines write. A
 * batch may arrive with every machine's decision lane already
 * predicted (its source's decided()); runPhase() then runs only
 * the account stage. BatchPipeline is the one-stream/one-machine
 * composition.
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
 *  - account (MachineStages): walk latency, L1 array, below-L1
 *    hierarchy and core timing (dispatchRef /
 *    MmuTiming::complete / accessDecided / completeRef)
 *
 * Every design shares one TLB hierarchy (Tab. II), and its contents
 * depend only on the (vpn, page size) sequence, so the resolve
 * stage looks each reference up once for every machine and records
 * the serving level in the batch's tlbLevel lane. What depends on
 * the machine is the latency, charged in the account stage at each
 * reference's dispatch cycle: a radix walker's PTE reads go through
 * the machine's below-L1 hierarchy and their latency depends on
 * the issue cycle, so they must interleave with the L1 fills in
 * reference order. The walker never reads the TLBs, so the split is
 * exact. Predictions need only the resolved address and huge-page
 * bit, never TLB state, which is why the predict stage can run
 * ahead: a batch ahead on one thread, and up to a ring of batches
 * ahead when a group run gives it a host thread of its own
 * (predict() writes a decision lane that account() reads later).
 *
 * The per-access invariant checker snapshots the L1 *counters* at
 * every access, so all counter mutation stays in the account stage
 * (decideBatch touches predictor state only). Predictor state
 * legitimately runs up to the ring's depth ahead of the counters:
 * nothing observes predictor internals between accesses.
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
 * One machine's predict-stage output for one batch: a speculation
 * outcome code (sipt::SpecDecision value) per reference, or the
 * exception the predict stage threw instead.
 */
struct Decisions
{
    std::array<std::uint8_t, cpu::RefBatch::capacity> lane{};
    std::exception_ptr error;
};

/**
 * Predict + account: steps one simulated machine over resolved
 * batches. Each phase (warmup, measure) is one
 * beginPhase()/endPhase() episode of the core.
 *
 * step() runs both stages on the calling thread. A group run may
 * instead call predict() on one thread and account() on another:
 * the two stages share no state but the Decisions each batch
 * carries from one to the other, and predict() may run any number
 * of batches ahead of account().
 */
class MachineStages
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
     * Predict and account one resolved batch. An exception from
     * either stage is kept (error()) instead of propagating, and
     * the machine ignores every later batch: the other machines
     * stepping the same stream carry on.
     */
    void
    step(const cpu::RefBatch &batch)
    {
        predict(batch, decisions_);
        account(batch, decisions_);
    }

    /**
     * Predict stage: decide every reference of @p batch into
     * @p out. Never throws: an exception goes to out.error, and
     * every later call repeats it without predicting.
     */
    void predict(const cpu::RefBatch &batch, Decisions &out);

    /**
     * Account stage: run @p batch through the machine with
     * @p decided, what predict() wrote for it. A predict error in
     * @p decided or an exception from this stage is kept (error()),
     * and every later batch is ignored.
     */
    void account(const cpu::RefBatch &batch, const Decisions &decided);

    /** Close the episode opened by beginPhase(). */
    cpu::CoreResult endPhase();

    /** The exception a step threw, or null. */
    const std::exception_ptr &error() const { return error_; }

    /** First translation or latency failure, or empty (sticky). */
    const std::string &checkFailure() const { return failure_; }

  private:
    /**
     * Translation check: the address the resolve stage recorded
     * must still be the page table's. The TLB model never produces
     * an address, so this cannot catch a TLB bug; it guards that
     * the table did not change between resolve and account.
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
    cpu::TraceCore::RunCursor cursor_;
    /** step()'s decision lane for the current batch. */
    Decisions decisions_;
    /** The predict stage's first exception (predict() only). */
    std::exception_ptr predictError_;
    /** The first exception of either stage (account() only). */
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

    /** No predict stage has run ahead: each machine steps the
     *  batch whole. */
    const Decisions *decided() const { return nullptr; }

    /** Every machine has stepped the batch take() returned. */
    void release() {}

  private:
    StreamStages &stream_;
    cpu::RefBatch batch_;
};

/**
 * Run one phase of up to @p max_refs references: each batch
 * (forEachBatch()) comes from @p batches.take(want), every machine
 * steps it in turn, and batches.release() gives it back. When
 * batches.decided() is non-null, it holds machine j's decisions for
 * the batch at index j, and the machines only account it. Returns
 * each machine's episode result, in order.
 */
template <typename Batches>
std::vector<cpu::CoreResult>
runPhase(std::span<MachineStages *const> machines,
         std::uint64_t max_refs, Batches &batches)
{
    for (MachineStages *machine : machines)
        machine->beginPhase();
    forEachBatch(max_refs, [&](std::size_t want) {
        const cpu::RefBatch &batch = batches.take(want);
        if (const Decisions *decided = batches.decided()) {
            for (std::size_t j = 0; j < machines.size(); ++j)
                machines[j]->account(batch, decided[j]);
        } else {
            for (MachineStages *machine : machines)
                machine->step(batch);
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
     *        stages charge its latencies
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
