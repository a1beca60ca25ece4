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
 *    stream: workload RNG / cursors and the address space's page
 *    table. They depend on the application and its memory layout,
 *    never on the simulated machine.
 *  - MachineStages (predict + account) touch only one simulated
 *    machine: predictor tables, TLB hierarchy, L1 array, below-L1
 *    hierarchy and core timing.
 *
 * runPhase() drives one StreamStages and any number of
 * MachineStages: each resolved batch is stepped through every
 * machine in turn, so machines that share a stream pay for
 * generation and resolution once. BatchPipeline is the
 * one-stream/one-machine composition.
 *
 * Each simulated component's state is touched by exactly one
 * stage, in reference order (tools/stage_ownership.json, checked by
 * sipt-analyze's stage-ownership pass):
 *
 *  - generate (StreamStages): workload RNG / cursors
 *    (TraceSource::nextBatch)
 *  - resolve (StreamStages): nothing — the pure VA->PA function,
 *    read from the address space's dense page table
 *  - predict (MachineStages): bypass/combined/xlat tables
 *    (SiptL1Cache::decideBatch)
 *  - account (MachineStages): TLB hierarchy, L1 array, below-L1
 *    hierarchy and core timing (dispatchRef /
 *    Mmu::translateEntry / accessDecided / completeRef)
 *
 * TLB accounting runs in the account stage, at each reference's
 * dispatch cycle: a radix walker's PTE reads go through the same
 * below-L1 hierarchy as L1 fills, and their latency depends on the
 * issue cycle, so they must interleave with the fills in reference
 * order. Predictions need only the resolved address and huge-page
 * bit, never TLB state, which is why the predict stage can run a
 * batch ahead.
 *
 * The per-access invariant checker snapshots the L1 *counters* at
 * every access, so all counter mutation stays in the account stage
 * (decideBatch touches predictor state only). Predictor state
 * legitimately runs a batch ahead of the counters: nothing
 * observes predictor internals between accesses.
 *
 * Timing is pinned by the committed engine fixtures
 * (tests/test_batch.cpp); function by the golden model.
 */

#ifndef SIPT_BATCH_PIPELINE_HH
#define SIPT_BATCH_PIPELINE_HH

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
 * their paddr/hugePage lanes) from one reference source.
 */
class StreamStages
{
  public:
    /**
     * @param page_table the address space's table; immutable once
     *        references flow (every page is mapped up front)
     */
    StreamStages(cpu::TraceSource &source,
                 const vm::PageTable &page_table);

    /**
     * Generate and resolve up to @p want references (at most
     * RefBatch::capacity; fewer only when the source is
     * exhausted). The batch stays valid until the next call.
     */
    const cpu::RefBatch &next(std::size_t want);

  private:
    void generate(std::size_t want);
    void resolve();

    cpu::TraceSource &source_;
    const vm::PageTable &pageTable_;
    cpu::RefBatch batch_;
};

/**
 * Predict + account: steps one simulated machine over resolved
 * batches. Each phase (warmup, measure) is one
 * beginPhase()/endPhase() episode of the core.
 */
class MachineStages
{
  public:
    /**
     * @param mmu the core's MMU, with or without a radix walker
     * @param page_table the stream's table, read by the golden-TLB
     *        check only
     */
    MachineStages(vm::Mmu &mmu, const vm::PageTable &page_table,
                  SiptL1Cache &l1, cpu::TraceCore &core);

    /** Open a phase episode. */
    void beginPhase();

    /**
     * Predict and account one resolved batch. An exception from
     * either stage is kept (error()) instead of propagating, and
     * the machine ignores every later batch: the other machines
     * stepping the same stream carry on.
     */
    void step(const cpu::RefBatch &batch);

    /** Close the episode opened by beginPhase(). */
    cpu::CoreResult endPhase();

    /** The exception a step threw, or null. */
    const std::exception_ptr &error() const { return error_; }

    /** First golden-TLB or latency failure, or empty (sticky). */
    const std::string &checkFailure() const { return failure_; }

  private:
    void predict(const cpu::RefBatch &batch);
    void account(const cpu::RefBatch &batch);

    /**
     * Golden-TLB check: whatever the timed MMU (TLB hierarchy +
     * walker) returned must equal an untimed page-table walk —
     * TLB state may only affect latency, never the translation.
     */
    void checkTranslation(Addr vaddr, Addr paddr);

    /** Record @p error as the sticky first failure, or panic under
     *  Options::abortOnDivergence. */
    void fail(const std::string &error);

    vm::Mmu &mmu_;
    const vm::PageTable &pageTable_;
    SiptL1Cache &l1_;
    cpu::TraceCore &core_;
    check::Options check_;
    /**
     * Harness self-test corruption (check::Mutation::CorruptProbe):
     * a physical-address bit XORed into what the L1 probes, after
     * the golden-TLB check, and only under the SIPT-naive policy,
     * so the corruption surfaces as a functional-digest divergence
     * between policies that the policy-invariance fuzzer must
     * catch. 0 (no corruption) otherwise.
     */
    Addr probeFlip_ = 0;
    cpu::TraceCore::RunCursor cursor_;
    /** This machine's predict-stage lane: speculation outcome
     *  codes (sipt::SpecDecision values) for the current batch. */
    std::array<std::uint8_t, cpu::RefBatch::capacity> decision_{};
    std::exception_ptr error_;
    std::string failure_;
};

/**
 * Run one phase of up to @p max_refs references: @p stream
 * generates and resolves each batch (min(remaining, capacity)
 * references) once, and every machine steps it in turn. Returns
 * each machine's episode result, in order.
 */
std::vector<cpu::CoreResult>
runPhase(StreamStages &stream, std::span<MachineStages *const> machines,
         std::uint64_t max_refs);

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
     * @param mmu the core's MMU, with or without a radix walker
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
