/**
 * @file
 * The simulation engine: runs every core's reference loop over
 * RefBatch-sized groups of references in fixed stages —
 * generate-N, resolve-N, predict-N, account-N — instead of
 * threading one reference at a time through every layer.
 *
 * Each simulated component's state is touched by exactly one
 * stage, in reference order:
 *
 *  - generate: workload RNG / cursors  (TraceSource::nextBatch)
 *  - resolve:  nothing — the pure VA->PA function, read from a
 *              flat page-map snapshot
 *  - predict:  bypass/combined/xlat tables
 *              (SiptL1Cache::decideBatch)
 *  - account:  TLB hierarchy, L1 array, below-L1 hierarchy and
 *              core timing (dispatchRef / Mmu::translateEntry /
 *              accessDecided / completeRef)
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

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "check/options.hh"
#include "common/types.hh"
#include "cpu/core.hh"
#include "cpu/trace_source.hh"
#include "sipt/l1_cache.hh"
#include "vm/mmu.hh"
#include "vm/page_table.hh"

namespace sipt::batch
{

/**
 * Drives one core's warmup/measure episodes through the staged
 * batch loop. Construct once per core; run() may be called
 * repeatedly (timing state carries over between calls).
 */
class BatchPipeline
{
  public:
    /**
     * @param mmu the core's MMU, with or without a radix walker
     * @param page_table the address space's table; immutable for
     *        the pipeline's lifetime
     */
    BatchPipeline(cpu::TraceSource &source, vm::Mmu &mmu,
                  const vm::PageTable &page_table, SiptL1Cache &l1,
                  cpu::TraceCore &core);

    /** Run up to @p max_refs references (fewer only when the
     *  source is exhausted). */
    cpu::CoreResult run(std::uint64_t max_refs);

    /** First golden-TLB mismatch, or empty (sticky). */
    const std::string &checkFailure() const { return failure_; }

  private:
    /**
     * Flat, pointer-free snapshot of the page table, taken at
     * construction. The table is immutable during a run (the
     * allocation phase touched every page before the first
     * reference), so the VA->PA function can be arrays indexed by
     * page number instead of per-reference hash probes — the
     * golden-TLB check compares every translation against the live
     * page table whenever SIPT_CHECK is on, guarding the snapshot.
     * Huge mappings are consulted before small ones, mirroring
     * PageTable::translate().
     */
    struct FlatPageMap
    {
        /** Sentinel frame value for unmapped slots. */
        static constexpr Addr unmapped = ~Addr{0};
        /** First 4 KiB VPN covered by smallFrame. */
        Vpn smallBase = 0;
        /** Page-aligned physical base per 4 KiB VPN. */
        std::vector<Addr> smallFrame;
        /** First 2 MiB chunk number covered by hugeFrame. */
        Vpn hugeBase = 0;
        /** 2 MiB-aligned physical base per chunk number. */
        std::vector<Addr> hugeFrame;
        /** False when the VA span was too sparse to flatten (the
         *  resolve stage then queries the page table directly). */
        bool valid = false;
    };

    /** Build the snapshot (capped at maxFlatSlots array slots). */
    void buildFlatMap();

    /** Resolve @p vaddr through the snapshot. @pre flat_.valid. */
    vm::Translation flatTranslate(Addr vaddr) const;

    void resolveBatch(cpu::RefBatch &batch);
    void predictBatch(cpu::RefBatch &batch);
    void accountBatch(cpu::RefBatch &batch);

    /**
     * Golden-TLB check: whatever the timed MMU (TLB hierarchy +
     * walker) returned must equal an untimed page-table walk —
     * TLB state may only affect latency, never the translation.
     */
    void checkTranslation(Addr vaddr, Addr paddr);

    cpu::TraceSource &source_;
    vm::Mmu &mmu_;
    const vm::PageTable &pageTable_;
    SiptL1Cache &l1_;
    cpu::TraceCore &core_;
    check::Options check_;
    /**
     * Harness self-test corruption (SIPT_BATCH_MUTATE=probe): a
     * physical-address bit XORed into what the L1 probes, after
     * the golden-TLB check, and only under the SIPT-naive policy,
     * so the corruption surfaces as a functional-digest divergence
     * between policies that the policy-invariance fuzzer must
     * catch. 0 (no corruption) otherwise.
     */
    Addr probeFlip_ = 0;
    FlatPageMap flat_;
    cpu::RefBatch batch_;
    std::string failure_;
};

} // namespace sipt::batch

#endif // SIPT_BATCH_PIPELINE_HH
