#include "batch/pipeline.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::batch
{

namespace
{

/**
 * Host-prefetch lookahead distances, in references. The batch
 * already holds the whole reference window, so each stage can ask
 * the host CPU to start loading the simulator structures (page-table
 * slots, tag sets) that references a few iterations ahead will
 * touch — latency a one-reference-at-a-time loop, which learns
 * each address only as it processes it, cannot hide.
 */
constexpr std::size_t resolvePrefetchDist = 8;
constexpr std::size_t accountPrefetchDist = 4;

} // namespace

StreamStages::StreamStages(cpu::TraceSource &source,
                           const vm::PageTable &page_table)
    : source_(source), pageTable_(page_table)
{
}

const cpu::RefBatch &
StreamStages::next(std::size_t want)
{
    generate(want);
    resolve();
    return batch_;
}

void
StreamStages::generate(std::size_t want)
{
    source_.nextBatch(batch_, want);
}

void
StreamStages::resolve()
{
    // Stateless: the page table is the pure VA->PA function (no
    // page is mapped or unmapped once references flow). The TLB
    // hierarchy sees every reference later, in the account stage.
    cpu::RefBatch &batch = batch_;
    for (std::size_t i = 0; i < batch.size; ++i) {
        if (i + resolvePrefetchDist < batch.size)
            pageTable_.prefetch(batch.vaddr[i + resolvePrefetchDist]);
        const Addr va = batch.vaddr[i];
        const auto entry = pageTable_.translate(va);
        if (!entry)
            panic("MMU translate of unmapped va ", va);
        batch.paddr[i] = entry->paddr;
        batch.hugePage[i] = entry->hugePage ? 1 : 0;
    }
}

MachineStages::MachineStages(vm::Mmu &mmu,
                             const vm::PageTable &page_table,
                             SiptL1Cache &l1, cpu::TraceCore &core)
    : mmu_(mmu), pageTable_(page_table), l1_(l1), core_(core),
      check_(l1.params().check),
      probeFlip_(check_.mutation == check::Mutation::CorruptProbe &&
                         l1.params().policy == IndexingPolicy::SiptNaive
                     ? pageBase(1)
                     : 0)
{
}

void
MachineStages::beginPhase()
{
    cursor_ = core_.beginRun();
}

void
MachineStages::step(const cpu::RefBatch &batch)
{
    if (error_)
        return;
    try {
        predict(batch);
        account(batch);
    } catch (...) {
        error_ = std::current_exception();
    }
}

cpu::CoreResult
MachineStages::endPhase()
{
    return core_.endRun(cursor_);
}

void
MachineStages::predict(const cpu::RefBatch &batch)
{
    // Predict stage: sole owner of the predictor tables (IDB,
    // perceptron, translation tables, counters). They advance once
    // per reference, in order, exactly as access() would train
    // them. The huge-page lane feeds the superpage-aware policies.
    l1_.decideBatch(batch.size, batch.pc.data(),
                    batch.vaddr.data(), batch.paddr.data(),
                    batch.hugePage.data(), decision_.data());
}

void
MachineStages::account(const cpu::RefBatch &batch)
{
    const bool check = check_.enabled;
    for (std::size_t i = 0; i < batch.size; ++i) {
        if (i + accountPrefetchDist < batch.size)
            l1_.prefetchAccess(batch.paddr[i + accountPrefetchDist]);
        const MemRef ref = batch.refAt(i);
        const double disp = core_.dispatchRef(ref);
        const auto now = static_cast<Cycles>(disp);
        // TLB accounting at the dispatch cycle: a radix walk's PTE
        // reads reach the below-L1 hierarchy at the cycle the core
        // issued the reference, interleaved in reference order with
        // the L1 fills.
        vm::MmuResult xlat = mmu_.translateEntry(
            ref.vaddr,
            vm::Translation{batch.paddr[i], batch.hugePage[i] != 0},
            now);
        if (check)
            checkTranslation(ref.vaddr, xlat.paddr);
        xlat.paddr ^= probeFlip_;
        const L1AccessResult res = l1_.accessDecided(
            ref, xlat, now, static_cast<SpecDecision>(decision_[i]));
        // Every access takes at least one cycle, and nothing in the
        // modelled hierarchy (DRAM queueing included) takes ~10M:
        // such a latency is an underflow or a runaway queue.
        if (check && (res.latency == 0 || res.latency > 10'000'000)) {
            fail(detail::formatMessage(
                "implausible latency of ", res.latency,
                " cycles at va 0x", std::hex, ref.vaddr));
        }
        core_.completeRef(ref, disp, res.latency, !res.hit);
    }
}

void
MachineStages::checkTranslation(Addr vaddr, Addr paddr)
{
    // The golden walk reads the same table as the resolve stage, so
    // this checks the TLB hierarchy (and the probe-address path),
    // not the table itself.
    const auto golden = pageTable_.translate(vaddr);
    std::string error;
    if (!golden) {
        error = detail::formatMessage(
            "MMU translated unmapped va 0x", std::hex, vaddr);
    } else if (golden->paddr != paddr) {
        error = detail::formatMessage(
            "TLB divergence at va 0x", std::hex, vaddr,
            ": MMU pa 0x", paddr, ", page table pa 0x",
            golden->paddr);
    }
    if (!error.empty())
        fail(error);
}

void
MachineStages::fail(const std::string &error)
{
    if (check_.abortOnDivergence)
        panic("SIPT_CHECK: ", error);
    if (failure_.empty())
        failure_ = error;
}

std::vector<cpu::CoreResult>
runPhase(StreamStages &stream, std::span<MachineStages *const> machines,
         std::uint64_t max_refs)
{
    for (MachineStages *machine : machines)
        machine->beginPhase();
    std::uint64_t remaining = max_refs;
    while (remaining > 0) {
        const auto want = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining,
                                    cpu::RefBatch::capacity));
        const cpu::RefBatch &batch = stream.next(want);
        if (batch.size == 0)
            break;
        for (MachineStages *machine : machines)
            machine->step(batch);
        remaining -= batch.size;
        if (batch.size < want)
            break; // source exhausted mid-batch
    }
    std::vector<cpu::CoreResult> results;
    results.reserve(machines.size());
    for (MachineStages *machine : machines)
        results.push_back(machine->endPhase());
    return results;
}

BatchPipeline::BatchPipeline(cpu::TraceSource &source,
                             vm::Mmu &mmu,
                             const vm::PageTable &page_table,
                             SiptL1Cache &l1, cpu::TraceCore &core)
    : stream_(source, page_table), machine_(mmu, page_table, l1, core)
{
}

cpu::CoreResult
BatchPipeline::run(std::uint64_t max_refs)
{
    MachineStages *const machine = &machine_;
    const cpu::CoreResult result =
        runPhase(stream_, {&machine, 1}, max_refs)[0];
    if (machine_.error())
        std::rethrow_exception(machine_.error());
    return result;
}

} // namespace sipt::batch
