#include "batch/pipeline.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::batch
{

StreamStages::StreamStages(cpu::TraceSource &source,
                           const vm::PageTable &page_table,
                           vm::Mmu &tlbs)
    : source_(source), pageTable_(page_table), tlbs_(tlbs)
{
}

void
StreamStages::fill(cpu::RefBatch &batch, std::size_t want)
{
    generate(batch, want);
    resolve(batch);
}

void
StreamStages::generate(cpu::RefBatch &batch, std::size_t want)
{
    source_.nextBatch(batch, want);
}

void
StreamStages::resolve(cpu::RefBatch &batch)
{
    // The page table is the pure VA->PA function (no page is mapped
    // or unmapped once references flow). The TLB hierarchy sees
    // every reference here, in order, once for all machines.
    for (std::size_t i = 0; i < batch.size; ++i) {
        const Addr va = batch.vaddr[i];
        const auto entry = pageTable_.translate(va);
        if (!entry)
            panic("MMU translate of unmapped va ", va);
        batch.paddr[i] = entry->paddr;
        batch.hugePage[i] = entry->hugePage ? 1 : 0;
        batch.tlbLevel[i] = static_cast<std::uint8_t>(
            tlbs_.lookup(va, entry->hugePage));
    }
}

MachineStages::MachineStages(vm::MmuTiming &timing,
                             const vm::PageTable &page_table,
                             SiptL1Cache &l1, cpu::TraceCore &core)
    : timing_(timing), pageTable_(page_table), l1_(l1), core_(core),
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
    l1_.decideBatch(batch.size, batch.pc.data(), batch.vaddr.data(),
                    batch.paddr.data(), batch.hugePage.data(),
                    decisions_.data());
}

void
MachineStages::memory(const cpu::RefBatch &batch, MemoryRecord &out)
{
    out.size = 0;
    out.walks.clear();
    out.log.clear();
    out.error = memoryError_;
    if (memoryError_)
        return;
    if (check_.enabled)
        out.facts.resize(cpu::RefBatch::capacity);
    ArrayFacts unchecked;
    // Counts the references recorded; out.size is stored once, as
    // a store per reference measurably slowed the loop.
    std::size_t i = 0;
    try {
        for (; i < batch.size; ++i) {
            // A radix walk's PTE reads, then the access: the order
            // timing() replays them in.
            const vm::WalkShape walk = timing_.lookupWalk(
                batch.vaddr[i], batch.hugePage[i] != 0,
                static_cast<vm::TlbLevel>(batch.tlbLevel[i]), out.log);
            out.outcome[i] = l1_.accessArray(
                batch.op[i], batch.paddr[i] ^ probeFlip_, out.log,
                check_.enabled ? out.facts[i] : unchecked);
            if (walk.reads != 0)
                out.walks.push_back(walk);
        }
    } catch (...) {
        memoryError_ = std::current_exception();
        out.error = memoryError_;
    }
    out.size = i;
}

void
MachineStages::timing(const cpu::RefBatch &batch,
                      const MemoryRecord &recorded)
{
    if (error_)
        return;
    try {
        predict(batch);
        const bool check = check_.enabled;
        const ArrayFacts unchecked;
        const vm::WalkShape unwalked;
        const bool walker = timing_.walker() != nullptr;
        std::size_t walks = 0;
        dram::AccessLog::Cursor cursor;
        for (std::size_t i = 0; i < recorded.size; ++i) {
            const MemRef ref = batch.refAt(i);
            const auto level =
                static_cast<vm::TlbLevel>(batch.tlbLevel[i]);
            const double disp = core_.dispatchRef(ref);
            const auto now = static_cast<Cycles>(disp);
            // Translation latency at the dispatch cycle: a radix
            // walk's PTE reads reach the DRAM queues at the cycle the
            // core issued the reference, interleaved in reference
            // order with the L1 fills.
            vm::MmuResult xlat = timing_.complete(
                ref.vaddr,
                vm::Translation{batch.paddr[i], batch.hugePage[i] != 0},
                level, now,
                walker && level == vm::TlbLevel::Walk
                    ? recorded.walks[walks++]
                    : unwalked,
                recorded.log, cursor);
            if (check)
                checkTranslation(ref.vaddr, xlat.paddr);
            xlat.paddr ^= probeFlip_;
            const L1AccessResult res = l1_.accessTimed(
                ref, xlat, now, static_cast<SpecDecision>(decisions_[i]),
                recorded.outcome[i], check ? recorded.facts[i] : unchecked,
                recorded.log, cursor);
            // Every access takes at least one cycle, and nothing in
            // the modelled hierarchy (DRAM queueing included) takes
            // ~10M: such a latency is an underflow or a runaway
            // queue.
            if (check && (res.latency == 0 || res.latency > 10'000'000)) {
                fail(detail::formatMessage(
                    "implausible latency of ", res.latency,
                    " cycles at va 0x", std::hex, ref.vaddr));
            }
            core_.completeRef(ref, disp, res.latency, !res.hit);
        }
        error_ = recorded.error;
    } catch (...) {
        error_ = std::current_exception();
    }
}

void
MachineStages::checkTranslation(Addr vaddr, Addr paddr)
{
    // The resolve stage read the same table up to a ring of
    // batches earlier, and nothing may map or unmap a page while
    // references flow.
    const auto golden = pageTable_.translate(vaddr);
    std::string error;
    if (!golden) {
        error = detail::formatMessage(
            "MMU translated unmapped va 0x", std::hex, vaddr);
    } else if (golden->paddr != paddr) {
        error = detail::formatMessage(
            "translation divergence at va 0x", std::hex, vaddr,
            ": resolved pa 0x", paddr, ", page table pa 0x",
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

BatchPipeline::BatchPipeline(cpu::TraceSource &source,
                             vm::Mmu &mmu,
                             const vm::PageTable &page_table,
                             SiptL1Cache &l1, cpu::TraceCore &core)
    : stream_(source, page_table, mmu),
      machine_(mmu.timing(), page_table, l1, core)
{
}

cpu::CoreResult
BatchPipeline::run(std::uint64_t max_refs)
{
    MachineStages *const machine = &machine_;
    StreamBatches batches(stream_);
    const cpu::CoreResult result =
        runPhase({&machine, 1}, max_refs, batches)[0];
    if (machine_.error())
        std::rethrow_exception(machine_.error());
    return result;
}

} // namespace sipt::batch
