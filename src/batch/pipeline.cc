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
constexpr std::size_t memoryPrefetchDist = 4;

} // namespace

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
        if (i + resolvePrefetchDist < batch.size)
            pageTable_.prefetch(batch.vaddr[i + resolvePrefetchDist]);
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

[[gnu::always_inline]] inline void
MachineStages::memoryStep(const cpu::RefBatch &batch, std::size_t i,
                          std::uint8_t &outcome, vm::WalkShape &walk,
                          ArrayFacts &facts, dram::AccessLog &log)
{
    if (i + memoryPrefetchDist < batch.size)
        l1_.prefetchAccess(batch.paddr[i + memoryPrefetchDist]);
    // A radix walk's PTE reads, then the access: the order the
    // timing step replays them in.
    walk = timing_.lookupWalk(
        batch.vaddr[i], batch.hugePage[i] != 0,
        static_cast<vm::TlbLevel>(batch.tlbLevel[i]), log);
    outcome = l1_.accessArray(batch.op[i], batch.paddr[i] ^ probeFlip_,
                              log, facts);
}

[[gnu::always_inline]] inline void
MachineStages::timingStep(const cpu::RefBatch &batch, std::size_t i,
                          std::uint8_t outcome,
                          const vm::WalkShape &walk,
                          const ArrayFacts &facts,
                          const dram::AccessLog &log,
                          dram::AccessLog::Cursor &cursor)
{
    const MemRef ref = batch.refAt(i);
    const double disp = core_.dispatchRef(ref);
    const auto now = static_cast<Cycles>(disp);
    // Translation latency at the dispatch cycle: a radix walk's PTE
    // reads reach the DRAM queues at the cycle the core issued the
    // reference, interleaved in reference order with the L1 fills.
    vm::MmuResult xlat = timing_.complete(
        ref.vaddr,
        vm::Translation{batch.paddr[i], batch.hugePage[i] != 0},
        static_cast<vm::TlbLevel>(batch.tlbLevel[i]), now, walk, log,
        cursor);
    const bool check = check_.enabled;
    if (check)
        checkTranslation(ref.vaddr, xlat.paddr);
    xlat.paddr ^= probeFlip_;
    const L1AccessResult res = l1_.accessTimed(
        ref, xlat, now, static_cast<SpecDecision>(decisions_[i]),
        outcome, facts, log, cursor);
    // Every access takes at least one cycle, and nothing in the
    // modelled hierarchy (DRAM queueing included) takes ~10M: such
    // a latency is an underflow or a runaway queue.
    if (check && (res.latency == 0 || res.latency > 10'000'000)) {
        fail(detail::formatMessage("implausible latency of ",
                                   res.latency, " cycles at va 0x",
                                   std::hex, ref.vaddr));
    }
    core_.completeRef(ref, disp, res.latency, !res.hit);
}

[[gnu::noinline]] void
MachineStages::stepOne(const cpu::RefBatch &batch, std::size_t i)
{
    // Memory and timing of one reference: its record is built and
    // replayed while it is hot.
    if (!log_.accesses.empty())
        log_.clear();
    std::uint8_t outcome;
    vm::WalkShape walk;
    ArrayFacts facts;
    memoryStep(batch, i, outcome, walk, facts, log_);
    dram::AccessLog::Cursor cursor;
    timingStep(batch, i, outcome, walk, facts, log_, cursor);
}

void
MachineStages::step(const cpu::RefBatch &batch)
{
    if (error_)
        return;
    try {
        predict(batch);
        for (std::size_t i = 0; i < batch.size; ++i)
            stepOne(batch, i);
    } catch (...) {
        error_ = std::current_exception();
    }
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
    vm::WalkShape walk;
    try {
        for (std::size_t i = 0; i < batch.size; ++i) {
            memoryStep(batch, i, out.outcome[i], walk,
                       check_.enabled ? out.facts[i] : unchecked,
                       out.log);
            if (walk.reads != 0)
                out.walks.push_back(walk);
            out.size = i + 1;
        }
    } catch (...) {
        memoryError_ = std::current_exception();
        out.error = memoryError_;
    }
}

void
MachineStages::timing(const cpu::RefBatch &batch,
                      const MemoryRecord &recorded)
{
    if (error_)
        return;
    try {
        predict(batch);
        const ArrayFacts unchecked;
        const vm::WalkShape unwalked;
        const bool walker = timing_.walker() != nullptr;
        std::size_t walks = 0;
        dram::AccessLog::Cursor cursor;
        for (std::size_t i = 0; i < recorded.size; ++i) {
            const bool walked =
                walker && static_cast<vm::TlbLevel>(batch.tlbLevel[i]) ==
                              vm::TlbLevel::Walk;
            timingStep(batch, i, recorded.outcome[i],
                       walked ? recorded.walks[walks++] : unwalked,
                       check_.enabled ? recorded.facts[i] : unchecked,
                       recorded.log, cursor);
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
