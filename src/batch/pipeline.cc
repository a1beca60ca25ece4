#include "batch/pipeline.hh"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/prefetch.hh"

namespace sipt::batch
{

namespace
{

/** Upper bound on flat-map array slots (8 B each): covers a 64 GiB
 *  contiguous VA span of 4 KiB pages before falling back to direct
 *  page-table lookups. */
constexpr std::uint64_t maxFlatSlots = 1ull << 24;

/**
 * Host-prefetch lookahead distances, in references. The batch
 * already holds the whole reference window, so each stage can ask
 * the host CPU to start loading the simulator structures (page-map
 * slots, tag sets) that references a few iterations ahead will
 * touch — latency a one-reference-at-a-time loop, which learns
 * each address only as it processes it, cannot hide.
 */
constexpr std::size_t resolvePrefetchDist = 8;
constexpr std::size_t accountPrefetchDist = 4;

/** The probe corruption SIPT_BATCH_MUTATE selects for @p policy
 *  (see BatchPipeline::probeFlip_). */
Addr
probeFlipFromEnv(IndexingPolicy policy)
{
    const char *env = std::getenv("SIPT_BATCH_MUTATE");
    if (env == nullptr || *env == '\0')
        return 0;
    if (std::string_view(env) != "probe")
        fatal("SIPT_BATCH_MUTATE: unknown mutation '", env,
              "' (expected \"probe\")");
    // Restricted to one policy so the cross-policy digest
    // comparison must diverge.
    return policy == IndexingPolicy::SiptNaive ? pageBase(1) : 0;
}

} // namespace

BatchPipeline::BatchPipeline(cpu::TraceSource &source,
                             vm::Mmu &mmu,
                             const vm::PageTable &page_table,
                             SiptL1Cache &l1, cpu::TraceCore &core)
    : source_(source), mmu_(mmu), pageTable_(page_table), l1_(l1),
      core_(core), check_(l1.params().check),
      probeFlip_(probeFlipFromEnv(l1.params().policy))
{
    buildFlatMap();
}

void
BatchPipeline::buildFlatMap()
{
    Vpn small_lo = ~Vpn{0};
    Vpn small_hi = 0;
    Vpn huge_lo = ~Vpn{0};
    Vpn huge_hi = 0;
    std::uint64_t smalls = 0;
    std::uint64_t huges = 0;
    pageTable_.forEachSmall([&](Vpn vpn, Pfn) {
        small_lo = std::min(small_lo, vpn);
        small_hi = std::max(small_hi, vpn);
        ++smalls;
    });
    pageTable_.forEachHuge([&](Vpn chunk, Pfn) {
        huge_lo = std::min(huge_lo, chunk);
        huge_hi = std::max(huge_hi, chunk);
        ++huges;
    });

    const std::uint64_t small_span =
        smalls ? small_hi - small_lo + 1 : 0;
    const std::uint64_t huge_span =
        huges ? huge_hi - huge_lo + 1 : 0;
    if (small_span + huge_span > maxFlatSlots)
        return; // pathologically sparse VA layout: stay unflattened

    flat_.smallBase = smalls ? small_lo : 0;
    flat_.smallFrame.assign(
        static_cast<std::size_t>(small_span),
        FlatPageMap::unmapped);
    flat_.hugeBase = huges ? huge_lo : 0;
    flat_.hugeFrame.assign(static_cast<std::size_t>(huge_span),
                           FlatPageMap::unmapped);
    pageTable_.forEachSmall([&](Vpn vpn, Pfn pfn) {
        flat_.smallFrame[vpn - flat_.smallBase] = pageBase(pfn);
    });
    pageTable_.forEachHuge([&](Vpn chunk, Pfn base_pfn) {
        flat_.hugeFrame[chunk - flat_.hugeBase] =
            pageBase(base_pfn);
    });
    flat_.valid = true;
}

vm::Translation
BatchPipeline::flatTranslate(Addr vaddr) const
{
    // Huge mappings first, mirroring PageTable::translate().
    const Vpn chunk = hugePageNumber(vaddr);
    if (chunk - flat_.hugeBase < flat_.hugeFrame.size()) {
        const Addr base = flat_.hugeFrame[chunk - flat_.hugeBase];
        if (base != FlatPageMap::unmapped) {
            return vm::Translation{
                base | (vaddr & mask(hugePageShift)), true};
        }
    }
    const Vpn vpn = pageNumber(vaddr);
    if (vpn - flat_.smallBase < flat_.smallFrame.size()) {
        const Addr base = flat_.smallFrame[vpn - flat_.smallBase];
        if (base != FlatPageMap::unmapped) {
            return vm::Translation{base | pageOffset(vaddr),
                                   false};
        }
    }
    panic("MMU translate of unmapped va ", vaddr);
}

cpu::CoreResult
BatchPipeline::run(std::uint64_t max_refs)
{
    const cpu::TraceCore::RunCursor cursor = core_.beginRun();
    std::uint64_t remaining = max_refs;
    while (remaining > 0) {
        const auto want = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining,
                                    cpu::RefBatch::capacity));
        const std::size_t got = source_.nextBatch(batch_, want);
        if (got == 0)
            break;
        resolveBatch(batch_);
        predictBatch(batch_);
        accountBatch(batch_);
        remaining -= got;
        if (got < want)
            break; // source exhausted mid-batch
    }
    return core_.endRun(cursor);
}

void
BatchPipeline::resolveBatch(cpu::RefBatch &batch)
{
    // Stateless: the flat snapshot supplies the pure VA->PA
    // function without the page table's hash probes. The TLB
    // hierarchy sees every reference later, in the account stage.
    const bool flat = flat_.valid;
    for (std::size_t i = 0; i < batch.size; ++i) {
        if (flat && i + resolvePrefetchDist < batch.size) {
            const Addr ahead = batch.vaddr[i + resolvePrefetchDist];
            const Vpn chunk = hugePageNumber(ahead);
            if (chunk - flat_.hugeBase < flat_.hugeFrame.size())
                prefetchRead(
                    &flat_.hugeFrame[chunk - flat_.hugeBase]);
            const Vpn vpn = pageNumber(ahead);
            if (vpn - flat_.smallBase < flat_.smallFrame.size())
                prefetchRead(
                    &flat_.smallFrame[vpn - flat_.smallBase]);
        }
        const Addr va = batch.vaddr[i];
        vm::Translation entry;
        if (flat) {
            entry = flatTranslate(va);
        } else {
            const auto xlat = pageTable_.translate(va);
            if (!xlat)
                panic("MMU translate of unmapped va ", va);
            entry = *xlat;
        }
        batch.paddr[i] = entry.paddr;
        batch.hugePage[i] = entry.hugePage ? 1 : 0;
    }
}

void
BatchPipeline::predictBatch(cpu::RefBatch &batch)
{
    // Predict stage: sole owner of the predictor tables (IDB,
    // perceptron, translation tables, counters). They advance once
    // per reference, in order, exactly as access() would train
    // them. The huge-page lane feeds the superpage-aware policies.
    l1_.decideBatch(batch.size, batch.pc.data(),
                    batch.vaddr.data(), batch.paddr.data(),
                    batch.hugePage.data(),
                    batch.decision.data());
}

void
BatchPipeline::accountBatch(cpu::RefBatch &batch)
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
            ref, xlat, now,
            static_cast<SpecDecision>(batch.decision[i]));
        core_.completeRef(ref, disp, res.latency, !res.hit);
    }
}

void
BatchPipeline::checkTranslation(Addr vaddr, Addr paddr)
{
    // This also guards the flat snapshot the resolve stage reads.
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
    if (error.empty())
        return;
    if (check_.abortOnDivergence)
        panic("SIPT_CHECK: ", error);
    if (failure_.empty())
        failure_ = error;
}

} // namespace sipt::batch
