/**
 * @file
 * The shared per-reference decision kernel (decideOne) and the
 * three translation-aware policies built on it. Every policy's
 * scalar decide() and batched decideBatch() must produce identical
 * SpecDecision streams over a mixed small/huge reference stream —
 * the regression that pins both entry points to one kernel. On top of
 * that: the VESPA superpage gate (huge pages speculate
 * unconditionally and leave the predictors untouched), Revelator's
 * hashed translation table (learns a stable VPN→PFN mapping after
 * one miss), and PCAX's PC-indexed delta predictor (converges on a
 * constant per-PC frame delta).
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "cache/timing_cache.hh"
#include "dram/dram.hh"
#include "sipt/l1_cache.hh"

namespace sipt
{
namespace
{

/** Self-contained harness: L1 + L2-less hierarchy + DRAM. */
struct Harness
{
    dram::Dram dram;
    cache::TimingCache llc;
    cache::BelowL1 below;
    SiptL1Cache l1;

    explicit Harness(const L1Params &params)
        : llc(llcParams()), below(nullptr, llc, dram),
          l1(params, below)
    {
    }

    static cache::TimingCacheParams
    llcParams()
    {
        cache::TimingCacheParams p;
        p.geometry.sizeBytes = 1 << 20;
        p.geometry.assoc = 16;
        p.latency = 20;
        return p;
    }

    /** Full access with an L1-TLB-hit translation. */
    L1AccessResult
    access(Addr vaddr, Addr paddr, bool huge_page,
           Addr pc = 0x400000, Cycles now = 0)
    {
        MemRef ref;
        ref.pc = pc;
        ref.vaddr = vaddr;
        ref.op = MemOp::Load;
        vm::MmuResult xlat;
        xlat.paddr = paddr;
        xlat.hugePage = huge_page;
        xlat.latency = 2;
        xlat.l1Hit = true;
        return l1.access(ref, xlat, now);
    }
};

L1Params
siptParams(IndexingPolicy policy, std::uint32_t assoc = 2,
           std::uint64_t size = 32 * 1024)
{
    L1Params p;
    p.geometry.sizeBytes = size;
    p.geometry.assoc = assoc;
    p.hitLatency = 2;
    p.policy = policy;
    p.accessEnergyNj = 0.10;
    return p;
}

/** One pre-translated reference of the synthetic stream. */
struct Ref
{
    Addr pc;
    Addr vaddr;
    Addr paddr;
    bool hugePage;
};

/** Deterministic LCG (the test must not depend on run order). */
std::uint64_t
lcg(std::uint64_t &state)
{
    state = state * 6364136223846793005ull +
            1442695040888963407ull;
    return state >> 16;
}

/**
 * A mixed stream honouring the architecture's translation
 * contract: small (4 KiB) pages preserve the low 12 VA bits,
 * huge (2 MiB) pages preserve the low 21 — so a huge reference
 * can never change index bits 14:12, while a small one usually
 * does. Every 4th reference is huge; PCs are drawn from a small
 * pool so the PC-indexed predictors see reuse.
 */
std::vector<Ref>
mixedStream(std::size_t n, std::uint64_t seed)
{
    std::vector<Ref> refs;
    refs.reserve(n);
    std::uint64_t s = seed;
    for (std::size_t i = 0; i < n; ++i) {
        Ref r;
        r.pc = 0x400000 + 4 * (lcg(s) % 32);
        r.hugePage = (i % 4) == 3;
        if (r.hugePage) {
            const Addr off = lcg(s) & ((1ull << 21) - 1);
            const Addr vframe = lcg(s) % 64;
            const Addr pframe = lcg(s) % 64;
            r.vaddr = (vframe << 21) | off;
            r.paddr = (pframe << 21) | off;
        } else {
            const Addr off = lcg(s) & 0xfff;
            const Addr vpn = lcg(s) % 4096;
            const Addr pfn = lcg(s) % 4096;
            r.vaddr = (vpn << 12) | off;
            r.paddr = (pfn << 12) | off;
        }
        refs.push_back(r);
    }
    return refs;
}

/** Scalar decide() over the stream. */
std::vector<SpecDecision>
scalarDecisions(SiptL1Cache &l1, const std::vector<Ref> &refs)
{
    std::vector<SpecDecision> out;
    out.reserve(refs.size());
    for (const Ref &r : refs) {
        MemRef ref;
        ref.pc = r.pc;
        ref.vaddr = r.vaddr;
        ref.op = MemOp::Load;
        vm::MmuResult xlat;
        xlat.paddr = r.paddr;
        xlat.hugePage = r.hugePage;
        xlat.latency = 2;
        xlat.l1Hit = true;
        out.push_back(l1.decide(ref, xlat));
    }
    return out;
}

/** decideBatch() over the stream in uneven chunks. */
std::vector<SpecDecision>
batchDecisions(SiptL1Cache &l1, const std::vector<Ref> &refs,
               std::size_t chunk)
{
    std::vector<SpecDecision> out;
    out.reserve(refs.size());
    std::vector<Addr> pcs, vas, pas;
    std::vector<std::uint8_t> huge, decisions;
    for (std::size_t base = 0; base < refs.size();
         base += chunk) {
        const std::size_t n =
            std::min(chunk, refs.size() - base);
        pcs.resize(n);
        vas.resize(n);
        pas.resize(n);
        huge.resize(n);
        decisions.assign(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
            const Ref &r = refs[base + i];
            pcs[i] = r.pc;
            vas[i] = r.vaddr;
            pas[i] = r.paddr;
            huge[i] = r.hugePage ? 1 : 0;
        }
        l1.decideBatch(n, pcs.data(), vas.data(), pas.data(),
                       huge.data(), decisions.data());
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(
                static_cast<SpecDecision>(decisions[i]));
    }
    return out;
}

TEST(PolicyKernel, ScalarAndBatchDecisionStreamsMatch)
{
    // Every policy, same params, same stream: decide() one cache,
    // decideBatch() the other (prime chunk size so batches split
    // at awkward points). Predictors train inside the kernel, so
    // identical streams prove identical training order too.
    struct Case
    {
        IndexingPolicy policy;
        std::uint32_t assoc;
    };
    const Case cases[] = {
        {IndexingPolicy::Vipt, 8},
        {IndexingPolicy::Ideal, 2},
        {IndexingPolicy::SiptNaive, 2},
        {IndexingPolicy::SiptBypass, 2},
        {IndexingPolicy::SiptCombined, 2},
        {IndexingPolicy::SiptVespa, 2},
        {IndexingPolicy::SiptRevelator, 2},
        {IndexingPolicy::SiptPcax, 2},
    };
    const auto refs = mixedStream(4096, 0x5e5e5e5e);
    for (const Case &c : cases) {
        SCOPED_TRACE(policyName(c.policy));
        Harness scalar(siptParams(c.policy, c.assoc));
        Harness batch(siptParams(c.policy, c.assoc));
        const auto a = scalarDecisions(scalar.l1, refs);
        const auto b = batchDecisions(batch.l1, refs, 97);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i], b[i]) << "reference #" << i;
        }
    }
}

TEST(PolicyKernel, VespaGateSpeculatesOnEveryHugePage)
{
    // Even with the predictors trained hard toward "bits change"
    // by small-page traffic, a huge-page reference must come out
    // Speculate: the gate sits before any predictor query.
    Harness h(siptParams(IndexingPolicy::SiptVespa));
    const Addr pc = 0x400100;
    for (int i = 0; i < 64; ++i) {
        // Small pages whose index bits always change.
        MemRef ref;
        ref.pc = pc;
        ref.vaddr = static_cast<Addr>(i) << 12;
        ref.op = MemOp::Load;
        vm::MmuResult xlat;
        xlat.paddr = (static_cast<Addr>(i) + 1) << 12;
        xlat.latency = 2;
        xlat.l1Hit = true;
        h.l1.decide(ref, xlat);
    }
    for (int i = 0; i < 16; ++i) {
        MemRef ref;
        ref.pc = pc;
        ref.vaddr = static_cast<Addr>(i) << 21;
        ref.op = MemOp::Load;
        vm::MmuResult xlat;
        xlat.paddr = (static_cast<Addr>(i) + 7) << 21;
        xlat.hugePage = true;
        xlat.latency = 2;
        xlat.l1Hit = true;
        EXPECT_EQ(h.l1.decide(ref, xlat),
                  SpecDecision::Speculate)
            << "huge reference #" << i;
    }
}

TEST(PolicyKernel, VespaGateLeavesPredictorsUntouched)
{
    // Cache A sees huge references interleaved into a small-page
    // stream; cache B sees only the small-page subsequence. The
    // small-page decisions must match exactly — the gate may not
    // leak huge references into predictor state.
    Harness a(siptParams(IndexingPolicy::SiptVespa));
    Harness b(siptParams(IndexingPolicy::SiptVespa));
    const auto small = mixedStream(512, 0x1234);
    std::uint64_t s = 0xbeef;
    std::size_t i = 0;
    for (const Ref &r : small) {
        if (r.hugePage)
            continue; // keep only small pages in the base stream
        MemRef ref;
        ref.pc = r.pc;
        ref.vaddr = r.vaddr;
        ref.op = MemOp::Load;
        vm::MmuResult xlat;
        xlat.paddr = r.paddr;
        xlat.latency = 2;
        xlat.l1Hit = true;
        // A gets a huge reference injected before every other
        // small one; B never sees them.
        if (++i % 2 == 0) {
            MemRef hugeRef;
            hugeRef.pc = 0x400000 + 4 * (lcg(s) % 32);
            hugeRef.vaddr = (lcg(s) % 64) << 21;
            hugeRef.op = MemOp::Load;
            vm::MmuResult hugeXlat;
            hugeXlat.paddr = (lcg(s) % 64) << 21;
            hugeXlat.hugePage = true;
            hugeXlat.latency = 2;
            hugeXlat.l1Hit = true;
            ASSERT_EQ(a.l1.decide(hugeRef, hugeXlat),
                      SpecDecision::Speculate);
        }
        ASSERT_EQ(a.l1.decide(ref, xlat),
                  b.l1.decide(ref, xlat))
            << "small reference #" << i;
    }
}

TEST(PolicyKernel, VespaMatchesCombinedOnSmallPages)
{
    // With no huge pages in the stream the gate never fires, so
    // Vespa must be decision-identical to Combined.
    Harness vespa(siptParams(IndexingPolicy::SiptVespa));
    Harness combined(siptParams(IndexingPolicy::SiptCombined));
    auto refs = mixedStream(1024, 0xabcd);
    for (Ref &r : refs) {
        if (!r.hugePage)
            continue;
        // Demote huge references to small ones.
        r.hugePage = false;
        r.vaddr &= (1ull << 24) - 1;
        r.paddr &= (1ull << 24) - 1;
    }
    const auto a = scalarDecisions(vespa.l1, refs);
    const auto b = scalarDecisions(combined.l1, refs);
    for (std::size_t i = 0; i < refs.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << "reference #" << i;
    }
}

TEST(PolicyKernel, RevelatorLearnsStableTranslation)
{
    Harness h(siptParams(IndexingPolicy::SiptRevelator));
    // Page whose index bits change: VPN 0x40 -> PFN 0x41.
    MemRef ref;
    ref.pc = 0x400000;
    ref.vaddr = 0x40ull << 12;
    ref.op = MemOp::Load;
    vm::MmuResult xlat;
    xlat.paddr = 0x41ull << 12;
    xlat.latency = 2;
    xlat.l1Hit = true;
    // Cold table: identity fallback predicts the VA bits, which
    // are wrong here -> replay, and the entry trains.
    EXPECT_EQ(h.l1.decide(ref, xlat), SpecDecision::Replay);
    // Second touch: the table knows the frame -> fast access from
    // the predicted (non-VA) bits.
    EXPECT_EQ(h.l1.decide(ref, xlat), SpecDecision::DeltaHit);
    EXPECT_EQ(h.l1.decide(ref, xlat), SpecDecision::DeltaHit);

    // A page whose bits survive translation speculates from the
    // identity fallback even when cold.
    MemRef same;
    same.pc = 0x400000;
    same.vaddr = 0x80ull << 12;
    same.op = MemOp::Load;
    vm::MmuResult sameXlat;
    sameXlat.paddr = 0x180ull << 12; // bits 13:12 unchanged
    sameXlat.latency = 2;
    sameXlat.l1Hit = true;
    EXPECT_EQ(h.l1.decide(same, sameXlat),
              SpecDecision::Speculate);
}

TEST(PolicyKernel, PcaxConvergesOnConstantPcDelta)
{
    // One PC streaming through pages at a constant frame delta
    // whose index bits always change: once the perceptron learns
    // to distrust the VA bits and the delta table has the stride,
    // every access is a DeltaHit.
    Harness h(siptParams(IndexingPolicy::SiptPcax));
    const Addr pc = 0x400200;
    std::vector<SpecDecision> decisions;
    for (int i = 0; i < 96; ++i) {
        MemRef ref;
        ref.pc = pc;
        ref.vaddr = static_cast<Addr>(4 * i) << 12;
        ref.op = MemOp::Load;
        vm::MmuResult xlat;
        // pfn = vpn + 2: index bits 1:0 of the VPN flip from 0 to
        // 2 on every page, so VA-bits speculation always replays.
        xlat.paddr = static_cast<Addr>(4 * i + 2) << 12;
        xlat.latency = 2;
        xlat.l1Hit = true;
        decisions.push_back(h.l1.decide(ref, xlat));
    }
    EXPECT_EQ(decisions.front(), SpecDecision::Replay)
        << "cold predictor must start from VA-bits speculation";
    for (std::size_t i = decisions.size() - 8;
         i < decisions.size(); ++i) {
        EXPECT_EQ(decisions[i], SpecDecision::DeltaHit)
            << "reference #" << i
            << " after training should ride the delta table";
    }
}

TEST(PolicyKernel, VespaEliminatesHugePageReplays)
{
    // Adversarial interleave: small pages from one PC whose bits
    // change with an inconsistent delta (keeps Combined's stage-1
    // saying "change" while stage 2 guesses wrong), plus huge
    // pages from the same PC. Combined wastes replays on pages
    // that could not have changed; Vespa's gate must not.
    Harness vespa(siptParams(IndexingPolicy::SiptVespa));
    Harness combined(siptParams(IndexingPolicy::SiptCombined));
    const Addr pc = 0x400300;
    std::uint64_t hugeRefs = 0;
    for (int i = 0; i < 256; ++i) {
        const bool huge = (i % 4) == 3;
        Addr va, pa;
        if (huge) {
            va = static_cast<Addr>(i % 16) << 21;
            pa = static_cast<Addr>((i % 16) + 5) << 21;
            ++hugeRefs;
        } else {
            // Alternating deltas 1 and 3 (mod 4): always changed,
            // never predictable from the last delta.
            va = static_cast<Addr>(4 * i) << 12;
            pa = static_cast<Addr>(4 * i + 1 + 2 * (i % 2))
                 << 12;
        }
        vespa.access(va, pa, huge, pc);
        combined.access(va, pa, huge, pc);
    }
    EXPECT_EQ(vespa.l1.stats().hugeAccesses, hugeRefs);
    EXPECT_EQ(combined.l1.stats().hugeAccesses, hugeRefs);
    // The acceptance property: zero huge-page waste under the
    // gate, measurably more fast accesses than Combined on the
    // same stream.
    EXPECT_EQ(vespa.l1.stats().hugeReplays, 0u);
    EXPECT_EQ(vespa.l1.stats().hugeBypassLosses, 0u);
    EXPECT_GT(combined.l1.stats().hugeReplays, 0u);
    EXPECT_GT(vespa.l1.stats().fastAccesses,
              combined.l1.stats().fastAccesses);
}

} // namespace
} // namespace sipt
