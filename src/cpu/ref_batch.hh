/**
 * @file
 * The struct-of-arrays reference batch that the pipeline moves
 * through its generate/resolve/predict/account stages.
 *
 * Each lane is a flat fixed-capacity array; lane i across all
 * arrays describes the i-th reference of the batch. The layout
 * keeps every stage a tight loop over contiguous same-typed data:
 * the generator fills the MemRef lanes, the resolve stage fills
 * the paddr/hugePage lanes, the predict stage fills the decision
 * lane, and the account stage consumes all of them in order. No
 * stage allocates; a pipeline owns exactly one RefBatch and
 * recycles it.
 */

#ifndef SIPT_CPU_REF_BATCH_HH
#define SIPT_CPU_REF_BATCH_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace sipt::cpu
{

/**
 * One batch of memory references in struct-of-arrays form.
 */
struct RefBatch
{
    /** References per full batch. Large enough to amortise the
     *  per-batch virtual dispatch and stage-switch overhead, small
     *  enough that all lanes stay cache-resident (~9 KiB total). */
    static constexpr std::size_t capacity = 256;

    /** Valid lanes: indices [0, size) hold references. */
    std::size_t size = 0;

    // --- Generator-filled lanes (SoA mirror of MemRef) ----------
    std::array<Addr, capacity> pc;
    std::array<Addr, capacity> vaddr;
    std::array<MemOp, capacity> op;
    std::array<std::uint32_t, capacity> nonMemBefore;
    std::array<std::uint8_t, capacity> dependsOnPrev;
    std::array<std::uint8_t, capacity> chainId;
    std::array<std::uint8_t, capacity> chainTail;

    // --- Resolve-stage lanes ------------------------------------
    /** Full physical address (vm::Translation::paddr). */
    std::array<Addr, capacity> paddr;
    /** 1 when the page is a 2 MiB mapping, else 0. */
    std::array<std::uint8_t, capacity> hugePage;

    // --- Predict-stage lane -------------------------------------
    /** Speculation outcome codes (sipt::SpecDecision values). */
    std::array<std::uint8_t, capacity> decision;

    /** Discard all lanes. */
    void clear() { size = 0; }

    /** Append one reference from AoS form. @pre size < capacity */
    void
    push(const MemRef &ref)
    {
        const std::size_t i = size++;
        pc[i] = ref.pc;
        vaddr[i] = ref.vaddr;
        op[i] = ref.op;
        nonMemBefore[i] = ref.nonMemBefore;
        dependsOnPrev[i] = ref.dependsOnPrev ? 1 : 0;
        chainId[i] = ref.chainId;
        chainTail[i] = ref.chainTail;
    }

    /** Reassemble lane @p i into AoS form for per-ref consumers. */
    MemRef
    refAt(std::size_t i) const
    {
        MemRef ref;
        ref.pc = pc[i];
        ref.vaddr = vaddr[i];
        ref.op = op[i];
        ref.nonMemBefore = nonMemBefore[i];
        ref.dependsOnPrev = dependsOnPrev[i] != 0;
        ref.chainId = chainId[i];
        ref.chainTail = chainTail[i];
        return ref;
    }
};

} // namespace sipt::cpu

#endif // SIPT_CPU_REF_BATCH_HH
