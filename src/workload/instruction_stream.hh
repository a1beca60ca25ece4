/**
 * @file
 * An instruction-fetch address stream, for evaluating SIPT on L1
 * instruction caches — the paper's future-work item (Sec. III:
 * "We believe SIPT will work at least as well for instruction
 * caches as instruction working sets are typically small...
 * suggested by the high I-TLB hit rates observed in prior work").
 *
 * The model: program text is a demand-paged code region holding a
 * set of functions. Fetch proceeds in 16-byte chunks, sequentially
 * within a function, with loop back-edges, and with calls/branches
 * that are Zipf-biased toward a hot subset of functions. Each
 * fetch chunk is emitted as a load MemRef whose PC is the fetch
 * address itself (what an I-side SIPT would index its predictors
 * with).
 */

#ifndef SIPT_WORKLOAD_INSTRUCTION_STREAM_HH
#define SIPT_WORKLOAD_INSTRUCTION_STREAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "cpu/trace_source.hh"
#include "os/address_space.hh"

namespace sipt::workload
{

/** Code-footprint profile for the instruction stream. */
struct CodeProfile
{
    std::string name = "small-code";
    /** Total text size in bytes. */
    std::uint64_t codeBytes = 512 * 1024;
    /** Number of functions carved out of the text. */
    std::uint32_t numFunctions = 256;
    /** Fraction of control transfers going to the hot subset. */
    double hotCallFrac = 0.9;
    /** Size of the hot subset (functions). */
    std::uint32_t hotFunctions = 16;
    /** Probability per chunk of taking a loop back-edge. */
    double loopBackProb = 0.20;
    /** Probability per chunk of leaving the function. */
    double callProb = 0.10;
    /** Huge-page affinity of the text mapping. */
    double thpAffinity = 0.2;
};

/** A "typical SPEC" small-text profile. */
CodeProfile smallCodeProfile();

/** A gcc/xalancbmk-like large-text profile. */
CodeProfile largeCodeProfile();

/**
 * Generates the fetch stream over a demand-paged code region.
 */
class InstructionStream : public cpu::TraceSource
{
  public:
    /** Bytes fetched per reference (one fetch chunk). */
    static constexpr Addr fetchBytes = 16;

    /**
     * Map the text and build the function layout.
     *
     * @param profile code-footprint description
     * @param address_space process address space (text pages are
     *        first-touched here, in load order — which is what
     *        fixes the VA->PA deltas SIPT-I would speculate on)
     * @param seed RNG seed
     */
    InstructionStream(const CodeProfile &profile,
                      os::AddressSpace &address_space,
                      std::uint64_t seed);

    /** Produce the next fetch chunk (never ends). */
    bool next(MemRef &ref) override;

    const CodeProfile &profile() const { return profile_; }

    /** Base VA of the text region. */
    Addr textBase() const { return textBase_; }

  private:
    struct Function
    {
        Addr start;
        std::uint64_t bytes;
    };

    /** Pick a call target (Zipf-biased toward the hot set). */
    std::size_t pickTarget();

    CodeProfile profile_;
    Rng rng_;
    Addr textBase_;
    std::vector<Function> functions_;
    std::size_t currentFn_ = 0;
    Addr offset_ = 0;
    /** Loop entry within the current function. */
    Addr loopStart_ = 0;
};

} // namespace sipt::workload

#endif // SIPT_WORKLOAD_INSTRUCTION_STREAM_HH
