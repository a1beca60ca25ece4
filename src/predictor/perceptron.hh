/**
 * @file
 * The speculation-bypass predictor of SIPT Section V: a PC-indexed
 * table of perceptrons over a global history of speculation
 * outcomes, following the smallest global-history configuration of
 * Jimenez & Lin (HPCA '01).
 *
 * The predicted "branch" is: *will the speculative index bits
 * survive address translation unchanged?* A positive output means
 * speculate (fast access attempt); a negative output means bypass
 * speculation and wait for the TLB.
 *
 * Storage matches the paper's estimate: 64 perceptrons x 13 weights
 * x 6 bits = 624 B.
 */

#ifndef SIPT_PREDICTOR_PERCEPTRON_HH
#define SIPT_PREDICTOR_PERCEPTRON_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace sipt::trace
{
class Tracer;
} // namespace sipt::trace

namespace sipt::predictor
{

/** Perceptron table configuration. */
struct PerceptronParams
{
    /** Number of perceptrons (PC-indexed, power of two). */
    std::uint32_t entries = 64;
    /** Global history length h (weights per entry = h + 1). */
    std::uint32_t history = 12;
    /** Weight width in bits (6 -> clamp to [-32, 31]). */
    std::uint32_t weightBits = 6;
    /**
     * Training threshold theta. Jimenez & Lin's best value is
     * floor(1.93 h + 14); <0 selects that formula.
     */
    int threshold = -1;
};

/**
 * Global-history perceptron predictor for the speculate/bypass
 * decision.
 */
class PerceptronBypassPredictor
{
  public:
    explicit PerceptronBypassPredictor(
        const PerceptronParams &params = PerceptronParams{});

    /**
     * Predict and train for one access whose outcome is already
     * known (the pipeline resolves the address before it
     * predicts): the prediction uses the history as it stood
     * before this access, then the outcome trains the entry and
     * joins the history.
     *
     * @param pc the memory instruction's program counter
     * @param unchanged true when the speculative bits were in fact
     *        unchanged by translation
     * @return the prediction (true = speculate, i.e. predict the
     *         index bits unchanged)
     */
    bool
    resolve(Addr pc, bool unchanged)
    {
        const int y = output(pc);
        train(pc, unchanged, y);
        return y >= 0;
    }

    /** Storage cost in bytes (for the overhead claims). */
    std::uint64_t storageBytes() const;

    const PerceptronParams &params() const { return params_; }

  private:
    using Weight = std::int16_t;

    std::uint32_t indexOf(Addr pc) const;

    /** The raw perceptron output for @p pc under the current
     *  history (>= 0 means speculate). */
    int output(Addr pc) const;

    /** Train @p pc's entry with the resolved outcome, given the
     *  output @p y its prediction used, and shift the outcome into
     *  the history. Defined inline below: this is every policy's
     *  per-access training step and the batched decide stage
     *  inlines it. */
    void train(Addr pc, bool unchanged, int y);

    /** Out-of-line tracer emission for train() (keeps the inlined
     *  training step free of event-formatting code). */
    void traceResolve(Addr pc, bool unchanged, int y);

    PerceptronParams params_;
    int threshold_;
    Weight weightMax_;
    Weight weightMin_;
    /** weights[entry * (h+1) + i]; i = 0 is the bias. */
    std::vector<Weight> weights_;
    /**
     * Global outcome history packed as a bitmask: bit i set means
     * outcome i accesses ago was +1 (bits unchanged), clear means
     * -1. Newest outcome in bit 0; shifting the register is one
     * instruction instead of a byte-array rotate.
     */
    std::uint64_t historyBits_ = 0;
    /** Tracing hook (nullptr unless SIPT_TRACE is set): train()
     *  emits one decision event per resolved access, whether an L1
     *  or a bare predictor loop (the predictor ablation) calls it. */
    trace::Tracer *trace_ = nullptr;
    std::uint64_t traceLane_ = 0;
    std::uint64_t resolves_ = 0;
};

inline std::uint32_t
PerceptronBypassPredictor::indexOf(Addr pc) const
{
    // Memory instructions are word-aligned-ish; drop low bits.
    return static_cast<std::uint32_t>(pc >> 2) &
           (params_.entries - 1);
}

inline int
PerceptronBypassPredictor::output(Addr pc) const
{
    const std::size_t base =
        static_cast<std::size_t>(indexOf(pc)) *
        (params_.history + 1);
    int y = weights_[base]; // bias w0
    for (std::uint32_t i = 0; i < params_.history; ++i) {
        const int w = weights_[base + 1 + i];
        y += ((historyBits_ >> i) & 1u) ? w : -w;
    }
    return y;
}

inline void
PerceptronBypassPredictor::train(Addr pc, bool unchanged, int y)
{
    const int t = unchanged ? 1 : -1;
    const bool mispredicted = (y >= 0) != unchanged;

    if (trace_)
        traceResolve(pc, unchanged, y);

    if (mispredicted || (y < 0 ? -y : y) <= threshold_) {
        const std::size_t base =
            static_cast<std::size_t>(indexOf(pc)) *
            (params_.history + 1);
        auto adjust = [&](Weight &w, int delta) {
            const int next = w + delta;
            if (next > weightMax_)
                w = weightMax_;
            else if (next < weightMin_)
                w = weightMin_;
            else
                w = static_cast<Weight>(next);
        };
        adjust(weights_[base], t);
        for (std::uint32_t i = 0; i < params_.history; ++i) {
            adjust(weights_[base + 1 + i],
                   ((historyBits_ >> i) & 1u) ? t : -t);
        }
    }

    // Shift the outcome into the global history (newest first).
    historyBits_ = (historyBits_ << 1) | (unchanged ? 1u : 0u);
}

} // namespace sipt::predictor

#endif // SIPT_PREDICTOR_PERCEPTRON_HH
