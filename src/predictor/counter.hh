/**
 * @file
 * A PC-indexed saturating-counter bypass predictor.
 *
 * The SIPT paper evaluated counter-based predictors as the simple
 * alternative to the perceptron and found them inferior (~85%
 * accuracy, inconsistent across applications, Section V). This
 * implementation exists to reproduce that ablation
 * (bench/ablation_predictors).
 */

#ifndef SIPT_PREDICTOR_COUNTER_HH
#define SIPT_PREDICTOR_COUNTER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace sipt::predictor
{

/** Counter predictor configuration. */
struct CounterParams
{
    /** Table entries (power of two). */
    std::uint32_t entries = 64;
    /** Counter width in bits (2 = classic bimodal). */
    std::uint32_t counterBits = 2;
};

/**
 * Bimodal speculate/bypass predictor: counts up on "unchanged",
 * down on "changed"; speculates when the counter is in the upper
 * half. Counters start weakly speculating.
 */
class CounterBypassPredictor
{
  public:
    explicit CounterBypassPredictor(
        const CounterParams &params = CounterParams{});

    /**
     * Predict, then train with the resolved outcome.
     * @param unchanged true when the speculative bits were in fact
     *        unchanged by translation
     * @return the prediction (true = speculate)
     */
    bool resolve(Addr pc, bool unchanged);

    const CounterParams &params() const { return params_; }

  private:
    std::uint32_t indexOf(Addr pc) const;

    CounterParams params_;
    std::uint32_t maxValue_;
    std::uint32_t threshold_;
    std::vector<std::uint32_t> counters_;
};

} // namespace sipt::predictor

#endif // SIPT_PREDICTOR_COUNTER_HH
