/**
 * @file
 * The combined speculation-bypass + index-bit value predictor of
 * SIPT Section VI-A.
 *
 * Stage 1 queries the perceptron. If it predicts "speculate", the
 * unmodified VA index bits are used. If it predicts "bypass", the
 * access is *still* issued speculatively: with one speculative bit
 * the bypass prediction is simply inverted (flip the bit); with
 * more bits the Index Delta Buffer supplies the predicted value.
 * Either way the combined predictor always accesses the L1 before
 * translation completes.
 */

#ifndef SIPT_PREDICTOR_COMBINED_HH
#define SIPT_PREDICTOR_COMBINED_HH

#include <cstdint>

#include "common/bitops.hh"
#include "common/types.hh"
#include "predictor/idb.hh"
#include "predictor/perceptron.hh"

namespace sipt::predictor
{

/** How the speculative index bits were produced. */
enum class IndexSource : std::uint8_t
{
    /** Perceptron said speculate: raw VA bits. */
    VaBits,
    /** Perceptron said bypass; single bit flipped (reversed). */
    Reversed,
    /** Perceptron said bypass; IDB delta applied. */
    Idb,
};

/** Printable name of an index source. */
const char *indexSourceName(IndexSource source);

/** A combined prediction for one access. */
struct IndexPrediction
{
    /** Predicted value of the speculative index bits. */
    std::uint32_t bits = 0;
    IndexSource source = IndexSource::VaBits;
};

/**
 * Two-stage index-bit predictor (perceptron -> IDB / reversal).
 */
class CombinedIndexPredictor
{
  public:
    /**
     * @param spec_bits number of index bits above the page offset
     * @param perceptron_params stage-1 configuration
     * @param idb_params stage-2 configuration (specBits is
     *        overridden with @p spec_bits)
     */
    CombinedIndexPredictor(
        std::uint32_t spec_bits,
        const PerceptronParams &perceptron_params =
            PerceptronParams{},
        const IdbParams &idb_params = IdbParams{});

    /**
     * Predict the speculative index bits for one access whose
     * translation is already known (the pipeline resolves the
     * address before it predicts), then train: the perceptron
     * learns whether the VA bits survived translation and the IDB
     * refreshes its delta. Defined inline below.
     *
     * @return the prediction made before training
     */
    IndexPrediction resolve(Addr pc, Vpn vpn, Pfn pfn);

    std::uint32_t specBits() const { return specBits_; }

    const PerceptronBypassPredictor &
    perceptron() const
    {
        return perceptron_;
    }

    const IndexDeltaBuffer &idb() const { return idb_; }

    /** Total predictor storage in bytes. */
    std::uint64_t storageBytes() const;

  private:
    /** Out-of-line emission of the combined-index event for one
     *  resolved access (keeps resolve() free of event-formatting
     *  code). */
    void traceResolve(Addr pc, const IndexPrediction &pred,
                      std::uint32_t pa_bits);

    std::uint32_t specBits_;
    PerceptronBypassPredictor perceptron_;
    IndexDeltaBuffer idb_;
    trace::Tracer *trace_ = nullptr;
    std::uint64_t traceLane_ = 0;
    std::uint64_t resolves_ = 0;
};

inline IndexPrediction
CombinedIndexPredictor::resolve(Addr pc, Vpn vpn, Pfn pfn)
{
    const auto va_bits =
        static_cast<std::uint32_t>(vpn & mask(specBits_));
    const auto pa_bits =
        static_cast<std::uint32_t>(pfn & mask(specBits_));
    IndexPrediction pred;
    if (perceptron_.resolve(pc, va_bits == pa_bits)) {
        pred.bits = va_bits;
        pred.source = IndexSource::VaBits;
    } else if (specBits_ == 1) {
        // Reversed prediction: "will change" + one bit means the
        // post-translation bit is the complement (paper, Sec. VI).
        pred.bits = va_bits ^ 1u;
        pred.source = IndexSource::Reversed;
    } else {
        pred.bits = idb_.predictBits(pc, vpn);
        pred.source = IndexSource::Idb;
    }
    if (trace_)
        traceResolve(pc, pred, pa_bits);
    idb_.update(pc, vpn, pfn);
    return pred;
}

} // namespace sipt::predictor

#endif // SIPT_PREDICTOR_COMBINED_HH
