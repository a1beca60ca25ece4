#include "predictor/combined.hh"

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/trace.hh"

namespace sipt::predictor
{

namespace
{

IdbParams
withSpecBits(IdbParams params, std::uint32_t spec_bits)
{
    params.specBits = spec_bits;
    return params;
}

} // namespace

const char *
indexSourceName(IndexSource source)
{
    switch (source) {
      case IndexSource::VaBits:
        return "va-bits";
      case IndexSource::Reversed:
        return "reversed";
      case IndexSource::Idb:
        return "idb";
    }
    return "?";
}

CombinedIndexPredictor::CombinedIndexPredictor(
    std::uint32_t spec_bits,
    const PerceptronParams &perceptron_params,
    const IdbParams &idb_params)
    : specBits_(spec_bits), perceptron_(perceptron_params),
      idb_(withSpecBits(idb_params, spec_bits))
{
    if (spec_bits == 0 || spec_bits > 9)
        fatal("CombinedIndexPredictor: specBits must be in 1..9");
    trace_ = trace::Tracer::globalIfEnabled();
    if (trace_)
        traceLane_ = trace_->newLane();
}

IndexPrediction
CombinedIndexPredictor::predict(Addr pc, Vpn vpn)
{
    IndexPrediction pred;
    const auto va_bits =
        static_cast<std::uint32_t>(vpn & mask(specBits_));
    if (perceptron_.predictSpeculate(pc)) {
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
    lastPred_ = pred;
    return pred;
}

void
CombinedIndexPredictor::update(Addr pc, Vpn vpn, Pfn pfn)
{
    const bool unchanged =
        (vpn & mask(specBits_)) == (pfn & mask(specBits_));
    if (trace_) {
        const auto pa_bits =
            static_cast<std::uint32_t>(pfn & mask(specBits_));
        trace::PredictorEvent event;
        event.predictor = "combined-index";
        event.pc = pc;
        event.seq = resolves_++;
        event.decision = indexSourceName(lastPred_.source);
        event.predicted = lastPred_.bits;
        event.actual = pa_bits;
        event.correct = lastPred_.bits == pa_bits;
        trace_->predictor(traceLane_, event);
    }
    perceptron_.train(pc, unchanged);
    idb_.update(pc, vpn, pfn);
}

std::uint64_t
CombinedIndexPredictor::storageBytes() const
{
    return perceptron_.storageBytes() + idb_.storageBytes();
}

} // namespace sipt::predictor
