/**
 * @file
 * Translation *value* predictors for the predictive-translation
 * SIPT policies (PAPERS.md: Revelator, arXiv 2508.02007; PCAX,
 * arXiv 2408.15878).
 *
 * Unlike the perceptron/IDB pair — which predicts whether/how the
 * speculative *index bits* change — these tables predict the full
 * physical frame number and let the caller mask out whatever index
 * bits its geometry needs. Both are deliberately tiny, direct
 * mapped, and tag-checked, mirroring the software-guided tables of
 * the source papers:
 *
 *  - HashedXlatPredictor (Revelator): a VPN-hashed table of
 *    (vpn tag, pfn) pairs. A lookup that misses or tag-mismatches
 *    falls back to the identity translation (predict pfn == vpn),
 *    which is exactly the "speculate with VA bits" default of the
 *    base SIPT policies.
 *  - PcXlatPredictor (PCAX): a PC-indexed table of VPN->PFN frame
 *    deltas, exploiting the same per-instruction stability the IDB
 *    uses, but over the *whole* frame number rather than the index
 *    bits, so it composes with any speculative-bit count.
 *
 * Prediction never affects correctness — the L1 verifies every
 * predicted frame against the real translation and replays on a
 * mismatch — so both predictors are pure timing/energy state.
 */

#ifndef SIPT_PREDICTOR_HASHED_XLAT_HH
#define SIPT_PREDICTOR_HASHED_XLAT_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace sipt::predictor
{

/** HashedXlatPredictor configuration. */
struct HashedXlatParams
{
    /** Table entries (power of two). */
    std::uint32_t entries = 256;
};

/**
 * Revelator-style hashed translation predictor: VPN-hashed,
 * vpn-tagged table of last-seen translations.
 */
class HashedXlatPredictor
{
  public:
    explicit HashedXlatPredictor(const HashedXlatParams &params);

    /**
     * Predicted frame for @p vpn; identity (@p vpn itself) when the
     * entry is empty or tagged with a different page.
     */
    Pfn predictPfn(Vpn vpn) const;

    /** Record the verified translation @p vpn -> @p pfn. */
    void update(Vpn vpn, Pfn pfn);

    /**
     * Fused predict+update for the batched decide loop: returns
     * predictPfn(vpn), then installs the verified translation.
     * State-identical to predictPfn() followed by update().
     */
    Pfn
    resolve(Vpn vpn, Pfn pfn)
    {
        const Pfn predicted = predictPfn(vpn);
        update(vpn, pfn);
        return predicted;
    }

  private:
    struct Entry
    {
        bool valid = false;
        Vpn vpn = 0;
        Pfn pfn = 0;
    };

    std::uint32_t indexOf(Vpn vpn) const;

    std::uint32_t entries_;
    std::vector<Entry> table_;
};

/** PcXlatPredictor configuration. */
struct PcXlatParams
{
    /** Table entries (power of two). */
    std::uint32_t entries = 128;
};

/**
 * PCAX-style PC-indexed translation predictor: per-instruction
 * VPN->PFN frame delta, applied to the current VPN.
 */
class PcXlatPredictor
{
  public:
    explicit PcXlatPredictor(const PcXlatParams &params);

    /**
     * Predicted frame for @p vpn at instruction @p pc; identity
     * when the entry has not been trained yet.
     */
    Pfn predictPfn(Addr pc, Vpn vpn) const;

    /** Record the verified translation @p vpn -> @p pfn at @p pc. */
    void update(Addr pc, Vpn vpn, Pfn pfn);

  private:
    struct Entry
    {
        bool valid = false;
        /** pfn - vpn of the last verified translation at this PC
         *  (frame numbers, so the delta survives any page offset). */
        std::int64_t delta = 0;
    };

    std::uint32_t indexOf(Addr pc) const;

    std::uint32_t entries_;
    std::vector<Entry> table_;
};

} // namespace sipt::predictor

#endif // SIPT_PREDICTOR_HASHED_XLAT_HH
