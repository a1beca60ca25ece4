/**
 * @file
 * Configuration of the differential golden-model checker.
 *
 * Checking is off by default. The simulation layer arms it per run
 * from `SystemConfig::check` (whose default reads `SIPT_CHECK`) and
 * hands these options down to every checking layer; no layer below
 * it reads the environment. Tests build them directly.
 */

#ifndef SIPT_CHECK_OPTIONS_HH
#define SIPT_CHECK_OPTIONS_HH

#include <cstdint>

namespace sipt::check
{

/**
 * Deliberate corruptions used to prove the harness *would* catch a
 * broken cache. The golden-model ones perturb the reference model,
 * which is detection-equivalent to perturbing the real controller
 * (the divergence is symmetric) and keeps product code unmodified.
 */
enum class Mutation : std::uint8_t
{
    None,
    /** Hits decided by set membership only, as if the physical
     *  tag comparison were removed. */
    DropTagCheck,
    /** Stores no longer mark the golden line dirty. */
    DropDirty,
    /** The golden model never expects a writeback. */
    DropWriteback,
    /** The pipeline corrupts the SIPT-naive L1's probe address
     *  (batch::MachineStages). */
    CorruptProbe,
};

/** Printable mutation name. */
const char *mutationName(Mutation mutation);

/** Parse a `SIPT_CHECK_MUTATE` value (tag, dirty, writeback,
 *  probe); unknown strings are a fatal config error. */
Mutation mutationFromString(const char *name);

/** Checker switches of one run. */
struct Options
{
    /** Master switch. */
    bool enabled = false;
    /** panic() on the first divergence instead of recording it;
     *  what CI sanitizer jobs want. */
    bool abortOnDivergence = false;
    /** Harness self-test corruption. */
    Mutation mutation = Mutation::None;

    /** Options armed when @p enabled, with the process-wide
     *  SIPT_CHECK_ABORT (0 or 1; any other value warns and reads
     *  as 0) and SIPT_CHECK_MUTATE. */
    static Options fromEnv(bool enabled);
};

} // namespace sipt::check

#endif // SIPT_CHECK_OPTIONS_HH
