/**
 * @file
 * Configuration of the differential golden-model checker.
 *
 * Checking is off by default and enabled per process with
 * `SIPT_CHECK=1`; the knobs below exist so the fuzzer and the unit
 * tests can also enable (and deliberately sabotage) the checker
 * programmatically, without mutable global state.
 */

#ifndef SIPT_CHECK_OPTIONS_HH
#define SIPT_CHECK_OPTIONS_HH

#include <cstdint>

namespace sipt::check
{

/**
 * Deliberate golden-model corruptions used to prove the harness
 * *would* catch a broken cache. Perturbing the reference model is
 * detection-equivalent to perturbing the real controller (the
 * divergence is symmetric) and keeps product code unmodified.
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
};

/** Printable mutation name. */
const char *mutationName(Mutation mutation);

/** Parse a `SIPT_CHECK_MUTATE` value ("tag", "dirty",
 *  "writeback"); unknown strings are a fatal config error. */
Mutation mutationFromString(const char *name);

/** Checker switches, normally environment-derived. */
struct Options
{
    /** Master switch (SIPT_CHECK=1). */
    bool enabled = false;
    /** panic() on the first divergence instead of recording it
     *  (SIPT_CHECK_ABORT=1); what CI sanitizer jobs want. */
    bool abortOnDivergence = false;
    /** Keep the full functional event log in memory so a repro
     *  run can print the first differing event
     *  (SIPT_CHECK_RECORD=1). */
    bool recordEvents = false;
    /** Harness self-test corruption (SIPT_CHECK_MUTATE=...). */
    Mutation mutation = Mutation::None;

    /** Read the SIPT_CHECK* environment variables. The three
     *  switches accept only 0 or 1; any other value warns and
     *  reads as 0. */
    static Options fromEnv();
};

} // namespace sipt::check

#endif // SIPT_CHECK_OPTIONS_HH
