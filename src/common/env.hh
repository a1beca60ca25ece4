/**
 * @file
 * Strict parsing of numeric SIPT_* environment variables and
 * command-line values.
 *
 * The bare strtoul/strtoull idiom silently accepts trailing
 * garbage ("SIPT_THREADS=8x" -> 8) and clamps out-of-range values
 * to ULONG_MAX, both of which turn a typo into a quietly wrong
 * experiment. These helpers parse the *whole* value, range-check
 * it, and on any problem warn once and fall back to the default —
 * a misconfigured run is loud but never dies or runs with a value
 * the user did not write. parseU64/parseDouble are the same checks
 * as pure functions, and FlagParser applies them to command-line
 * flags, which must reject bad input outright.
 *
 * Call sites must pass the variable name as a string literal
 * ("SIPT_FOO"): tools/sipt-analyze's env-registry pass matches the
 * literal against tools/env_registry.json (envU64 is a registered
 * reader function).
 */

#ifndef SIPT_COMMON_ENV_HH
#define SIPT_COMMON_ENV_HH

#include <cstdint>
#include <optional>

namespace sipt
{

/**
 * Parse all of @p text as a decimal unsigned integer in
 * [@p min, @p max]. Rejects an empty string, trailing garbage,
 * any explicit sign, and out-of-range values.
 *
 * @param why when non-null, receives a short reason on rejection
 * @return the value, or nullopt when rejected
 */
std::optional<std::uint64_t> parseU64(const char *text,
                                      std::uint64_t min,
                                      std::uint64_t max,
                                      const char **why = nullptr);

/** Floating-point counterpart of parseU64() (NaN is rejected by
 *  the range check). */
std::optional<double> parseDouble(const char *text, double min,
                                  double max,
                                  const char **why = nullptr);

/**
 * Strict command-line flag values, shared by every tool. value()
 * returns the argument after the flag at argv[i]; u64() and
 * number() parse it with parseU64()/parseDouble(). Each advances
 * @p i past the value. A missing or rejected value prints
 * "<tool>: <flag> '<value>': <why>" to stderr and exits with the
 * status usage() returns, so "--refs 4e6" or "--workers -1" is a
 * usage error, never a silently truncated or wrapped run.
 */
struct FlagParser
{
    /** Message prefix (the tool's name). */
    const char *tool;
    /** Prints the tool's usage; returns its exit status. */
    int (*usage)();

    const char *value(int argc, char **argv, int &i) const;
    std::uint64_t u64(int argc, char **argv, int &i,
                      std::uint64_t min, std::uint64_t max) const;
    double number(int argc, char **argv, int &i, double min,
                  double max) const;

  private:
    [[noreturn]] void reject(const char *flag, const char *value,
                             const char *why) const;
};

/**
 * Read an unsigned integer environment variable strictly.
 *
 * @param name variable name (string literal, "SIPT_*")
 * @param fallback value when unset or unparseable
 * @param min smallest acceptable value
 * @param max largest acceptable value
 * @return the parsed value, or @p fallback (with a warning) when
 *         the value is empty, has trailing garbage, or is out of
 *         [min, max]
 */
std::uint64_t envU64(const char *name, std::uint64_t fallback,
                     std::uint64_t min, std::uint64_t max);

} // namespace sipt

#endif // SIPT_COMMON_ENV_HH
