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
 * as pure functions, for command-line flags that must reject bad
 * input outright.
 *
 * Call sites must pass the variable name as a string literal
 * ("SIPT_FOO"): tools/sipt-analyze's env-registry pass matches the
 * literal against tools/env_registry.json (envU64/envDouble are
 * registered reader functions).
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

/** Floating-point counterpart of envU64(). */
double envDouble(const char *name, double fallback, double min,
                 double max);

} // namespace sipt

#endif // SIPT_COMMON_ENV_HH
