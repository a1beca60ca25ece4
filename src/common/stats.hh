/**
 * @file
 * The means the figures summarise with: harmonic for speedups,
 * arithmetic for energies.
 */

#ifndef SIPT_COMMON_STATS_HH
#define SIPT_COMMON_STATS_HH

#include <vector>

namespace sipt
{

/** Harmonic mean of @p values; 0 if empty or any value is <= 0. */
double harmonicMean(const std::vector<double> &values);

/** Arithmetic mean of @p values; 0 if empty. */
double arithmeticMean(const std::vector<double> &values);

} // namespace sipt

#endif // SIPT_COMMON_STATS_HH
