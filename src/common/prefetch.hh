/**
 * @file
 * Host-side software-prefetch hints for the access pipeline.
 *
 * The batch pipeline knows the virtual and physical addresses of
 * the next few hundred references before it accounts the current
 * one, so it can ask the host CPU to start pulling the simulator's
 * own data structures (page-map slots, cache tag sets) into cache a
 * few references ahead. Prefetches carry no architectural effect:
 * simulated state transitions, counters, and results are identical
 * with the hints compiled out.
 */

#ifndef SIPT_COMMON_PREFETCH_HH
#define SIPT_COMMON_PREFETCH_HH

#include <cstddef>

namespace sipt
{

/** Hint that @p p will be read soon (low temporal locality). */
inline void
prefetchRead(const void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 0, 1);
#else
    (void)p;
#endif
}

/** Hint that @p p will be read and written soon. */
inline void
prefetchWrite(const void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 1, 1);
#else
    (void)p;
#endif
}

/** Prefetch @p bytes starting at @p p for read-modify-write, one
 *  hint per 64-byte host line. */
inline void
prefetchWriteRange(const void *p, std::size_t bytes)
{
    const char *c = static_cast<const char *>(p);
    for (std::size_t off = 0; off < bytes; off += 64)
        prefetchWrite(c + off);
}

} // namespace sipt

#endif // SIPT_COMMON_PREFETCH_HH
