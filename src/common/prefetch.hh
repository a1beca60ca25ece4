/**
 * @file
 * The host-side software-prefetch hint of memory conditioning.
 *
 * The fragmenter's shuffle and the buddy allocator's frees know
 * which slots they will touch a few steps ahead, so they ask the
 * host CPU to start pulling them into cache. Prefetches carry no
 * architectural effect: simulated state transitions, counters, and
 * results are identical with the hint compiled out.
 */

#ifndef SIPT_COMMON_PREFETCH_HH
#define SIPT_COMMON_PREFETCH_HH

namespace sipt
{

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

} // namespace sipt

#endif // SIPT_COMMON_PREFETCH_HH
