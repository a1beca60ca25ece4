/**
 * @file
 * Hashing helpers shared by the sweep engine's run cache and any
 * structure that needs a stable content hash.
 *
 * fnv1a64() is a *stable* 64-bit FNV-1a over bytes: unlike
 * std::hash it is guaranteed identical across processes and library
 * versions, so it is safe to use in on-disk cache file names.
 */

#ifndef SIPT_COMMON_HASH_HH
#define SIPT_COMMON_HASH_HH

#include <cstdint>
#include <string_view>

namespace sipt
{

/** FNV-1a offset basis: the running-hash seed (and the hash of
 *  the empty string). */
constexpr std::uint64_t fnv1a64Init = 0xcbf29ce484222325ull;

/** Mix one byte into a running fnv1a64 hash. Streaming callers
 *  (the trace format, file hashing) fold byte-by-byte and get the
 *  same value fnv1a64() produces over the whole string. */
constexpr std::uint64_t
fnv1a64Step(std::uint64_t h, std::uint8_t byte)
{
    return (h ^ byte) * 0x100000001b3ull;
}

/** Stable 64-bit FNV-1a over a byte string. */
constexpr std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t h = fnv1a64Init;
    for (const char c : bytes)
        h = fnv1a64Step(h, static_cast<std::uint8_t>(c));
    return h;
}

} // namespace sipt

#endif // SIPT_COMMON_HASH_HH
