/**
 * @file
 * Seeded byte mutants for the input-boundary tests: every parser
 * of untrusted bytes must reject a mutant or decode it to exactly
 * what the original meant, never abort.
 */

#ifndef SIPT_TESTS_MUTANTS_HH
#define SIPT_TESTS_MUTANTS_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/rng.hh"

namespace sipt::testfix
{

/** Mutant @p index of the seeded campaign: one to four byte edits
 *  (overwrite, bit flip, insert, delete) at random offsets, each
 *  mutant reproducible from (seed, index) alone. */
inline std::string
mutantAt(const std::string &bytes, std::uint64_t seed,
         std::uint64_t index)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + index);
    std::string m = bytes;
    const std::uint64_t edits = rng.range(1, 4);
    for (std::uint64_t e = 0; e < edits && !m.empty(); ++e) {
        const std::size_t at = rng.below(m.size());
        const char byte = static_cast<char>(rng.below(256));
        switch (rng.below(4)) {
        case 0:
            m[at] = byte;
            break;
        case 1:
            m[at] = static_cast<char>(m[at] ^ (1u << rng.below(8)));
            break;
        case 2:
            m.insert(m.begin() + static_cast<std::ptrdiff_t>(at),
                     byte);
            break;
        default:
            m.erase(at, 1);
            break;
        }
    }
    return m;
}

} // namespace sipt::testfix

#endif // SIPT_TESTS_MUTANTS_HH
