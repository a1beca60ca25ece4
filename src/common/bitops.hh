/**
 * @file
 * Bit-manipulation helpers used throughout the cache and predictor
 * models. All helpers are constexpr and operate on 64-bit values.
 *
 * The address-arithmetic helpers (pageNumber, blockNumber, ...) are
 * the *only* sanctioned way to shift an address: sipt-analyze's
 * addr-shift pass flags raw `<<`/`>>` on address-typed operands so
 * that every index computation the paper's claims rest on lives
 * here, where it is tested and UBSan-audited once.
 */

#ifndef SIPT_COMMON_BITOPS_HH
#define SIPT_COMMON_BITOPS_HH

#include <bit>
#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"

namespace sipt
{

/** True iff @p v is a power of two (and nonzero). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** floor(log2(v)); @p v must be nonzero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/** ceil(log2(v)); @p v must be nonzero. */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    return isPowerOfTwo(v) ? floorLog2(v) : floorLog2(v) + 1;
}

/**
 * Extract bits [first, last] (inclusive, last >= first) of @p v,
 * right-justified.
 */
constexpr std::uint64_t
bits(std::uint64_t v, unsigned last, unsigned first)
{
    const unsigned nbits = last - first + 1;
    const std::uint64_t mask =
        nbits >= 64 ? ~std::uint64_t{0}
                    : ((std::uint64_t{1} << nbits) - 1);
    return (v >> first) & mask;
}

/** A mask with the low @p n bits set. */
constexpr std::uint64_t
mask(unsigned n)
{
    return n >= 64 ? ~std::uint64_t{0}
                   : ((std::uint64_t{1} << n) - 1);
}

/** Round @p v down to a multiple of the power-of-two @p align. */
constexpr std::uint64_t
alignDown(std::uint64_t v, std::uint64_t align)
{
    return v & ~(align - 1);
}

/** Round @p v up to a multiple of the power-of-two @p align. */
constexpr std::uint64_t
alignUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

/** 4 KiB page number (VPN or PFN) of a byte address. */
constexpr std::uint64_t
pageNumber(Addr addr)
{
    return addr >> pageShift;
}

/** 2 MiB huge-page number of a byte address. */
constexpr std::uint64_t
hugePageNumber(Addr addr)
{
    return addr >> hugePageShift;
}

/** Byte address of the base of 4 KiB page number @p pn. */
constexpr Addr
pageBase(std::uint64_t pn)
{
    return static_cast<Addr>(pn) << pageShift;
}

/** Offset of @p addr within its 4 KiB page. */
constexpr Addr
pageOffset(Addr addr)
{
    return addr & (pageSize - 1);
}

/**
 * Block number of @p addr under 2^@p block_shift-byte blocks
 * (cache lines, DRAM rows, page-table spans). @p block_shift must
 * be < 64.
 */
constexpr std::uint64_t
blockNumber(Addr addr, unsigned block_shift)
{
    return addr >> block_shift;
}

/** Byte address of the base of @p block under
 *  2^@p block_shift-byte blocks. */
constexpr Addr
blockBase(std::uint64_t block, unsigned block_shift)
{
    return static_cast<Addr>(block) << block_shift;
}

} // namespace sipt

#endif // SIPT_COMMON_BITOPS_HH
