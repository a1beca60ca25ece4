/**
 * @file
 * A Linux-style binary buddy allocator over physical page frames.
 *
 * Free frames are grouped into blocks of 2^order pages
 * (order 0..maxOrder, default 10 like Linux) and kept on per-order
 * free lists. Allocation splits the smallest sufficient block;
 * freeing coalesces with the buddy when possible.
 *
 * The allocator is the substrate that generates the VA->PA
 * contiguity the SIPT paper's predictors rely on (Section VI of the
 * paper): bursts of page faults are served from one split block, so
 * consecutive virtual pages receive consecutive physical frames.
 *
 * Free lists are LIFO (most-recently-freed block is reused first),
 * which mirrors the cache-warm reuse preference of real allocators
 * and reproduces the sequential-PFN behaviour of burst demand
 * faults. A random-selection mode supports the paper's Fig. 18
 * "no >4KiB contiguity" sensitivity study.
 */

#ifndef SIPT_OS_BUDDY_ALLOCATOR_HH
#define SIPT_OS_BUDDY_ALLOCATOR_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/mapped_array.hh"
#include "common/prefetch.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace sipt::os
{

/**
 * Binary buddy allocator over a contiguous range of physical frames.
 */
class BuddyAllocator
{
  public:
    /** Default maximum block order (1024 pages = 4 MiB), as Linux. */
    static constexpr unsigned defaultMaxOrder = 10;

    /**
     * Create an allocator over @p total_frames frames, all free.
     *
     * @param total_frames number of 4 KiB frames managed
     * @param max_order largest block order kept on free lists
     */
    explicit BuddyAllocator(std::uint64_t total_frames,
                            unsigned max_order = defaultMaxOrder);

    /**
     * Allocate a block of 2^order frames, naturally aligned.
     *
     * @return base PFN of the block, or nullopt if no block of the
     *         requested or larger order is free.
     */
    std::optional<Pfn> allocate(unsigned order);

    /**
     * Allocate every free frame as a single page and return them
     * in exactly the order repeated allocate(0) calls would: each
     * order's list from the back, lowest order first, and each
     * block's frames in ascending order. Leaves every free list
     * empty and every slot zero, as that loop would, in one pass
     * over the lists instead of a split per frame. The list is a
     * dense MappedArray: this writes it whole.
     */
    MappedArray<Pfn> allocateAll();

    /**
     * Allocate like allocate(), but pick a uniformly random free
     * block (splitting a random larger block when necessary). Used
     * to model fully scattered placement.
     */
    std::optional<Pfn> allocateRandom(unsigned order, Rng &rng);

    /**
     * Allocate a block of 2^order frames whose base PFN is congruent
     * to @p vpn modulo 2^color_bits (page-coloring allocation).
     *
     * @return a matching block, or nullopt when none exists (the
     *         caller may then fall back to plain allocate()).
     */
    std::optional<Pfn> allocateColored(unsigned order, Vpn vpn,
                                       unsigned color_bits);

    /**
     * Return a block of 2^order frames starting at @p base to the
     * free lists, coalescing with free buddies.
     *
     * @pre the block is currently allocated; direct double frees
     *      are detected and panic.
     */
    void free(Pfn base, unsigned order);

    /** Host-prefetch what a free(@p base, 0) touches first (the
     *  slots of @p base and its buddy); no simulated effect. */
    void prefetchFree(Pfn base) const { prefetchWrite(&slot_[base]); }

    /** True iff an allocate(order) would currently succeed. */
    bool canAllocate(unsigned order) const;

    /** Number of free frames (pages). */
    std::uint64_t freeFrames() const { return freeFrames_; }

    /** Total frames managed. */
    std::uint64_t totalFrames() const { return totalFrames_; }

    /** @p order's free list, in list order (allocate() pops the
     *  back). */
    std::span<const Pfn>
    freeList(unsigned order) const
    {
        return freeLists_[order];
    }

    /** Number of free blocks of exactly @p order. */
    std::uint64_t freeBlocks(unsigned order) const;

    /** Largest order with at least one free block; -1 if none. */
    int largestFreeOrder() const;

    /**
     * Gorman & Whitcroft's unusable free space index Fu(j): the
     * fraction of free memory that cannot satisfy an allocation of
     * order @p j. 0 = perfectly usable, 1 = no block of order >= j.
     */
    double unusableFreeSpaceIndex(unsigned j) const;

    unsigned maxOrder() const { return maxOrder_; }

  private:
    /**
     * Free-block slot encoding: the low orderBits hold order + 1,
     * the rest the block's position in freeLists_[order]; 0 means
     * "not the base of a free block".
     */
    static constexpr unsigned orderBits = 5;

    /** Append @p base to @p order's free list. Panics with "double
     *  free" when @p base already starts a free block. */
    void pushFree(unsigned order, Pfn base);
    /** Remove @p base from @p order's free list (swapping the last
     *  block into its place); false when it is not listed there. */
    bool eraseFree(unsigned order, Pfn base);
    /** Remove and return the last block of @p order's list. */
    Pfn popBack(unsigned order);

    /** Buddy of block @p base at @p order. */
    static Pfn
    buddyOf(Pfn base, unsigned order)
    {
        return base ^ (Pfn{1} << order);
    }

    /** Split @p base (a block of @p from) down to @p to, freeing the
     *  upper halves; returns the retained base. */
    Pfn splitTo(Pfn base, unsigned from, unsigned to);

    /** Free [@p lo, @p end) as maximal aligned blocks, lowest
     *  first. */
    void freeRange(Pfn lo, Pfn end);

    /** Take block @p idx of @p o's list and free all of it except
     *  the 2^@p order frames at @p keep; returns @p keep. */
    Pfn carve(unsigned o, std::size_t idx, Pfn keep, unsigned order);

    std::uint64_t totalFrames_;
    unsigned maxOrder_;
    std::uint64_t freeFrames_ = 0;
    /** Free block bases per order; LIFO at the back. */
    std::vector<std::vector<Pfn>> freeLists_;
    /** Per frame: the free-block slot (see orderBits), so lookups
     *  by base are O(1) for every order at 4 B/frame. Dense: the
     *  constructor writes one slot per 4 KiB of it. */
    MappedArray<std::uint32_t> slot_;
};

} // namespace sipt::os

#endif // SIPT_OS_BUDDY_ALLOCATOR_HH
