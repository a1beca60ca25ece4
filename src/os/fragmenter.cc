#include "os/fragmenter.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "common/bitops.hh"
#include "common/prefetch.hh"

namespace sipt::os
{

namespace
{

/** Frames per bitmap word in the run scan. */
constexpr std::uint64_t wordBits = 64;

/**
 * Host-prefetch lookahead of the shuffle and the phase-2 frees, in
 * frames: both touch one random spot of a multi-megabyte array per
 * step, which a loop that learns each address only as it gets
 * there cannot hide.
 */
constexpr std::size_t prefetchDist = 16;

/**
 * Fisher-Yates shuffle of @p frames, drawing rng.below(i) for
 * i = n .. 2 exactly as the plain loop does; the draws run
 * prefetchDist swaps ahead so each swap's random slot is already
 * on its way into the host cache.
 */
void
shuffle(std::span<Pfn> frames, Rng &rng)
{
    const std::size_t n = frames.size();
    std::array<std::size_t, prefetchDist> ahead{};
    const auto draw = [&](std::size_t i) {
        const auto pick = static_cast<std::size_t>(rng.below(i));
        prefetchWrite(&frames[pick]);
        ahead[i % prefetchDist] = pick;
    };
    for (std::size_t i = n; i > 1 && i + prefetchDist > n; --i)
        draw(i);
    for (std::size_t i = n; i > 1; --i) {
        const std::size_t pick = ahead[i % prefetchDist];
        if (i > prefetchDist + 1)
            draw(i - prefetchDist);
        std::swap(frames[i - 1], frames[pick]);
    }
}

} // namespace

MemoryFragmenter::MemoryFragmenter(BuddyAllocator &allocator)
    : allocator_(allocator)
{
}

double
MemoryFragmenter::fragmentTo(double target_fu, unsigned j, Rng &rng,
                             double min_free_fraction)
{
    const std::uint64_t total = allocator_.totalFrames();
    const auto min_free = static_cast<std::uint64_t>(
        min_free_fraction * static_cast<double>(total));

    // Phase 1: grab all free memory as order-0 pages.
    drained_ = allocator_.allocateAll();
    const std::span<Pfn> grabbed(drained_.data(), drained_.size());

    // Phase 2: release a scattered subset (every k-th page of a
    // shuffled order) until the free floor is restored. Released
    // singles have pinned buddies, so they cannot coalesce. The
    // frees keep their order; like the shuffle's draws, they only
    // look prefetchDist frames ahead.
    shuffle(grabbed, rng);
    std::size_t idx = 0;
    while (allocator_.freeFrames() < min_free &&
           idx < grabbed.size()) {
        if (idx + prefetchDist < grabbed.size())
            allocator_.prefetchFree(grabbed[idx + prefetchDist]);
        allocator_.free(grabbed[idx], 0);
        ++idx;
    }

    // Phase 3: if we overshot the target (memory too fragmented is
    // the norm here; Fu typically ~1), release whole aligned 2^j
    // runs of pinned frames, lowest first, to create usable blocks
    // until Fu drops to the target.
    pinned_ = grabbed.subspan(idx);
    if (allocator_.unusableFreeSpaceIndex(j) > target_fu)
        releaseRuns(target_fu, j);
    return allocator_.unusableFreeSpaceIndex(j);
}

void
MemoryFragmenter::releaseRuns(double target_fu, unsigned j)
{
    // A frame bitmap of the pinned set replaces sorting it: runs
    // are found in ascending order with word masks, and pinned_ is
    // re-emitted in place in ascending order, which is the sorted
    // order because PFNs are distinct. Fu only changes when a run is
    // freed, so checking it once per candidate run stops exactly
    // where a per-frame check would.
    std::vector<std::uint64_t> bits(
        (allocator_.totalFrames() + wordBits - 1) / wordBits);
    for (Pfn pfn : pinned_)
        bits[pfn / wordBits] |= std::uint64_t{1} << (pfn % wordBits);

    const std::uint64_t run = std::uint64_t{1} << j;
    // Frees the run at @p base frame by frame, ascending; false
    // (and nothing freed) once Fu has reached the target.
    const auto freeRun = [&](Pfn base) {
        if (allocator_.unusableFreeSpaceIndex(j) <= target_fu)
            return false;
        for (Pfn pfn = base; pfn < base + run; ++pfn)
            allocator_.free(pfn, 0);
        return true;
    };
    if (run < wordBits) {
        // Bit k of starts: frames k .. k + run - 1 all pinned, k
        // a multiple of run.
        const std::uint64_t runMask =
            mask(static_cast<unsigned>(run));
        const std::uint64_t aligned = ~std::uint64_t{0} / runMask;
        bool more = true;
        for (std::size_t w = 0; more && w < bits.size(); ++w) {
            std::uint64_t starts = bits[w];
            for (std::uint64_t s = 1; s < run; s <<= 1)
                starts &= starts >> s;
            starts &= aligned;
            for (; starts != 0; starts &= starts - 1) {
                const auto k = static_cast<unsigned>(
                    std::countr_zero(starts));
                more = freeRun(w * wordBits + k);
                if (!more)
                    break;
                bits[w] &= ~(runMask << k);
            }
        }
    } else {
        const std::uint64_t words = run / wordBits;
        for (std::size_t w = 0; w + words <= bits.size(); w += words) {
            const auto first = bits.begin() + static_cast<long>(w);
            const auto last = first + static_cast<long>(words);
            if (!std::all_of(first, last, [](std::uint64_t b) {
                    return b == ~std::uint64_t{0};
                })) {
                continue;
            }
            if (!freeRun(w * wordBits))
                break;
            std::fill(first, last, 0);
        }
    }

    std::size_t kept = 0;
    for (std::size_t w = 0; w < bits.size(); ++w) {
        for (std::uint64_t b = bits[w]; b != 0; b &= b - 1)
            pinned_[kept++] = w * wordBits +
                              static_cast<unsigned>(
                                  std::countr_zero(b));
    }
    pinned_ = pinned_.first(kept);
}

void
MemoryFragmenter::release()
{
    for (Pfn pfn : pinned_)
        allocator_.free(pfn, 0);
    pinned_ = {};
}

SystemAger::SystemAger(BuddyAllocator &allocator)
    : allocator_(allocator)
{
}

void
SystemAger::age(std::uint64_t churn_ops, double resident_fraction,
                Rng &rng)
{
    const auto target = static_cast<std::uint64_t>(
        resident_fraction *
        static_cast<double>(allocator_.totalFrames()));

    // Phase 1: resident processes. Long-lived memory on a real
    // machine is dominated by large allocations (page cache,
    // mapped files, heaps grown in big steps), so most pinned
    // blocks are high-order; a small tail of scattered singles
    // models long-lived slab/kernel objects.
    const unsigned max_order = allocator_.maxOrder();
    while (residentFrames_ < target) {
        unsigned order;
        const double u = rng.uniform();
        if (u < 0.55) {
            order = max_order;
        } else if (u < 0.78) {
            order = max_order - 1;
        } else if (u < 0.90) {
            order = static_cast<unsigned>(
                rng.range(5, max_order - 2));
        } else {
            order = static_cast<unsigned>(rng.range(0, 4));
        }
        auto base = allocator_.allocateRandom(order, rng);
        if (!base)
            base = allocator_.allocate(order);
        if (!base)
            break;
        resident_.push_back({*base, order});
        residentFrames_ += std::uint64_t{1} << order;
    }

    // Phase 2: light churn of short-lived small allocations that
    // leaves a sprinkling of odd-sized free blocks behind.
    std::vector<Block> transient;
    for (std::uint64_t op = 0; op < churn_ops; ++op) {
        if (transient.empty() || rng.chance(0.55)) {
            const auto order = static_cast<unsigned>(
                rng.range(0, 3));
            if (auto base =
                    allocator_.allocateRandom(order, rng)) {
                transient.push_back({*base, order});
            }
        } else {
            const std::size_t victim =
                rng.below(transient.size());
            const Block blk = transient[victim];
            transient[victim] = transient.back();
            transient.pop_back();
            allocator_.free(blk.base, blk.order);
        }
    }
    // Short-lived memory dies; a small residue stays pinned.
    for (std::size_t i = 0; i < transient.size(); ++i) {
        if (i % 16 == 0) {
            resident_.push_back(transient[i]);
            residentFrames_ += std::uint64_t{1}
                               << transient[i].order;
        } else {
            allocator_.free(transient[i].base,
                            transient[i].order);
        }
    }
}

void
SystemAger::release()
{
    for (const auto &blk : resident_)
        allocator_.free(blk.base, blk.order);
    resident_.clear();
    residentFrames_ = 0;
}

} // namespace sipt::os
