#include "os/buddy_allocator.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::os
{

void
BuddyAllocator::pushFree(unsigned order, Pfn base)
{
    std::vector<Pfn> &list = freeLists_[order];
    SIPT_ASSERT(slot_[base] == 0, "double free of block ", base);
    slot_[base] = static_cast<std::uint32_t>(
        (list.size() << orderBits) | (order + 1));
    list.push_back(base);
}

bool
BuddyAllocator::eraseFree(unsigned order, Pfn base)
{
    const std::uint32_t slot = slot_[base];
    if ((slot & mask(orderBits)) != order + 1)
        return false;
    std::vector<Pfn> &list = freeLists_[order];
    const std::size_t idx = slot >> orderBits;
    slot_[base] = 0;
    const Pfn last = list.back();
    list.pop_back();
    if (idx < list.size()) {
        list[idx] = last;
        slot_[last] = static_cast<std::uint32_t>(
            (idx << orderBits) | (order + 1));
    }
    return true;
}

Pfn
BuddyAllocator::popBack(unsigned order)
{
    std::vector<Pfn> &list = freeLists_[order];
    SIPT_ASSERT(!list.empty(), "pop from empty free list");
    const Pfn base = list.back();
    list.pop_back();
    slot_[base] = 0;
    return base;
}

BuddyAllocator::BuddyAllocator(std::uint64_t total_frames,
                               unsigned max_order)
    : totalFrames_(total_frames), maxOrder_(max_order),
      freeLists_(max_order + 1)
{
    if (total_frames == 0)
        fatal("BuddyAllocator: zero frames");
    if (max_order > 20)
        fatal("BuddyAllocator: max_order ", max_order, " too large");
    // A slot's position field must hold any list index.
    if (total_frames > (std::uint64_t{1} << (32 - orderBits)))
        fatal("BuddyAllocator: ", total_frames,
              " frames exceed the 2^", 32 - orderBits,
              "-frame limit");
    slot_ = MappedArray<std::uint32_t>::dense(total_frames);

    // Seed the free lists with naturally aligned blocks of the
    // largest possible order, exactly as a fresh zone would look.
    Pfn base = 0;
    std::uint64_t remaining = total_frames;
    while (remaining > 0) {
        unsigned order = maxOrder_;
        while (order > 0 &&
               ((base & mask(order)) != 0 ||
                (std::uint64_t{1} << order) > remaining)) {
            --order;
        }
        pushFree(order, base);
        const std::uint64_t sz = std::uint64_t{1} << order;
        base += sz;
        remaining -= sz;
        freeFrames_ += sz;
    }
}

Pfn
BuddyAllocator::splitTo(Pfn base, unsigned from, unsigned to)
{
    while (from > to) {
        --from;
        pushFree(from, base + (Pfn{1} << from));
    }
    return base;
}

void
BuddyAllocator::freeRange(Pfn lo, Pfn end)
{
    while (lo < end) {
        unsigned fo = 0;
        while (fo < maxOrder_ && (lo & mask(fo + 1)) == 0 &&
               lo + (std::uint64_t{1} << (fo + 1)) <= end) {
            ++fo;
        }
        free(lo, fo);
        lo += std::uint64_t{1} << fo;
    }
}

Pfn
BuddyAllocator::carve(unsigned o, std::size_t idx, Pfn keep,
                      unsigned order)
{
    const Pfn block = freeLists_[o][idx];
    eraseFree(o, block);
    freeFrames_ -= std::uint64_t{1} << o; // free() adds the rest back
    freeRange(block, keep);
    freeRange(keep + (std::uint64_t{1} << order),
              block + (std::uint64_t{1} << o));
    return keep;
}

std::optional<Pfn>
BuddyAllocator::allocate(unsigned order)
{
    if (order > maxOrder_)
        return std::nullopt;

    unsigned o = order;
    while (o <= maxOrder_ && freeLists_[o].empty())
        ++o;
    if (o > maxOrder_)
        return std::nullopt;

    const Pfn base = splitTo(popBack(o), o, order);
    freeFrames_ -= std::uint64_t{1} << order;
    return base;
}

MappedArray<Pfn>
BuddyAllocator::allocateAll()
{
    // allocate(0) pops the lowest non-empty list's back block and
    // pushes its upper halves onto the (empty) lower lists, so the
    // next calls return that block's frames in ascending order
    // before the list's next block is popped.
    auto out = MappedArray<Pfn>::dense(freeFrames_);
    Pfn *next = out.data();
    for (unsigned o = 0; o <= maxOrder_; ++o) {
        std::vector<Pfn> &list = freeLists_[o];
        for (auto it = list.rbegin(); it != list.rend(); ++it) {
            slot_[*it] = 0;
            const Pfn end = *it + (Pfn{1} << o);
            for (Pfn pfn = *it; pfn < end; ++pfn)
                *next++ = pfn;
        }
        list.clear();
    }
    freeFrames_ = 0;
    return out;
}

std::optional<Pfn>
BuddyAllocator::allocateRandom(unsigned order, Rng &rng)
{
    if (order > maxOrder_)
        return std::nullopt;

    // Pick a random free block among all blocks of order >= order,
    // weighting every block equally (which is enough to destroy
    // contiguity between consecutive faults).
    std::uint64_t candidates = 0;
    for (unsigned o = order; o <= maxOrder_; ++o)
        candidates += freeLists_[o].size();
    if (candidates == 0)
        return std::nullopt;

    std::uint64_t pick = rng.below(candidates);
    unsigned o = order;
    while (pick >= freeLists_[o].size()) {
        pick -= freeLists_[o].size();
        ++o;
    }
    // Retain a random aligned sub-block instead of always the
    // lowest so even splits of big blocks are scattered.
    const auto idx = static_cast<std::size_t>(pick);
    const std::uint64_t sub = rng.below(std::uint64_t{1} << (o - order));
    return carve(o, idx, freeLists_[o][idx] + (sub << order), order);
}

std::optional<Pfn>
BuddyAllocator::allocateColored(unsigned order, Vpn vpn,
                                unsigned color_bits)
{
    if (color_bits == 0 ||
        order >= color_bits) {
        // Alignment already guarantees the color (or no coloring).
        return allocate(order);
    }
    if (order > maxOrder_)
        return std::nullopt;

    const std::uint64_t color = vpn & mask(color_bits);

    // Any block of order >= color_bits contains every color;
    // smaller blocks must match exactly.
    for (unsigned o = order; o <= maxOrder_; ++o) {
        for (std::size_t i = 0; i < freeLists_[o].size(); ++i) {
            const Pfn base = freeLists_[o][i];
            Pfn cand;
            if (o >= color_bits) {
                cand = base | (color & ~mask(order));
            } else {
                if ((base & mask(color_bits) & ~mask(order)) !=
                    (color & ~mask(order))) {
                    continue;
                }
                cand = base;
            }
            return carve(o, i, cand, order);
        }
    }
    return std::nullopt;
}

void
BuddyAllocator::free(Pfn base, unsigned order)
{
    SIPT_ASSERT(order <= maxOrder_, "free order out of range");
    SIPT_ASSERT((base & mask(order)) == 0,
                "free of unaligned block");
    SIPT_ASSERT(base + (std::uint64_t{1} << order) <= totalFrames_,
                "free beyond memory end");
    // pushFree() alone misses a base that is free at another order
    // when coalescing moves the pushed base below it.
    SIPT_ASSERT(slot_[base] == 0, "double free of block ", base);

    freeFrames_ += std::uint64_t{1} << order;
    while (order < maxOrder_) {
        const Pfn buddy = buddyOf(base, order);
        if (buddy + (std::uint64_t{1} << order) > totalFrames_)
            break;
        if (!eraseFree(order, buddy))
            break;
        base &= ~(Pfn{1} << order);
        ++order;
    }
    pushFree(order, base);
}

bool
BuddyAllocator::canAllocate(unsigned order) const
{
    if (order > maxOrder_)
        return false;
    for (unsigned o = order; o <= maxOrder_; ++o) {
        if (!freeLists_[o].empty())
            return true;
    }
    return false;
}

std::uint64_t
BuddyAllocator::freeBlocks(unsigned order) const
{
    SIPT_ASSERT(order <= maxOrder_, "order out of range");
    return freeLists_[order].size();
}

int
BuddyAllocator::largestFreeOrder() const
{
    for (int o = static_cast<int>(maxOrder_); o >= 0; --o) {
        if (!freeLists_[static_cast<unsigned>(o)].empty())
            return o;
    }
    return -1;
}

double
BuddyAllocator::unusableFreeSpaceIndex(unsigned j) const
{
    if (freeFrames_ == 0)
        return 0.0;
    std::uint64_t usable = 0;
    for (unsigned i = j; i <= maxOrder_; ++i)
        usable += (std::uint64_t{1} << i) * freeLists_[i].size();
    return static_cast<double>(freeFrames_ - usable) /
           static_cast<double>(freeFrames_);
}

} // namespace sipt::os
