#include "vm/page_table.hh"

#include <algorithm>
#include <cstring>
#include <ios>

#include "common/logging.hh"

namespace sipt::vm
{

namespace
{

/**
 * Grow @p slots, which cover indices [@p base, base + size), in
 * place so that they cover @p index, and return its slot. Growing
 * down at least doubles the span, so first touches in random order
 * lower the base only O(log n) times. A span wider than @p cap
 * slots (each covering 2^@p slot_shift bytes of VA) is fatal.
 */
template <typename T>
T &
coverSlot(MappedArray<T> &slots, Vpn &base, Vpn index,
          std::uint64_t cap, unsigned slot_shift, Addr vaddr)
{
    if (slots.empty()) {
        base = index;
        slots.resize(1);
        return slots[0];
    }
    if (index - base < slots.size())
        return slots[index - base];
    const Vpn lo = std::min(base, index);
    const Vpn hi = std::max<Vpn>(base + slots.size(), index + 1);
    if (hi - lo > cap) {
        fatal("PageTable: mapping va 0x", std::hex, vaddr,
              " widens the mapped span to [0x", lo << slot_shift,
              ", 0x", hi << slot_shift, "), ", std::dec,
              (hi - lo) << (slot_shift - pageShift),
              " pages, beyond the ", PageTable::maxSpanPages,
              "-page cap");
    }
    if (index > base) {
        slots.resize(hi - base);
    } else {
        const std::uint64_t grow = std::min<std::uint64_t>(
            {std::max<std::uint64_t>(base - index, slots.size()),
             base, cap - slots.size()});
        const std::size_t old = slots.size();
        slots.resize(old + grow);
        std::memmove(slots.data() + grow, slots.data(), old * sizeof(T));
        std::memset(slots.data(), 0, grow * sizeof(T));
        base -= grow;
    }
    return slots[index - base];
}

} // namespace

PageTable::Chunk &
PageTable::chunkSlot(Addr vaddr)
{
    return coverSlot(chunks_, chunkBase_, hugePageNumber(vaddr),
                     maxSpanPages / pagesPerHugePage, hugePageShift,
                     vaddr);
}

void
PageTable::mapPage(Addr vaddr, Pfn pfn)
{
    Chunk &chunk = chunkSlot(vaddr);
    SIPT_ASSERT(chunk.hugeFrame == 0,
                "4K map inside huge mapping, va=", vaddr);
    Addr &frame = coverSlot(smallFrame_, smallBase_,
                            pageNumber(vaddr), maxSpanPages,
                            pageShift, vaddr);
    SIPT_ASSERT(frame == 0, "re-map of mapped page, va=", vaddr);
    frame = pageBase(pfn) | present;
    ++chunk.smallPages;
    ++smallPages_;
}

void
PageTable::mapHugePage(Addr vaddr, Pfn base_pfn)
{
    SIPT_ASSERT((base_pfn & mask(hugePageShift - pageShift)) == 0,
                "huge frame not aligned, pfn=", base_pfn);
    Chunk &chunk = chunkSlot(vaddr);
    SIPT_ASSERT(chunk.smallPages == 0,
                "huge map over 4K mappings, va=", vaddr);
    SIPT_ASSERT(chunk.hugeFrame == 0, "re-map of huge page, va=",
                vaddr);
    chunk.hugeFrame = pageBase(base_pfn) | present;
    ++hugePages_;
}

void
PageTable::unmapPage(Addr vaddr)
{
    const Addr *frame = frameAt(vaddr);
    if (frame == nullptr || *frame == 0)
        return;
    smallFrame_[pageNumber(vaddr) - smallBase_] = 0;
    --smallPages_;
    --chunkSlot(vaddr).smallPages;
}

void
PageTable::unmapHugePage(Addr vaddr)
{
    if (isHugeMapped(vaddr)) {
        chunkSlot(vaddr).hugeFrame = 0;
        --hugePages_;
    }
}

} // namespace sipt::vm
