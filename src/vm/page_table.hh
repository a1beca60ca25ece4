/**
 * @file
 * A per-process page table mapping virtual pages to physical frames
 * at 4 KiB and 2 MiB granularity.
 *
 * The table is the authoritative VA->PA mapping; the TLB caches its
 * entries, the MMU walks it on TLB misses, and the batch pipeline's
 * resolve stage reads it directly.
 *
 * Layout: two dense arrays, no hashing. One slot per 4 KiB VPN over
 * the span of small mappings; one per 2 MiB chunk (huge frame and
 * small-mapping count) over the span of chunks holding any mapping.
 * A span beyond maxSpanPages pages (64 GiB of VA) is fatal: mmap()
 * hands out VAs from one ascending cursor, so only trace files can
 * get there, and the trace reader rejects those.
 */

#ifndef SIPT_VM_PAGE_TABLE_HH
#define SIPT_VM_PAGE_TABLE_HH

#include <cstdint>
#include <optional>

#include "common/bitops.hh"
#include "common/mapped_array.hh"
#include "common/types.hh"

namespace sipt::vm
{

/** Result of a successful translation. */
struct Translation
{
    /** Full physical byte address. */
    Addr paddr = 0;
    /** True when the mapping is a 2 MiB transparent huge page. */
    bool hugePage = false;
};

/** Two-level (by page size) dense page table. */
class PageTable
{
  public:
    /** Largest span either array covers (64 GiB of VA). */
    static constexpr std::uint64_t maxSpanPages = 1ull << 24;

    /**
     * Map the 4 KiB virtual page containing @p vaddr to frame
     * @p pfn. The page must not already be mapped (at either size).
     */
    void mapPage(Addr vaddr, Pfn pfn);

    /**
     * Map the 2 MiB virtual chunk containing @p vaddr to the huge
     * frame whose first 4 KiB frame is @p base_pfn (which must be
     * 512-frame aligned). No 4 KiB mapping may exist inside the
     * chunk.
     */
    void mapHugePage(Addr vaddr, Pfn base_pfn);

    /** Remove the 4 KiB mapping containing @p vaddr, if present. */
    void unmapPage(Addr vaddr);

    /** Remove the 2 MiB mapping containing @p vaddr, if present. */
    void unmapHugePage(Addr vaddr);

    /** Translate @p vaddr, or nullopt when unmapped. Huge mappings
     *  are consulted first. */
    std::optional<Translation>
    translate(Addr vaddr) const
    {
        const Chunk *chunk = chunkAt(vaddr);
        if (chunk != nullptr && chunk->hugeFrame != 0) {
            return Translation{(chunk->hugeFrame ^ present) |
                                   (vaddr & mask(hugePageShift)),
                               true};
        }
        const Addr *frame = frameAt(vaddr);
        if (frame != nullptr && *frame != 0)
            return Translation{(*frame ^ present) | pageOffset(vaddr),
                               false};
        return std::nullopt;
    }

    /** True iff @p vaddr is mapped (at either granularity). */
    bool isMapped(Addr vaddr) const { return translate(vaddr).has_value(); }

    /** True iff @p vaddr lies in a huge-page mapping. */
    bool
    isHugeMapped(Addr vaddr) const
    {
        const Chunk *chunk = chunkAt(vaddr);
        return chunk != nullptr && chunk->hugeFrame != 0;
    }

    /** True iff any 4 KiB page inside the 2 MiB chunk containing
     *  @p vaddr is mapped (blocks THP promotion). */
    bool
    chunkHasSmallMappings(Addr vaddr) const
    {
        const Chunk *chunk = chunkAt(vaddr);
        return chunk != nullptr && chunk->smallPages != 0;
    }

    /** Number of 4 KiB mappings. */
    std::uint64_t smallPageCount() const { return smallPages_; }

    /** Number of 2 MiB mappings. */
    std::uint64_t hugePageCount() const { return hugePages_; }

    /** Drop every mapping. */
    void clear() { *this = PageTable{}; }

  private:
    /** Set in every mapped slot: frames are page aligned, so bit 0
     *  is free, and a zero slot means "unmapped". */
    static constexpr Addr present = 1;

    /** One 2 MiB chunk's slot; all zero when empty. */
    struct Chunk
    {
        /** Huge frame's physical base | present, or 0. */
        Addr hugeFrame;
        /** 4 KiB mappings inside the chunk (blocks THP). */
        std::uint32_t smallPages;
    };

    /** @p vaddr's chunk / 4 KiB slot, or nullptr outside the
     *  span. */
    const Chunk *
    chunkAt(Addr vaddr) const
    {
        const Vpn i = hugePageNumber(vaddr) - chunkBase_;
        return i < chunks_.size() ? &chunks_[i] : nullptr;
    }
    const Addr *
    frameAt(Addr vaddr) const
    {
        const Vpn i = pageNumber(vaddr) - smallBase_;
        return i < smallFrame_.size() ? &smallFrame_[i] : nullptr;
    }

    /** @p vaddr's chunk slot, growing the chunk span to cover it. */
    Chunk &chunkSlot(Addr vaddr);

    /** First 4 KiB VPN covered by smallFrame_. */
    Vpn smallBase_ = 0;
    /** Per 4 KiB VPN: the frame's physical base | present, or 0. */
    MappedArray<Addr> smallFrame_;
    /** First chunk number (vaddr >> 21) covered by chunks_. */
    Vpn chunkBase_ = 0;
    MappedArray<Chunk> chunks_;
    std::uint64_t smallPages_ = 0;
    std::uint64_t hugePages_ = 0;
};

} // namespace sipt::vm

#endif // SIPT_VM_PAGE_TABLE_HH
