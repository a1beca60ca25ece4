/**
 * @file
 * A process address space with demand paging and transparent huge
 * pages, backed by the buddy allocator.
 *
 * Workload generators mmap() anonymous regions and then simply issue
 * virtual addresses; the first touch of a page triggers a simulated
 * page fault that picks a physical frame. The placement policy
 * (THP on/off, page coloring, random scatter) determines the VA->PA
 * delta structure that SIPT speculates on.
 */

#ifndef SIPT_OS_ADDRESS_SPACE_HH
#define SIPT_OS_ADDRESS_SPACE_HH

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "os/buddy_allocator.hh"
#include "os/shared_segment.hh"
#include "vm/page_table.hh"

namespace sipt::os
{

/** Physical placement policy for demand faults. */
struct PagingPolicy
{
    /** Map eligible 2 MiB chunks with transparent huge pages. */
    bool thpEnabled = true;
    /**
     * Probability that an eligible chunk actually gets a huge page
     * (models defrag failures / khugepaged lag); 1.0 = always.
     */
    double thpChance = 1.0;
    /**
     * Place every 4 KiB page on a uniformly random free frame,
     * destroying all >4KiB contiguity (Fig. 18 "no contiguity").
     */
    bool randomPlacement = false;
    /**
     * Page-coloring bits: prefer frames with
     * PFN = VPN (mod 2^coloringBits). 0 disables coloring.
     */
    unsigned coloringBits = 0;
};

/**
 * One simulated process: VA layout, page table, and fault handling.
 * Frames a fault or a COW break allocates are never freed, not
 * even at destruction: they live as long as the allocator.
 */
class AddressSpace
{
  public:
    /**
     * @param allocator shared physical allocator
     * @param policy placement policy for this process
     * @param seed RNG seed for randomised placement decisions
     * @param va_base first virtual address handed out by mmap()
     */
    AddressSpace(BuddyAllocator &allocator, PagingPolicy policy,
                 std::uint64_t seed = 1,
                 Addr va_base = Addr{0x10} << 30);

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    /**
     * Reserve an anonymous region of @p length bytes.
     *
     * @param length region size (rounded up to whole pages)
     * @param align_log2 log2 of the VA alignment of the region base
     *        (>= pageShift); glibc-style large allocations default
     *        to 2 MiB alignment
     * @param skew_pages extra pages added after alignment, to model
     *        allocators that place data at unaligned offsets
     * @return base virtual address of the region
     */
    Addr mmap(std::uint64_t length,
              unsigned align_log2 = hugePageShift,
              std::uint64_t skew_pages = 0);

    /**
     * Ensure the page containing @p vaddr is mapped, faulting it in
     * if necessary.
     *
     * @return true when this touch caused a page fault
     */
    bool touch(Addr vaddr);

    /**
     * Create a synonym: reserve a new region of @p length bytes
     * whose pages map to the *same physical frames* as the pages
     * starting at @p existing_va (which must already be mapped,
     * 4 KiB granularity). This models shared mappings (mmap of
     * the same file twice, shm) — the case that makes virtually
     * tagged caches hard and that SIPT handles for free via full
     * physical tags (paper Sec. II).
     *
     * @return base virtual address of the alias region
     */
    Addr mmapAlias(Addr existing_va, std::uint64_t length,
                   unsigned align_log2 = hugePageShift,
                   std::uint64_t skew_pages = 0);

    /**
     * Attach a shared segment (shmat): reserve a region the size
     * of @p segment and map every page to the segment's frames.
     * Any number of address spaces — or the same one, repeatedly,
     * at skewed bases — may attach the same segment; the frames
     * stay owned by the segment. Huge segments are mapped with
     * 2 MiB pages, so for them @p align_log2 must be
     * >= hugePageShift and @p skew_pages a multiple of the pages
     * per huge page (sub-2MiB skew cannot exist at that mapping
     * granularity, which is exactly the VESPA superpage property).
     *
     * @return base virtual address of the attached region
     */
    Addr mmapShared(const SharedSegment &segment,
                    unsigned align_log2 = hugePageShift,
                    std::uint64_t skew_pages = 0);

    /**
     * Fork-style copy-on-write clone of an existing mapping: like
     * mmapAlias(), the new region's pages initially share the
     * source pages' frames, but the sharing is tracked so a later
     * storeTouch() through the clone breaks it — the faulting page
     * gets a private frame, as the child of a fork would. Loads
     * through either name keep sharing. The one-sided model (only
     * the clone breaks, the source keeps the original frame)
     * matches a parent that keeps running in place.
     *
     * @return base virtual address of the COW clone region
     */
    Addr mmapCow(Addr existing_va, std::uint64_t length,
                 unsigned align_log2 = hugePageShift,
                 std::uint64_t skew_pages = 0);

    /**
     * touch() for a store: additionally resolves copy-on-write.
     * When @p vaddr lies in a still-shared page of a mmapCow()
     * region, the page is remapped to a freshly allocated private
     * frame before the store proceeds.
     *
     * @return true when this store broke a COW share
     */
    bool storeTouch(Addr vaddr);

    /**
     * Discard the 4 KiB mapping containing @p vaddr (partial
     * munmap / MADV_DONTNEED). The region stays reserved, so a
     * later touch demand-faults a fresh frame. The discarded
     * frame is not freed. Fatal on huge-page mappings (partial
     * unmap of a huge page is not modelled).
     */
    void unmapPage(Addr vaddr);

    /** Translate @p vaddr, faulting the page in first if needed. */
    vm::Translation translateTouch(Addr vaddr);

    /** The mmap'd regions as (base, length) pairs, in map order —
     *  the layout a trace recorder snapshots. */
    std::vector<std::pair<Addr, std::uint64_t>>
    regionSpans() const;

    /**
     * Register an externally reserved region (trace replay):
     * the span becomes part of the address space without going
     * through mmap()'s placement, so replayed VAs land in exactly
     * the recorded layout. Advances the mmap() cursor past it.
     */
    void adoptRegion(Addr base, std::uint64_t length);

    /**
     * Install a recorded VA->PA mapping directly, bypassing
     * demand paging. For @p huge mappings @p vaddr must be 2 MiB
     * aligned and @p pfn is the first 4 KiB frame of the block.
     * The frames were chosen by the recording run's allocator;
     * nothing is taken from this one.
     */
    void installMapping(Addr vaddr, Pfn pfn, bool huge);

    /** The page table populated by this address space. */
    const vm::PageTable &pageTable() const { return pageTable_; }
    vm::PageTable &pageTable() { return pageTable_; }

    /** Number of demand faults served with a 2 MiB page. */
    std::uint64_t hugeFaults() const { return hugeFaults_; }

    /** Number of demand faults served with a 4 KiB page. */
    std::uint64_t smallFaults() const { return smallFaults_; }

    /** Fraction of mapped memory backed by huge pages. */
    double hugeCoverage() const;

    /** Copy-on-write shares broken by storeTouch() so far. */
    std::uint64_t cowBreaks() const { return cowBreaks_; }

    /** COW clone pages still sharing their source frame. */
    std::uint64_t cowSharedPages() const;

    /** The physical allocator backing this address space. */
    BuddyAllocator &allocator() { return allocator_; }

    const PagingPolicy &policy() const { return policy_; }

  private:
    struct Region
    {
        Addr base;
        std::uint64_t length;
    };

    /** One mmapCow() page still sharing its source frame. */
    struct CowShare
    {
        /** Source VA whose frame the clone page borrows. */
        Addr sourceVa;
    };

    /** Find the region containing @p vaddr, or nullptr. */
    const Region *findRegion(Addr vaddr) const;

    /** Handle a demand fault on @p vaddr. */
    void fault(Addr vaddr);

    /** Pick and map a 4 KiB frame for @p vaddr. */
    void mapSmall(Addr vaddr);

    BuddyAllocator &allocator_;
    PagingPolicy policy_;
    Rng rng_;
    Addr nextVa_;
    vm::PageTable pageTable_;
    std::vector<Region> regions_;
    /** Still-shared COW clone pages, keyed by clone VPN. */
    std::unordered_map<Vpn, CowShare> cowShares_;
    std::uint64_t hugeFaults_ = 0;
    std::uint64_t smallFaults_ = 0;
    std::uint64_t cowBreaks_ = 0;
};

} // namespace sipt::os

#endif // SIPT_OS_ADDRESS_SPACE_HH
