/**
 * @file
 * Property tests for the multi-mapping OS layer the synonym
 * scenarios stand on: shared segments, mmap aliasing, fork-style
 * copy-on-write, and page unmapping. Each test states an invariant
 * of the VA->PA structure (who shares a frame with whom, when the
 * sharing breaks, that teardown frees no frame) and checks it
 * either directly or against a seeded random interleaving driven
 * off a simple alias-set model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "os/fragmenter.hh"
#include "os/shared_segment.hh"

namespace sipt
{
namespace
{

constexpr std::uint64_t totalFrames = (256ull << 20) / pageSize;

os::PagingPolicy
smallPages()
{
    os::PagingPolicy p;
    p.thpEnabled = false;
    return p;
}

Pfn
pfnOf(os::AddressSpace &as, Addr vaddr)
{
    return as.translateTouch(vaddr).paddr >> pageShift;
}

// ---------------------------------------------------------------
// Shared segments.
// ---------------------------------------------------------------

TEST(SharedSegmentProps, SmallSegmentFramesDistinct)
{
    os::BuddyAllocator buddy(totalFrames);
    const std::uint64_t before = buddy.freeFrames();
    os::SharedSegment seg(buddy, 48 * pageSize, false);
    EXPECT_EQ(seg.pages(), 48u);
    EXPECT_FALSE(seg.hugePages());
    std::unordered_map<std::uint64_t, bool> seen;
    for (std::uint64_t i = 0; i < seg.pages(); ++i) {
        const Pfn pfn = seg.pagePfn(i);
        EXPECT_LT(pfn, totalFrames);
        EXPECT_FALSE(seen[pfn]) << "duplicate frame " << pfn;
        seen[pfn] = true;
    }
    EXPECT_EQ(buddy.freeFrames(), before - seg.pages());
}

TEST(SharedSegmentProps, HugeSegmentChunksContiguous)
{
    os::BuddyAllocator buddy(totalFrames);
    // 5 MiB rounds up to three 2 MiB chunks.
    os::SharedSegment seg(buddy, 5ull << 20, true);
    EXPECT_TRUE(seg.hugePages());
    EXPECT_EQ(seg.length(), 6ull << 20);
    for (std::uint64_t i = 0; i < seg.pages(); ++i) {
        EXPECT_EQ(seg.pagePfn(i),
                  seg.chunkPfn(i / pagesPerHugePage) +
                      i % pagesPerHugePage);
    }
    // Each chunk base is 2 MiB aligned in frame space.
    for (std::uint64_t c = 0; c < 3; ++c)
        EXPECT_EQ(seg.chunkPfn(c) % pagesPerHugePage, 0u);
}

TEST(SharedSegmentProps, AttachTranslatesToSegmentFrames)
{
    os::BuddyAllocator buddy(totalFrames);
    os::SharedSegment seg(buddy, 16 * pageSize, false);
    os::AddressSpace a(buddy, smallPages(), 1);
    os::AddressSpace b(buddy, smallPages(), 2,
                       Addr{0x20} << 30);

    const Addr base_a = a.mmapShared(seg);
    const Addr skewed_a = a.mmapShared(seg, hugePageShift, 3);
    const Addr base_b = b.mmapShared(seg);

    for (std::uint64_t i = 0; i < seg.pages(); ++i) {
        const Addr off = i * pageSize;
        // Every attach of the segment — same space, skewed, or a
        // different address space entirely — resolves page i to
        // the segment's own frame.
        EXPECT_EQ(pfnOf(a, base_a + off), seg.pagePfn(i));
        EXPECT_EQ(pfnOf(a, skewed_a + off), seg.pagePfn(i));
        EXPECT_EQ(pfnOf(b, base_b + off), seg.pagePfn(i));
    }
    // The skew shows up in the VA, not the PA: 3 pages past a
    // 2 MiB-aligned base, so the index bits differ by the skew.
    EXPECT_EQ((skewed_a / pageSize) % pagesPerHugePage, 3u);
}

TEST(SharedSegmentProps, HugeAttachMapsHugePages)
{
    os::BuddyAllocator buddy(totalFrames);
    os::SharedSegment seg(buddy, 4ull << 20, true);
    os::AddressSpace as(buddy, smallPages(), 1);

    const Addr base = as.mmapShared(seg);
    const Addr skewed =
        as.mmapShared(seg, hugePageShift, pagesPerHugePage);
    for (const Addr b : {base, skewed}) {
        EXPECT_TRUE(as.pageTable().isHugeMapped(b));
        for (std::uint64_t i = 0; i < seg.pages();
             i += pagesPerHugePage / 4) {
            EXPECT_EQ(pfnOf(as, b + i * pageSize),
                      seg.pagePfn(i));
        }
    }
    // Huge attaches skew in whole 2 MiB chunks, so VA bits below
    // hugePageShift agree across the alias set (VESPA property).
    EXPECT_EQ(base % hugePageSize, skewed % hugePageSize);
    EXPECT_NE(base, skewed);
}

// ---------------------------------------------------------------
// Alias regions.
// ---------------------------------------------------------------

TEST(AddressSpaceProps, AliasSharesEveryFrame)
{
    os::BuddyAllocator buddy(totalFrames);
    os::AddressSpace as(buddy, smallPages(), 7);
    const std::uint64_t bytes = 24 * pageSize;
    const Addr src = as.mmap(bytes, pageShift);
    for (std::uint64_t i = 0; i < bytes; i += pageSize)
        as.touch(src + i);
    const Addr alias = as.mmapAlias(src, bytes, pageShift, 5);
    for (std::uint64_t i = 0; i < bytes; i += pageSize)
        EXPECT_EQ(pfnOf(as, alias + i), pfnOf(as, src + i));
    // Stores through an alias never allocate: the mapping *is*
    // the frame, which is why SIPT needs no synonym machinery.
    const std::uint64_t free_before = buddy.freeFrames();
    EXPECT_FALSE(as.storeTouch(alias + pageSize));
    EXPECT_EQ(buddy.freeFrames(), free_before);
}

// ---------------------------------------------------------------
// Copy-on-write clones.
// ---------------------------------------------------------------

TEST(AddressSpaceProps, CowBreaksExactlyOncePerPage)
{
    os::BuddyAllocator buddy(totalFrames);
    os::AddressSpace as(buddy, smallPages(), 7);
    const std::uint64_t bytes = 8 * pageSize;
    const Addr src = as.mmap(bytes, pageShift);
    for (std::uint64_t i = 0; i < bytes; i += pageSize)
        as.touch(src + i);
    const Addr clone = as.mmapCow(src, bytes, pageShift, 1);

    // Until the first store, every clone page borrows its source
    // frame.
    EXPECT_EQ(as.cowSharedPages(), 8u);
    for (std::uint64_t i = 0; i < bytes; i += pageSize)
        EXPECT_EQ(pfnOf(as, clone + i), pfnOf(as, src + i));
    // Loads through either name never break the share.
    EXPECT_EQ(as.cowBreaks(), 0u);
    EXPECT_EQ(as.cowSharedPages(), 8u);

    const Pfn src_pfn = pfnOf(as, src + 2 * pageSize);
    // First store through the clone: exactly this page breaks.
    EXPECT_TRUE(as.storeTouch(clone + 2 * pageSize + 64));
    EXPECT_EQ(as.cowBreaks(), 1u);
    EXPECT_EQ(as.cowSharedPages(), 7u);
    EXPECT_NE(pfnOf(as, clone + 2 * pageSize), src_pfn);
    // The parent keeps running in place: its frame is untouched.
    EXPECT_EQ(pfnOf(as, src + 2 * pageSize), src_pfn);
    // Neighbouring clone pages still share.
    EXPECT_EQ(pfnOf(as, clone + pageSize),
              pfnOf(as, src + pageSize));

    // A second store through the already-private page is a no-op.
    EXPECT_FALSE(as.storeTouch(clone + 2 * pageSize));
    EXPECT_EQ(as.cowBreaks(), 1u);
    // Stores through the *source* never break anything either
    // (one-sided model: the parent owns the original frame).
    EXPECT_FALSE(as.storeTouch(src + 3 * pageSize));
    EXPECT_EQ(as.cowSharedPages(), 7u);
}

TEST(AddressSpaceProps, UnmapPageRefaultsPrivately)
{
    os::BuddyAllocator buddy(totalFrames);
    os::AddressSpace as(buddy, smallPages(), 7);
    const Addr base = as.mmap(4 * pageSize, pageShift);
    as.touch(base);
    const Pfn first = pfnOf(as, base);

    as.unmapPage(base);
    EXPECT_FALSE(as.pageTable().translate(base).has_value());
    // The region stays reserved: a later touch demand-faults a
    // fresh private frame (MADV_DONTNEED semantics).
    EXPECT_TRUE(as.touch(base));
    const Pfn second = pfnOf(as, base);
    EXPECT_TRUE(as.pageTable().isMapped(base));
    // With LIFO free lists the same frame may well come back, so
    // only assert validity, not inequality.
    EXPECT_LT(second, totalFrames);
    (void)first;

    // Unmapping a broken-COW clone page must not resurrect the
    // share: the re-fault is a plain private fault.
    for (std::uint64_t i = 1; i < 4; ++i)
        as.touch(base + i * pageSize);
    const Addr clone = as.mmapCow(base, 4 * pageSize, pageShift);
    as.storeTouch(clone);
    EXPECT_EQ(as.cowBreaks(), 1u);
    as.unmapPage(clone);
    as.touch(clone);
    EXPECT_FALSE(as.storeTouch(clone));
    EXPECT_EQ(as.cowBreaks(), 1u);
}

// ---------------------------------------------------------------
// Randomised interleaving against an alias-set model.
// ---------------------------------------------------------------

/**
 * Model: every 4 KiB page of a 3-name layout (source, alias,
 * COW clone) belongs to an alias set. The invariant checked after
 * every operation is purely in terms of set membership:
 *  - source and alias always translate to the same frame;
 *  - a clone page translates to the source frame until its first
 *    store, and to a stable private frame afterwards;
 *  - frames of different alias sets never collide.
 */
TEST(AddressSpaceProps, RandomInterleavingMatchesAliasSetModel)
{
    constexpr std::uint64_t pages = 16;
    os::BuddyAllocator buddy(totalFrames);
    os::AddressSpace as(buddy, smallPages(), 99);
    Rng rng(1234);

    const std::uint64_t bytes = pages * pageSize;
    const Addr src = as.mmap(bytes, pageShift);
    for (std::uint64_t i = 0; i < bytes; i += pageSize)
        as.touch(src + i);
    const Addr alias = as.mmapAlias(src, bytes, pageShift, 2);
    const Addr clone = as.mmapCow(src, bytes, pageShift, 4);

    std::vector<bool> broken(pages, false);
    std::vector<Pfn> private_pfn(pages, 0);

    for (int step = 0; step < 2000; ++step) {
        const std::uint64_t page = rng.below(pages);
        const Addr off =
            page * pageSize + rng.below(pageSize / 8) * 8;
        const unsigned name = static_cast<unsigned>(rng.below(3));
        const Addr va =
            (name == 0 ? src : name == 1 ? alias : clone) + off;
        const bool store = rng.chance(0.3);

        const bool broke =
            store ? as.storeTouch(va) : (as.touch(va), false);
        if (name == 2 && store && !broken[page]) {
            ASSERT_TRUE(broke) << "step " << step;
            broken[page] = true;
            private_pfn[page] = pfnOf(as, clone + page * pageSize);
        } else {
            ASSERT_FALSE(broke) << "step " << step;
        }

        // Full invariant sweep over the layout.
        std::uint64_t shared = 0;
        for (std::uint64_t p = 0; p < pages; ++p) {
            const Pfn s = pfnOf(as, src + p * pageSize);
            ASSERT_EQ(pfnOf(as, alias + p * pageSize), s);
            const Pfn c = pfnOf(as, clone + p * pageSize);
            if (broken[p]) {
                ASSERT_NE(c, s) << "page " << p;
                ASSERT_EQ(c, private_pfn[p]) << "page " << p;
            } else {
                ASSERT_EQ(c, s) << "page " << p;
                ++shared;
            }
        }
        ASSERT_EQ(as.cowSharedPages(), shared);
        ASSERT_EQ(as.cowBreaks(), pages - shared);
    }
}

// ---------------------------------------------------------------
// Frame lifetime.
// ---------------------------------------------------------------

TEST(FrameLifetime, DestructorsFreeNothingReleaseStaysExact)
{
    // A job's frames die with its allocator, so destroying what
    // draws from it (address space, segment, ager, fragmenter)
    // frees nothing; an explicit release() still frees exactly
    // what it pinned.
    os::BuddyAllocator buddy(totalFrames);
    std::uint64_t held = 0;
    {
        Rng rng(3);
        os::SystemAger ager(buddy);
        ager.age(2'000, os::SystemAger::uptimeResidentFraction, rng);
        os::MemoryFragmenter frag(buddy);
        frag.fragmentTo(0.95, 9, rng, 0.30);
        ASSERT_GT(frag.pinnedFrames(), 0u);
        os::SharedSegment seg(buddy, 8 * pageSize, false);
        os::AddressSpace as(buddy, smallPages(), 5);
        const Addr src = as.mmap(16 * pageSize, pageShift);
        for (std::uint64_t i = 0; i < 16; ++i)
            as.touch(src + i * pageSize);
        as.mmapShared(seg);
        const Addr clone = as.mmapCow(src, 8 * pageSize, pageShift);
        ASSERT_TRUE(as.storeTouch(clone)); // a COW break allocates
        held = buddy.freeFrames();
    }
    EXPECT_EQ(buddy.freeFrames(), held);

    // The same conditioning, released by hand before destruction:
    // every frame comes back and the buddies re-coalesce.
    os::BuddyAllocator fresh(totalFrames);
    {
        Rng rng(3);
        os::SystemAger ager(fresh);
        ager.age(2'000, os::SystemAger::uptimeResidentFraction, rng);
        os::MemoryFragmenter frag(fresh);
        frag.fragmentTo(0.95, 9, rng, 0.30);
        const std::uint64_t pinned = frag.pinnedFrames();
        const std::uint64_t conditioned = fresh.freeFrames();
        frag.release();
        EXPECT_EQ(fresh.freeFrames(), conditioned + pinned);
        EXPECT_EQ(frag.pinnedFrames(), 0u);
        ager.release();
        EXPECT_EQ(fresh.freeFrames(), totalFrames);
    }
    EXPECT_EQ(fresh.freeFrames(), totalFrames);
    EXPECT_EQ(fresh.largestFreeOrder(),
              static_cast<int>(fresh.maxOrder()));
}

} // namespace
} // namespace sipt
