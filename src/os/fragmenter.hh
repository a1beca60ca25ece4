/**
 * @file
 * Physical-memory conditioning tools for the sensitivity studies.
 *
 * MemoryFragmenter reproduces the methodology of Kwon et al. (used
 * by the SIPT paper, Section VII-B): it drives the buddy allocator
 * into a state with a chosen *unusable free space index* Fu(j),
 * pinning frames so later demand faults see only fragmented memory.
 *
 * SystemAger models a machine "with an uptime of weeks": a churn of
 * allocations and frees of mixed sizes that leaves a realistic mix
 * of free-block sizes and scattered block offsets without running
 * out of memory.
 */

#ifndef SIPT_OS_FRAGMENTER_HH
#define SIPT_OS_FRAGMENTER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/mapped_array.hh"
#include "common/rng.hh"
#include "os/buddy_allocator.hh"

namespace sipt::os
{

/**
 * Pins frames to push the allocator's Fu(j) above a target.
 */
class MemoryFragmenter
{
  public:
    /** @param allocator the allocator to condition */
    explicit MemoryFragmenter(BuddyAllocator &allocator);

    MemoryFragmenter(const MemoryFragmenter &) = delete;
    MemoryFragmenter &operator=(const MemoryFragmenter &) = delete;

    /**
     * Fragment until Fu(@p j) >= @p target_fu while keeping at
     * least @p min_free_fraction of memory free.
     *
     * Strategy (as in anti-fragmentation studies): allocate all
     * free memory as single pages, then release a scattered
     * subset; the released pages have no free buddies, so free
     * memory consists almost entirely of order-0 blocks. If Fu is
     * still above the target, release whole aligned 2^@p j runs of
     * pinned frames, lowest first, until it is not.
     *
     * @return the achieved Fu(j)
     */
    double fragmentTo(double target_fu, unsigned j, Rng &rng,
                      double min_free_fraction = 0.25);

    /** Release every pinned frame. Destruction does not: frames
     *  still pinned then stay allocated for the allocator's
     *  lifetime. */
    void release();

    /** Number of frames currently pinned. */
    std::uint64_t pinnedFrames() const { return pinned_.size(); }

    /** The pinned frames, in the order release() frees them: the
     *  shuffled drain's unreleased tail, or ascending once phase 3
     *  has run. */
    std::span<const Pfn> pinned() const { return pinned_; }

  private:
    /**
     * Phase 3 of fragmentTo(): free every fully pinned, naturally
     * aligned run of 2^@p j frames in ascending order, each frame
     * by frame, until Fu(@p j) <= @p target_fu; pinned_ ends up
     * sorted ascending, in place.
     */
    void releaseRuns(double target_fu, unsigned j);

    BuddyAllocator &allocator_;
    /** Phase 1's drain list, shuffled; phase 2 frees its head. */
    MappedArray<Pfn> drained_;
    /** The pinned frames: drained_'s unreleased tail. */
    std::span<Pfn> pinned_;
};

/**
 * Applies a random allocate/free churn to model weeks of uptime.
 * Pinned residual allocations model other resident processes.
 */
class SystemAger
{
  public:
    /**
     * The "weeks of uptime" recipe every aged machine uses (the
     * memory conditions' baseline and the contiguity ablation):
     * age(uptimeChurnOps, uptimeResidentFraction, rng).
     */
    static constexpr std::uint64_t uptimeChurnOps = 20'000;
    static constexpr double uptimeResidentFraction = 0.22;

    explicit SystemAger(BuddyAllocator &allocator);

    SystemAger(const SystemAger &) = delete;
    SystemAger &operator=(const SystemAger &) = delete;

    /**
     * Run @p churn_ops random allocations (orders geometrically
     * distributed, mostly small) interleaved with frees, converging
     * to roughly @p resident_fraction of memory pinned.
     */
    void age(std::uint64_t churn_ops, double resident_fraction,
             Rng &rng);

    /** Release every residual allocation. Destruction does not:
     *  residual blocks stay allocated for the allocator's
     *  lifetime. */
    void release();

    std::uint64_t residentFrames() const { return residentFrames_; }

    struct Block
    {
        Pfn base;
        unsigned order;
    };

    /** The residual allocations, in the order release() frees
     *  them. */
    std::span<const Block> resident() const { return resident_; }

  private:
    BuddyAllocator &allocator_;
    std::vector<Block> resident_;
    std::uint64_t residentFrames_ = 0;
};

} // namespace sipt::os

#endif // SIPT_OS_FRAGMENTER_HH
