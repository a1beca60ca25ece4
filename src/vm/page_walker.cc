#include "vm/page_walker.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::vm
{

namespace
{
constexpr std::uint64_t invalidTag = ~std::uint64_t{0};
} // namespace

PageWalker::PageWalker(const WalkerParams &params, WalkPort &port)
    : params_(params), port_(port)
{
    if (params.levels < 2 || params.levels > maxWalkLevels)
        fatal("PageWalker: levels must be in 2..6");
    if (!isPowerOfTwo(params.pwcEntries))
        fatal("PageWalker: pwcEntries must be a power of two");
    pwc_.assign(params.levels,
                std::vector<std::uint64_t>(params.pwcEntries,
                                           invalidTag));
}

std::uint32_t
PageWalker::levelIndex(Addr vaddr, std::uint32_t level) const
{
    // Level 0 is the leaf (4 KiB PTE); each level covers 9 bits.
    return static_cast<std::uint32_t>(
        bits(vaddr, pageShift + 9 * (level + 1) - 1,
             pageShift + 9 * level));
}

Addr
PageWalker::pteAddr(Addr vaddr, std::uint32_t level) const
{
    // The table page for a level is determined by the VA bits
    // above that level; the PTE's offset within it by the level
    // index. 8-byte PTEs.
    const Addr upper =
        blockNumber(vaddr, pageShift + 9 * (level + 1));
    const Addr table_page =
        params_.tableBase +
        (((upper * 0x9e3779b97f4a7c15ull) ^ (level + 1))
         << pageShift);
    return (table_page & ~mask(pageShift)) +
           static_cast<Addr>(levelIndex(vaddr, level)) * 8;
}

WalkShape
PageWalker::lookup(Addr vaddr, bool huge_page, dram::AccessLog &log)
{
    ++walks_;
    WalkShape shape;
    const std::uint32_t leaf = huge_page ? 1 : 0;

    // Find the lowest non-leaf level whose translation is cached
    // in a PWC: the walk can start right below it.
    std::uint32_t start = params_.levels - 1;
    for (std::uint32_t level = leaf + 1; level < params_.levels;
         ++level) {
        // Tag: VA bits covered above this level.
        const std::uint64_t tag =
            blockNumber(vaddr, pageShift + 9 * level);
        const std::uint32_t idx = static_cast<std::uint32_t>(
            tag & (params_.pwcEntries - 1));
        if (pwc_[level][idx] == tag) {
            ++pwcHits_;
            shape.pwcHit = true;
            start = level - 1;
            break;
        }
    }

    // Dependent PTE reads from 'start' down to the leaf.
    for (std::uint32_t level = start + 1; level-- > leaf;) {
        ++pteReads_;
        shape.read[shape.reads++] =
            port_.walkFunction(pteAddr(vaddr, level), log);
        // Fill the PWC for non-leaf levels.
        if (level > leaf) {
            const std::uint64_t tag =
                blockNumber(vaddr, pageShift + 9 * level);
            const std::uint32_t idx =
                static_cast<std::uint32_t>(
                    tag & (params_.pwcEntries - 1));
            pwc_[level][idx] = tag;
        }
    }
    return shape;
}

Cycles
PageWalker::latency(Addr vaddr, bool huge_page, WalkShape shape,
                    Cycles now, const dram::AccessLog &log,
                    dram::AccessLog::Cursor &cursor) const
{
    Cycles latency = shape.pwcHit ? params_.pwcLatency : 0;
    const std::uint32_t leaf = huge_page ? 1 : 0;
    std::uint32_t k = 0;
    for (std::uint32_t level = firstLevel(huge_page, shape) + 1;
         level-- > leaf;) {
        latency += port_.walkTiming(pteAddr(vaddr, level),
                                    shape.read[k++], now + latency,
                                    log, cursor);
    }
    return latency;
}

Cycles
PageWalker::walk(Addr vaddr, Cycles now, bool huge_page)
{
    scratch_.clear();
    const WalkShape shape = lookup(vaddr, huge_page, scratch_);
    dram::AccessLog::Cursor cursor;
    return latency(vaddr, huge_page, shape, now, scratch_, cursor);
}

} // namespace sipt::vm
