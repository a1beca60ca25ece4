#include "workload/instruction_stream.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::workload
{

CodeProfile
smallCodeProfile()
{
    return CodeProfile{};
}

CodeProfile
largeCodeProfile()
{
    CodeProfile p;
    p.name = "large-code";
    p.codeBytes = 4 * 1024 * 1024;
    p.numFunctions = 2048;
    p.hotCallFrac = 0.7;
    p.hotFunctions = 64;
    p.loopBackProb = 0.12;
    p.callProb = 0.15;
    p.thpAffinity = 0.3;
    return p;
}

InstructionStream::InstructionStream(
    const CodeProfile &profile, os::AddressSpace &address_space,
    std::uint64_t seed)
    : profile_(profile), rng_(seed)
{
    if (profile.codeBytes < pageSize)
        fatal("InstructionStream: text smaller than a page");
    if (profile.numFunctions == 0 ||
        profile.hotFunctions > profile.numFunctions) {
        fatal("InstructionStream: bad function counts");
    }

    // Text is mapped at load time, page by page in order (the
    // loader reads the image sequentially).
    textBase_ = address_space.mmap(profile.codeBytes, pageShift,
                                   /*skew_pages=*/1);
    for (Addr off = 0; off < profile.codeBytes; off += pageSize)
        address_space.touch(textBase_ + off);

    // Carve the text into functions of varying size (mean
    // codeBytes / numFunctions, at least one chunk each).
    const std::uint64_t mean_bytes =
        std::max<std::uint64_t>(
            profile.codeBytes / profile.numFunctions,
            fetchBytes * 2);
    Addr cursor = 0;
    for (std::uint32_t i = 0;
         i < profile.numFunctions &&
         cursor + fetchBytes < profile.codeBytes;
         ++i) {
        const std::uint64_t len = std::min<std::uint64_t>(
            alignUp(mean_bytes / 2 +
                        rng_.below(mean_bytes),
                    fetchBytes),
            profile.codeBytes - cursor);
        functions_.push_back({textBase_ + cursor, len});
        cursor += len;
    }
    SIPT_ASSERT(!functions_.empty(), "no functions carved");
    currentFn_ = 0;
}

std::size_t
InstructionStream::pickTarget()
{
    if (rng_.chance(profile_.hotCallFrac)) {
        // Zipf-ish within the hot set: favour low indices.
        const std::uint64_t hot =
            std::min<std::uint64_t>(profile_.hotFunctions,
                                    functions_.size());
        const std::uint64_t a = rng_.below(hot);
        const std::uint64_t b = rng_.below(hot);
        return static_cast<std::size_t>(std::min(a, b));
    }
    return static_cast<std::size_t>(
        rng_.below(functions_.size()));
}

bool
InstructionStream::next(MemRef &ref)
{
    const Function &fn = functions_[currentFn_];

    ref = MemRef{};
    ref.vaddr = fn.start + offset_;
    ref.pc = ref.vaddr; // fetch is self-indexed
    ref.op = MemOp::Load;
    // A fetch chunk holds ~4 instructions.
    ref.nonMemBefore = 3;

    // Advance control flow for the next chunk.
    const double u = rng_.uniform();
    if (u < profile_.loopBackProb) {
        offset_ = loopStart_;
    } else if (u < profile_.loopBackProb + profile_.callProb) {
        currentFn_ = pickTarget();
        offset_ = 0;
        // Loops restart somewhere inside the new function.
        const Addr chunks =
            functions_[currentFn_].bytes / fetchBytes;
        loopStart_ =
            chunks > 1 ? rng_.below(chunks) * fetchBytes : 0;
        if (loopStart_ >= functions_[currentFn_].bytes)
            loopStart_ = 0;
    } else {
        offset_ += fetchBytes;
        if (offset_ + fetchBytes > fn.bytes) {
            // Fall through to the next function.
            currentFn_ = (currentFn_ + 1) % functions_.size();
            offset_ = 0;
            loopStart_ = 0;
        }
    }
    return true;
}

} // namespace sipt::workload
