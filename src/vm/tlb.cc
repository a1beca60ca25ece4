#include "vm/tlb.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::vm
{

namespace
{

/** Number of sets of @p params, checked before anything divides by
 *  or sizes storage from them. */
std::uint32_t
checkedSets(const TlbParams &params)
{
    if (params.assoc == 0 || params.entries == 0)
        fatal("Tlb: zero entries or associativity");
    if (params.entries % params.assoc != 0)
        fatal("Tlb: entries not a multiple of associativity");
    const std::uint32_t sets = params.entries / params.assoc;
    if (!isPowerOfTwo(sets))
        fatal("Tlb: number of sets must be a power of two");
    return sets;
}

} // namespace

Tlb::Tlb(const TlbParams &params)
    : numSets_(checkedSets(params)), assoc_(params.assoc),
      keys_(params.entries, invalidKey),
      lastUse_(params.entries, 0)
{
}

void
Tlb::flush()
{
    for (auto &key : keys_)
        key = invalidKey;
}

double
Tlb::hitRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(hits_) /
                       static_cast<double>(total)
                 : 0.0;
}

} // namespace sipt::vm
