#include "predictor/hashed_xlat.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::predictor
{

HashedXlatPredictor::HashedXlatPredictor(
    const HashedXlatParams &params)
    : entries_(params.entries), table_(params.entries)
{
    if (!isPowerOfTwo(params.entries))
        fatal("hashed-xlat: entries must be a power of two");
}

std::uint32_t
HashedXlatPredictor::indexOf(Vpn vpn) const
{
    // Fibonacci-hash the VPN so that the strided page walks of the
    // synthetic workloads do not collapse onto a few entries.
    const std::uint64_t h = vpn * 0x9e3779b97f4a7c15ull;
    return static_cast<std::uint32_t>(h >> 32) & (entries_ - 1);
}

Pfn
HashedXlatPredictor::predictPfn(Vpn vpn) const
{
    const Entry &e = table_[indexOf(vpn)];
    if (e.valid && e.vpn == vpn)
        return e.pfn;
    // Cold or aliased entry: predict identity, which reduces to
    // the base policies' "speculate with VA bits" default.
    return vpn;
}

void
HashedXlatPredictor::update(Vpn vpn, Pfn pfn)
{
    Entry &e = table_[indexOf(vpn)];
    e.valid = true;
    e.vpn = vpn;
    e.pfn = pfn;
}

PcXlatPredictor::PcXlatPredictor(const PcXlatParams &params)
    : entries_(params.entries), table_(params.entries)
{
    if (!isPowerOfTwo(params.entries))
        fatal("pc-xlat: entries must be a power of two");
}

std::uint32_t
PcXlatPredictor::indexOf(Addr pc) const
{
    return static_cast<std::uint32_t>(pc >> 2) & (entries_ - 1);
}

Pfn
PcXlatPredictor::predictPfn(Addr pc, Vpn vpn) const
{
    const Entry &e = table_[indexOf(pc)];
    if (!e.valid)
        return vpn;
    return static_cast<Pfn>(static_cast<std::int64_t>(vpn) +
                            e.delta);
}

void
PcXlatPredictor::update(Addr pc, Vpn vpn, Pfn pfn)
{
    Entry &e = table_[indexOf(pc)];
    e.valid = true;
    e.delta = static_cast<std::int64_t>(pfn) -
              static_cast<std::int64_t>(vpn);
}

} // namespace sipt::predictor
