#include "dram/dram.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::dram
{

namespace
{

/** @p params, or fatal when its topology is not non-zero powers
 *  of two. */
const DramParams &
validated(const DramParams &params)
{
    if (params.channels == 0 || params.banksPerChannel == 0)
        fatal("Dram: zero channels or banks");
    if (!isPowerOfTwo(params.channels) ||
        !isPowerOfTwo(params.banksPerChannel) ||
        !isPowerOfTwo(params.rowBytes)) {
        fatal("Dram: topology parameters must be powers of two");
    }
    return params;
}

} // namespace

DramRows::DramRows(const DramParams &params)
    : channelMask_(validated(params).channels - 1),
      bankMask_(params.banksPerChannel - 1),
      channelShift_(floorLog2(params.channels)),
      rowShift_(floorLog2(params.rowBytes * params.channels)),
      banksPerChannel_(params.banksPerChannel),
      rows_(static_cast<std::size_t>(params.channels) *
            params.banksPerChannel)
{
}

DramQueue::DramQueue(const DramParams &params)
    : params_(params),
      bankShift_(floorLog2(validated(params).banksPerChannel)),
      bankBusyUntil_(static_cast<std::size_t>(params.channels) *
                         params.banksPerChannel,
                     0),
      channelBusyUntil_(params.channels, 0)
{
}

Dram::Dram(const DramParams &params)
    : params_(params), rows_(params), queue_(params)
{
}

} // namespace sipt::dram
