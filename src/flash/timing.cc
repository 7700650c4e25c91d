#include "flash/timing.hh"

#include <algorithm>

namespace leaftl
{

ChannelTimer::ChannelTimer(uint32_t num_channels) : busy_(num_channels, 0)
{
    LEAFTL_ASSERT(num_channels > 0, "channel timer needs channels");
}

Tick
ChannelTimer::access(uint32_t channel, Tick now, Tick duration)
{
    const Tick done = peekAccess(channel, now, duration);
    busy_[channel] = done;
    return done;
}

Tick
ChannelTimer::peekAccess(uint32_t channel, Tick now, Tick duration) const
{
    LEAFTL_ASSERT(channel < busy_.size(), "channel out of range");
    return std::max(now, busy_[channel]) + duration;
}

Tick
ChannelTimer::busyUntil(uint32_t channel) const
{
    LEAFTL_ASSERT(channel < busy_.size(), "channel out of range");
    return busy_[channel];
}

Tick
ChannelTimer::earliestFree() const
{
    return *std::min_element(busy_.begin(), busy_.end());
}

Tick
ChannelTimer::latestFree() const
{
    return *std::max_element(busy_.begin(), busy_.end());
}

void
ChannelTimer::reset()
{
    std::fill(busy_.begin(), busy_.end(), 0);
}

} // namespace leaftl
