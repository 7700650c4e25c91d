/**
 * @file
 * Tests for the per-channel busy-until timing model.
 */

#include <gtest/gtest.h>

#include "flash/timing.hh"

namespace leaftl
{
namespace
{

TEST(ChannelTimer, UncontendedAccessTakesNominalLatency)
{
    ChannelTimer timer(4);
    const Tick done = timer.access(0, 1000, 20 * kMicrosecond);
    EXPECT_EQ(done, 1000 + 20 * kMicrosecond);
}

TEST(ChannelTimer, BackToBackAccessesQueue)
{
    ChannelTimer timer(2);
    const Tick first = timer.access(0, 0, 100);
    const Tick second = timer.access(0, 0, 100);
    EXPECT_EQ(first, 100u);
    EXPECT_EQ(second, 200u);
}

TEST(ChannelTimer, ChannelsAreIndependent)
{
    ChannelTimer timer(2);
    timer.access(0, 0, 1000);
    const Tick other = timer.access(1, 0, 100);
    EXPECT_EQ(other, 100u);
}

TEST(ChannelTimer, LateArrivalStartsAtArrival)
{
    ChannelTimer timer(1);
    timer.access(0, 0, 100); // Busy until 100.
    const Tick done = timer.access(0, 500, 100);
    EXPECT_EQ(done, 600u);
}

TEST(ChannelTimer, OccupyDelaysLaterAccess)
{
    ChannelTimer timer(1);
    timer.access(0, 0, 1 * kMillisecond); // Background flush.
    const Tick done = timer.access(0, 0, 20 * kMicrosecond);
    EXPECT_EQ(done, 1 * kMillisecond + 20 * kMicrosecond);
}

TEST(ChannelTimer, EarliestFreeTracksMinimum)
{
    ChannelTimer timer(3);
    timer.access(0, 0, 300);
    timer.access(1, 0, 100);
    timer.access(2, 0, 200);
    EXPECT_EQ(timer.earliestFree(), 100u);
}

TEST(ChannelTimer, PeekAccessDoesNotSchedule)
{
    ChannelTimer timer(2);
    timer.access(0, 0, 100); // Busy until 100.

    // The query reports what access() would return...
    EXPECT_EQ(timer.peekAccess(0, 50, 30), 130u);
    EXPECT_EQ(timer.peekAccess(0, 500, 30), 530u);
    EXPECT_EQ(timer.peekAccess(1, 50, 30), 80u);

    // ...but leaves every busy-until cursor untouched.
    EXPECT_EQ(timer.busyUntil(0), 100u);
    EXPECT_EQ(timer.busyUntil(1), 0u);
    EXPECT_EQ(timer.access(0, 50, 30), 130u);
}

TEST(ChannelTimer, NumChannels)
{
    ChannelTimer timer(7);
    EXPECT_EQ(timer.numChannels(), 7u);
}

TEST(ChannelTimer, BusyUntilAndReset)
{
    ChannelTimer timer(2);
    timer.access(1, 0, 42);
    EXPECT_EQ(timer.busyUntil(1), 42u);
    EXPECT_EQ(timer.busyUntil(0), 0u);
    timer.reset();
    EXPECT_EQ(timer.busyUntil(1), 0u);
}

TEST(ChannelTimerDeath, OutOfRangeChannelAborts)
{
    ChannelTimer timer(2);
    EXPECT_DEATH(timer.access(2, 0, 1), "out of range");
}

} // namespace
} // namespace leaftl
