/**
 * @file
 * Unit tests for the arrival shapers: payload passthrough, fixed-rate
 * arithmetic, Poisson determinism by seed (including reset), burst
 * duty-cycle compression, and the factory.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "workload/arrival.hh"
#include "workload/trace.hh"

namespace leaftl
{
namespace
{

/** Fixed request vector with recognizable payloads and arrivals. */
std::unique_ptr<WorkloadSource>
makeInner(size_t n = 100)
{
    std::vector<IoRequest> reqs;
    for (size_t i = 0; i < n; i++) {
        IoRequest r;
        r.op = i % 3 == 0 ? Op::Write : Op::Read;
        r.lpa = static_cast<Lpa>(1000 + i);
        r.npages = static_cast<uint32_t>(1 + i % 4);
        r.arrival = static_cast<Tick>(i * 777);
        reqs.push_back(r);
    }
    return std::make_unique<TraceWorkload>("inner", std::move(reqs));
}

std::vector<IoRequest>
drain(WorkloadSource &src)
{
    std::vector<IoRequest> out;
    IoRequest req;
    while (src.next(req))
        out.push_back(req);
    return out;
}

TEST(ArrivalShaper, PassesPayloadThroughAndKeepsName)
{
    ShaperSpec spec;
    spec.kind = ShaperKind::FixedRate;
    spec.rate_iops = 1e6;
    auto shaped = shapeArrivals(makeInner(), spec);
    EXPECT_EQ(shaped->name(), "inner");

    const auto reqs = drain(*shaped);
    ASSERT_EQ(reqs.size(), 100u);
    for (size_t i = 0; i < reqs.size(); i++) {
        EXPECT_EQ(reqs[i].lpa, 1000 + i);
        EXPECT_EQ(reqs[i].npages, 1 + i % 4);
        EXPECT_EQ(static_cast<int>(reqs[i].op),
                  static_cast<int>(i % 3 == 0 ? Op::Write : Op::Read));
    }
}

TEST(ArrivalShaper, AsRecordedIsIdentity)
{
    ShaperSpec spec; // Default kind: as-recorded.
    auto shaped = shapeArrivals(makeInner(), spec);
    const auto reqs = drain(*shaped);
    ASSERT_EQ(reqs.size(), 100u);
    for (size_t i = 0; i < reqs.size(); i++)
        EXPECT_EQ(reqs[i].arrival, i * 777);
}

TEST(ArrivalShaper, FixedRateSpacesArrivalsEvenly)
{
    // 1M requests/s = one per microsecond.
    FixedRateShaper shaped(makeInner(), 1e6);
    const auto reqs = drain(shaped);
    ASSERT_EQ(reqs.size(), 100u);
    for (size_t i = 0; i < reqs.size(); i++)
        EXPECT_EQ(reqs[i].arrival, i * kMicrosecond);
}

TEST(ArrivalShaper, PoissonDeterministicBySeedAndReset)
{
    PoissonShaper a(makeInner(), 50'000, 7);
    PoissonShaper b(makeInner(), 50'000, 7);
    PoissonShaper c(makeInner(), 50'000, 8);

    const auto ra = drain(a);
    const auto rb = drain(b);
    const auto rc = drain(c);
    ASSERT_EQ(ra.size(), 100u);

    bool differs = false;
    for (size_t i = 0; i < ra.size(); i++) {
        EXPECT_EQ(ra[i].arrival, rb[i].arrival) << i;
        differs |= ra[i].arrival != rc[i].arrival;
    }
    EXPECT_TRUE(differs) << "different seeds must shape differently";

    // reset() replays the identical arrival sequence.
    a.reset();
    const auto replay = drain(a);
    ASSERT_EQ(replay.size(), ra.size());
    for (size_t i = 0; i < ra.size(); i++)
        EXPECT_EQ(replay[i].arrival, ra[i].arrival) << i;
}

TEST(ArrivalShaper, PoissonMeanGapTracksRate)
{
    const double rate = 100'000; // Mean gap 10 us.
    PoissonShaper shaped(makeInner(2000), rate, 42);
    const auto reqs = drain(shaped);
    ASSERT_EQ(reqs.size(), 2000u);
    EXPECT_EQ(reqs.front().arrival, 0u);
    for (size_t i = 1; i < reqs.size(); i++)
        EXPECT_GE(reqs[i].arrival, reqs[i - 1].arrival);
    const double mean_gap =
        static_cast<double>(reqs.back().arrival) / (reqs.size() - 1);
    const double expect_gap = static_cast<double>(kSecond) / rate;
    EXPECT_NEAR(mean_gap, expect_gap, expect_gap * 0.15);
}

TEST(ArrivalShaper, BurstCompressesCyclesButKeepsMeanRate)
{
    // 64-request cycles at 64k req/s: a cycle spans 1 ms; with duty
    // 0.25 its requests all arrive within the first 250 us.
    const double rate = 64'000;
    BurstShaper shaped(makeInner(256), rate, 0.25, 64);
    const auto reqs = drain(shaped);
    ASSERT_EQ(reqs.size(), 256u);

    const Tick cycle_ns = kMillisecond;
    for (size_t i = 0; i < reqs.size(); i++) {
        const Tick cycle_start = (i / 64) * cycle_ns;
        EXPECT_GE(reqs[i].arrival, cycle_start) << i;
        EXPECT_LE(reqs[i].arrival, cycle_start + cycle_ns / 4) << i;
        if (i > 0) {
            EXPECT_GE(reqs[i].arrival, reqs[i - 1].arrival) << i;
        }
    }
    // Mean rate preserved: 4 cycles of 64 requests span ~4 ms.
    EXPECT_EQ(reqs[64].arrival, cycle_ns);
    EXPECT_EQ(reqs[192].arrival, 3 * cycle_ns);
}

TEST(ArrivalShaper, FactoryBuildsEveryKind)
{
    for (const ShaperKind kind :
         {ShaperKind::AsRecorded, ShaperKind::FixedRate,
          ShaperKind::Poisson, ShaperKind::Burst}) {
        ShaperSpec spec;
        spec.kind = kind;
        spec.rate_iops = 10'000;
        auto shaped = shapeArrivals(makeInner(10), spec);
        ASSERT_NE(shaped, nullptr);
        EXPECT_EQ(drain(*shaped).size(), 10u) << static_cast<int>(kind);
    }
}

} // namespace
} // namespace leaftl
