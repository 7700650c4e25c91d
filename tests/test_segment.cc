/**
 * @file
 * Unit tests for the 8-byte learned segment encoding (§3.2).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "learned/segment.hh"
#include "util/float16.hh"

namespace leaftl
{
namespace
{

/** Build an accurate segment for LPAs {s, s+d, ..., s+(n-1)d} -> p0... */
Segment
makeAccurate(uint8_t s, uint32_t d, uint32_t n, Ppa p0)
{
    const float k = 1.0f / static_cast<float>(d);
    uint16_t kbits = float16SetTag(float16Encode(k), false);
    // Intercept anchors prediction at the group offset: p0 - k*s,
    // centered so rounding hits exactly.
    const double kq = float16Decode(kbits);
    const int32_t intercept =
        static_cast<int32_t>(std::llround(p0 - kq * s));
    return Segment(s, static_cast<uint8_t>((n - 1) * d), kbits, intercept);
}

TEST(Segment, EncodedSizeIsEightBytes)
{
    EXPECT_EQ(Segment::kEncodedBytes, 8u);
    EXPECT_LE(sizeof(Segment), 8u);
}

TEST(Segment, SinglePointPredictsItself)
{
    const Segment s = Segment::makeSinglePoint(42, 1234);
    EXPECT_TRUE(s.singlePoint());
    EXPECT_FALSE(s.approximate());
    EXPECT_EQ(s.slpa(), 42u);
    EXPECT_EQ(s.endOff(), 42u);
    EXPECT_EQ(s.predict(42), 1234u);
    EXPECT_TRUE(s.hasLpaAccurate(42));
    EXPECT_FALSE(s.hasLpaAccurate(43));
}

TEST(Segment, PaperFigure6AccurateExample)
{
    // Fig. 6: LPAs [0,1,2,3] -> PPAs [32,33,34,35]: S=0, L=3, K=1, I=32.
    const Segment s = makeAccurate(0, 1, 4, 32);
    EXPECT_EQ(s.length(), 3u);
    for (uint8_t off = 0; off <= 3; off++) {
        EXPECT_TRUE(s.hasLpaAccurate(off));
        EXPECT_EQ(s.predict(off), 32u + off);
    }
}

TEST(Segment, StrideMembership)
{
    // LPAs {10, 14, 18, 22} (stride 4) -> PPAs {100..103}.
    const Segment s = makeAccurate(10, 4, 4, 100);
    EXPECT_EQ(s.stride(), 4u);
    EXPECT_TRUE(s.hasLpaAccurate(10));
    EXPECT_TRUE(s.hasLpaAccurate(14));
    EXPECT_TRUE(s.hasLpaAccurate(22));
    EXPECT_FALSE(s.hasLpaAccurate(12));
    EXPECT_FALSE(s.hasLpaAccurate(9));
    EXPECT_FALSE(s.hasLpaAccurate(23));
    EXPECT_FALSE(s.hasLpaAccurate(26)); // On-stride but past the end.
}

TEST(Segment, TrimPreservesPredictions)
{
    const Segment orig = makeAccurate(0, 2, 10, 500); // offs 0,2,..,18
    Segment s = orig;
    s.trim(4, 14);
    EXPECT_EQ(s.slpa(), 4u);
    EXPECT_EQ(s.endOff(), 14u);
    // K and I untouched: predictions of surviving offsets unchanged.
    for (uint8_t off = 4; off <= 14; off += 2)
        EXPECT_EQ(s.predict(off), orig.predict(off));
    EXPECT_FALSE(s.hasLpaAccurate(2));
    EXPECT_TRUE(s.hasLpaAccurate(6));
}

TEST(Segment, OverlapsDetection)
{
    const Segment a = makeAccurate(10, 1, 11, 0); // [10, 20]
    const Segment b = makeAccurate(20, 1, 5, 0);  // [20, 24]
    const Segment c = makeAccurate(30, 1, 3, 0);  // [30, 32]
    EXPECT_TRUE(a.overlaps(b));
    EXPECT_TRUE(b.overlaps(a));
    EXPECT_FALSE(a.overlaps(c));
    EXPECT_FALSE(c.overlaps(a));
}

TEST(Segment, ApproximateTagRoundTrips)
{
    uint16_t kbits = float16SetTag(float16Encode(0.56f), true);
    const Segment s(0, 5, kbits, 64);
    EXPECT_TRUE(s.approximate());
    EXPECT_FALSE(s.singlePoint());
}

TEST(Segment, PaperFigure6ApproximateExample)
{
    // Fig. 6: LPAs [0,1,4,5] -> PPAs [64,65,66,67], K=0.56, I=64.
    // Prediction for LPA 4 is ~66-67 (the paper shows 67, true 66):
    // within gamma=1 either way.
    uint16_t kbits = float16SetTag(float16Encode(0.56f), true);
    const Segment s(0, 5, kbits, 64);
    const int64_t pred = s.predict(4);
    EXPECT_NEAR(static_cast<double>(pred), 66.0, 1.0);
}

/**
 * stride() rounds 1/K by adding one half and truncating; for every
 * fp16 encoding with a positive finite K it must agree with
 * std::lround, and every other encoding gives stride 1.
 */
TEST(Segment, StrideMatchesLroundForEveryKbits)
{
    uint32_t positive = 0;
    for (uint32_t kbits = 0; kbits <= 0xFFFFu; kbits++) {
        const Segment seg(0, 10, static_cast<uint16_t>(kbits), 0);
        const float k = seg.slope();
        uint32_t want = 1;
        if (k > 0.0f && std::isfinite(k)) {
            positive++;
            want = static_cast<uint32_t>(std::lround(1.0 / k));
            want = want == 0 ? 1 : want;
        }
        ASSERT_EQ(seg.stride(), want) << "kbits=" << kbits;
    }
    // 31 finite exponents x 1024 mantissas, minus +0.
    EXPECT_EQ(positive, 0x7C00u - 1);
}

class SegmentStrideSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(SegmentStrideSweep, AccurateAcrossStridesAndBases)
{
    // Property: for every stride d and base PPA, the encoded accurate
    // segment predicts every member exactly and rejects non-members.
    const int d = std::get<0>(GetParam());
    const Ppa p0 = static_cast<Ppa>(std::get<1>(GetParam()));
    const uint32_t n = 255 / d + 1;
    const Segment s = makeAccurate(0, d, n, p0);
    for (uint32_t j = 0; j < n; j++) {
        const uint8_t off = static_cast<uint8_t>(j * d);
        ASSERT_TRUE(s.hasLpaAccurate(off)) << "d=" << d << " j=" << j;
        ASSERT_EQ(s.predict(off), p0 + j) << "d=" << d << " j=" << j;
    }
    if (d > 1) {
        EXPECT_FALSE(s.hasLpaAccurate(1));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Strides, SegmentStrideSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 7, 8, 16, 51, 255),
                       ::testing::Values(0, 1000, 123456789)));

} // namespace
} // namespace leaftl
