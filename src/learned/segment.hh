/**
 * @file
 * The 8-byte learned index segment (§3.2 of the paper).
 *
 * A segment (S, L, K, I) maps the LPA interval [S, S+L] of one 256-LPA
 * group to PPAs via f(off) = round(K * off + I), where off is the LPA's
 * offset inside the group:
 *
 *   - S (1 byte): starting offset inside the group.
 *   - L (1 byte): interval length; the segment covers [S, S+L].
 *   - K (2 bytes): slope as an IEEE binary16; the least-significant
 *     mantissa bit is repurposed as the type tag (0 = accurate,
 *     1 = approximate).
 *   - I (4 bytes): integer intercept.
 *
 * The paper's formula uses a ceiling; with integer intercepts, rounding
 * to nearest is numerically equivalent and robust against the fp16
 * quantization of K (|dK * off| < 0.13 for off <= 255), so predictions
 * of accurate segments can never be perturbed off their true PPA. Every
 * segment is verified against its *encoded* parameters at construction
 * time, so the declared guarantees (exactness for accurate segments,
 * |error| <= gamma for approximate ones) hold by construction.
 *
 * Prediction is anchored at the group offset (not at S), so trimming
 * S/L during merges (Algorithm 2) never changes predicted PPAs --
 * matching the paper's rule that K and I are immutable after learning.
 */

#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "util/common.hh"
#include "util/float16.hh"

namespace leaftl
{

/** The 8-byte learned index segment. */
class Segment
{
  public:
    Segment() = default;

    /**
     * Construct a segment from encoded fields.
     *
     * @param slpa Starting offset within the group.
     * @param length Interval length; covers [slpa, slpa + length].
     * @param kbits fp16 slope with the type tag already applied.
     * @param intercept Integer intercept.
     */
    Segment(uint8_t slpa, uint8_t length, uint16_t kbits, int32_t intercept)
        : slpa_(slpa), length_(length), kbits_(kbits), intercept_(intercept)
    {}

    /** Build a single-point segment: L = 0, K = 0, I = PPA (§3.1). */
    static Segment
    makeSinglePoint(uint8_t off, Ppa ppa)
    {
        return Segment(off, 0, 0, static_cast<int32_t>(ppa));
    }

    uint8_t slpa() const { return slpa_; }
    uint8_t length() const { return length_; }
    uint16_t kbits() const { return kbits_; }
    int32_t intercept() const { return intercept_; }

    /** Last offset covered: S + L. */
    uint8_t endOff() const { return static_cast<uint8_t>(slpa_ + length_); }

    /** True if the type tag marks this segment approximate. */
    bool approximate() const { return float16Tag(kbits_); }

    /** True for a degenerate single-LPA segment. */
    bool singlePoint() const { return length_ == 0; }

    /** Decoded slope. */
    float slope() const { return float16Decode(kbits_); }

    /**
     * LPA stride of an accurate segment: round(1 / K). fp16 keeps
     * 1/K recoverable exactly for all strides up to the group span.
     * Inline (with predict and hasLpaAccurate below): these run per
     * translation, and cross-TU calls would dominate the arithmetic.
     * Rounds by adding one half and truncating, not with std::lround
     * (a libm call); test_segment checks the two agree for every
     * positive finite fp16 K.
     */
    uint32_t
    stride() const
    {
        const float k = slope();
        if (!(k > 0.0f))
            return 1;
        const uint32_t d = static_cast<uint32_t>(1.0 / k + 0.5);
        return d == 0 ? 1 : d;
    }

    /** Predicted PPA for a group offset: round(K * off + I). */
    Ppa
    predict(uint8_t off) const
    {
        const double k = slope();
        const double v = k * off + static_cast<double>(intercept_);
        const int64_t p = std::llround(v);
        // Approximate predictions near PPA 0 can undershoot; clamp
        // (the OOB verification resolves the real page, and build-time
        // verification rejects candidates whose clamped error exceeds
        // gamma).
        return p < 0 ? 0 : static_cast<Ppa>(p);
    }

    /**
     * Range inclusion test: off in [S, S+L]. Full membership for
     * accurate segments additionally requires the stride check; for
     * approximate segments it requires the CRB (handled by the group).
     */
    bool
    covers(uint8_t off) const
    {
        return off >= slpa_ && off <= endOff();
    }

    /**
     * Membership test for accurate segments (Algorithm 2, has_lpa):
     * off is on the stride grid anchored at S.
     */
    bool
    hasLpaAccurate(uint8_t off) const
    {
        if (!covers(off))
            return false;
        if (singlePoint())
            return off == slpa_;
        return (static_cast<uint32_t>(off - slpa_) % stride()) == 0;
    }

    /** Trim to a new [start, end] window (merge shrinks only). */
    void
    trim(uint8_t new_slpa, uint8_t new_end)
    {
        LEAFTL_ASSERT(new_end >= new_slpa, "segment trim inverted");
        slpa_ = new_slpa;
        length_ = static_cast<uint8_t>(new_end - new_slpa);
    }

    /** True if the LPA ranges of two segments intersect. */
    bool
    overlaps(const Segment &other) const
    {
        return slpa_ <= other.endOff() && other.slpa_ <= endOff();
    }

    /** Encoded size in bytes (fixed by the paper's format). */
    static constexpr uint32_t kEncodedBytes = 8;

    /** Debug rendering. */
    std::string toString() const;

  private:
    uint8_t slpa_ = 0;
    uint8_t length_ = 0;
    uint16_t kbits_ = 0;
    int32_t intercept_ = 0;
};

} // namespace leaftl
