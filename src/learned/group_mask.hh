/**
 * @file
 * GroupMask: a set of offsets of one 256-LPA group as a fixed 256-bit
 * mask. It is the one membership type of the learned layer: CRB runs,
 * segment members in the merge and compaction, and each level's
 * lookup filter are all GroupMasks.
 */

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "util/common.hh"

namespace leaftl
{

/**
 * A set of offsets of one 256-LPA group: four 64-bit words, bit `off`
 * of word `off / 64` standing for group offset `off`.
 */
class GroupMask
{
  public:
    static constexpr uint32_t kWords = kGroupSpan / 64;
    static_assert(kGroupSpan == 256, "a mask spans one 256-LPA group");

    /** The offsets [first, last]; requires first <= last. */
    static GroupMask
    range(uint8_t first, uint8_t last)
    {
        GroupMask m;
        for (uint32_t wi = first / 64; wi <= last / 64u; wi++) {
            const uint32_t lo = std::max<uint32_t>(first, wi * 64) - wi * 64;
            const uint32_t hi =
                std::min<uint32_t>(last, wi * 64 + 63) - wi * 64;
            m.w_[wi] = (~uint64_t{0} >> (63 - (hi - lo))) << lo;
        }
        return m;
    }

    void set(uint8_t off) { w_[off / 64] |= uint64_t{1} << (off % 64); }

    void reset(uint8_t off) { w_[off / 64] &= ~(uint64_t{1} << (off % 64)); }

    bool
    test(uint8_t off) const
    {
        return (w_[off / 64] >> (off % 64)) & 1;
    }

    bool
    none() const
    {
        return (w_[0] | w_[1] | w_[2] | w_[3]) == 0;
    }

    bool any() const { return !none(); }

    /**
     * Number of set offsets. A branch-free bit count: std::popcount
     * compiles to a library call unless the build targets POPCNT.
     */
    uint32_t
    count() const
    {
        constexpr uint64_t k1 = 0x5555555555555555ull;
        constexpr uint64_t k2 = 0x3333333333333333ull;
        constexpr uint64_t k4 = 0x0f0f0f0f0f0f0f0full;
        constexpr uint64_t kBytes = 0x0101010101010101ull;
        uint32_t n = 0;
        for (uint64_t w : w_) {
            w -= (w >> 1) & k1;
            w = (w & k2) + ((w >> 2) & k2);
            w = (w + (w >> 4)) & k4;
            n += static_cast<uint32_t>((w * kBytes) >> 56);
        }
        return n;
    }

    bool intersects(const GroupMask &o) const { return (*this & o).any(); }

    /** Smallest set offset; the mask must not be empty. */
    uint8_t
    first() const
    {
        uint32_t wi = 0;
        while (w_[wi] == 0)
            wi++;
        return static_cast<uint8_t>(wi * 64 + std::countr_zero(w_[wi]));
    }

    /** Largest set offset; the mask must not be empty. */
    uint8_t
    last() const
    {
        uint32_t wi = kWords - 1;
        while (w_[wi] == 0)
            wi--;
        return static_cast<uint8_t>(wi * 64 + 63 - std::countl_zero(w_[wi]));
    }

    /** Visit the set offsets in ascending order: fn(uint8_t off). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (uint32_t wi = 0; wi < kWords; wi++) {
            for (uint64_t w = w_[wi]; w != 0; w &= w - 1)
                fn(static_cast<uint8_t>(wi * 64 + std::countr_zero(w)));
        }
    }

    /** Every offset moved up by @a n; offsets past 255 drop out. */
    GroupMask
    shiftedUp(uint32_t n) const
    {
        GroupMask m;
        const uint32_t ws = n / 64, bs = n % 64;
        for (uint32_t wi = ws; wi < kWords; wi++) {
            m.w_[wi] = w_[wi - ws] << bs;
            if (bs != 0 && wi > ws)
                m.w_[wi] |= w_[wi - ws - 1] >> (64 - bs);
        }
        return m;
    }

    GroupMask
    operator&(const GroupMask &o) const
    {
        GroupMask m;
        for (uint32_t wi = 0; wi < kWords; wi++)
            m.w_[wi] = w_[wi] & o.w_[wi];
        return m;
    }

    GroupMask
    operator~() const
    {
        GroupMask m;
        for (uint32_t wi = 0; wi < kWords; wi++)
            m.w_[wi] = ~w_[wi];
        return m;
    }

    GroupMask &
    operator|=(const GroupMask &o)
    {
        for (uint32_t wi = 0; wi < kWords; wi++)
            w_[wi] |= o.w_[wi];
        return *this;
    }

    bool operator==(const GroupMask &o) const = default;

  private:
    std::array<uint64_t, kWords> w_{};
};

} // namespace leaftl
