/**
 * @file
 * Compact dynamic bitmap used by the page validity table (PVT) and
 * DFTL's dirty-slot index. The per-bit accessors are inline: the
 * device calls them once per page on its hot paths.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/common.hh"

namespace leaftl
{

/** Fixed-size bitmap with popcount. */
class Bitmap
{
  public:
    Bitmap() = default;
    explicit Bitmap(uint32_t num_bits);

    void resize(uint32_t num_bits);

    void
    set(uint32_t i)
    {
        LEAFTL_ASSERT(i < num_bits_, "bitmap set out of range");
        words_[i >> 6] |= (1ull << (i & 63));
    }

    void
    clear(uint32_t i)
    {
        LEAFTL_ASSERT(i < num_bits_, "bitmap clear out of range");
        words_[i >> 6] &= ~(1ull << (i & 63));
    }

    bool
    test(uint32_t i) const
    {
        LEAFTL_ASSERT(i < num_bits_, "bitmap test out of range");
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    /**
     * Set bits [first, first + n) a word at a time.
     * @return how many of them were clear before.
     */
    uint32_t setRange(uint32_t first, uint32_t n);

    /** Clear every bit (the size is kept). */
    void clearAll();

    /** Call fn(i) for each set bit i in ascending order. */
    template <typename Fn>
    void
    forEachSet(Fn &&fn) const
    {
        for (uint32_t w = 0; w < words_.size(); w++) {
            for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1)
                fn((w << 6) + static_cast<uint32_t>(std::countr_zero(bits)));
        }
    }

    uint32_t size() const { return num_bits_; }
    uint32_t popcount() const;
    bool none() const { return popcount() == 0; }

  private:
    uint32_t num_bits_ = 0;
    std::vector<uint64_t> words_;
};

} // namespace leaftl
