#include "util/bitmap.hh"

#include <bit>

#include "util/common.hh"

namespace leaftl
{

Bitmap::Bitmap(uint32_t num_bits)
{
    resize(num_bits);
}

void
Bitmap::resize(uint32_t num_bits)
{
    num_bits_ = num_bits;
    words_.assign((num_bits + 63) / 64, 0);
}

void
Bitmap::set(uint32_t i)
{
    LEAFTL_ASSERT(i < num_bits_, "bitmap set out of range");
    words_[i >> 6] |= (1ull << (i & 63));
}

void
Bitmap::clear(uint32_t i)
{
    LEAFTL_ASSERT(i < num_bits_, "bitmap clear out of range");
    words_[i >> 6] &= ~(1ull << (i & 63));
}

bool
Bitmap::test(uint32_t i) const
{
    LEAFTL_ASSERT(i < num_bits_, "bitmap test out of range");
    return (words_[i >> 6] >> (i & 63)) & 1;
}

uint32_t
Bitmap::popcount() const
{
    uint32_t n = 0;
    for (uint64_t w : words_)
        n += static_cast<uint32_t>(std::popcount(w));
    return n;
}

} // namespace leaftl
