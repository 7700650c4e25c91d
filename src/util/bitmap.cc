#include "util/bitmap.hh"

#include <algorithm>

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

uint32_t
Bitmap::setRange(uint32_t first, uint32_t n)
{
    LEAFTL_ASSERT(first <= num_bits_ && n <= num_bits_ - first,
                  "bitmap range out of range");
    uint32_t newly = 0;
    const uint32_t end = first + n;
    while (first < end) {
        const uint32_t bit = first & 63;
        const uint32_t len = std::min(64 - bit, end - first);
        const uint64_t mask = (len == 64 ? ~0ull : (1ull << len) - 1) << bit;
        uint64_t &word = words_[first >> 6];
        newly += static_cast<uint32_t>(std::popcount(mask & ~word));
        word |= mask;
        first += len;
    }
    return newly;
}

void
Bitmap::clearAll()
{
    std::fill(words_.begin(), words_.end(), 0);
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
