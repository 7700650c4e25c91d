/**
 * @file
 * Compact dynamic bitmap used by the page validity table (PVT).
 */

#pragma once

#include <cstdint>
#include <vector>

namespace leaftl
{

/** Fixed-size bitmap with popcount. */
class Bitmap
{
  public:
    Bitmap() = default;
    explicit Bitmap(uint32_t num_bits);

    void resize(uint32_t num_bits);

    void set(uint32_t i);
    void clear(uint32_t i);
    bool test(uint32_t i) const;

    uint32_t size() const { return num_bits_; }
    uint32_t popcount() const;
    bool none() const { return popcount() == 0; }

  private:
    uint32_t num_bits_ = 0;
    std::vector<uint64_t> words_;
};

} // namespace leaftl
