/**
 * @file
 * Byte cursors over the simulator's flat persisted images: mapping
 * snapshots and deltas (learned_table.cc) and the learn journal
 * (journal.cc). Fields are copied in host byte order, which the wire
 * formats define as little-endian.
 *
 * ByteWriter fills a buffer its caller has already sized exactly, so
 * an encoder allocates once instead of growing per field. ByteReader
 * bounds-checks every read of an untrusted image and reports failure
 * instead of asserting, so corrupt input surfaces as a typed error.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace leaftl
{

/** Unchecked writer into presized storage. */
class ByteWriter
{
  public:
    explicit ByteWriter(uint8_t *at) : at_(at) {}

    template <typename T>
    void
    put(T v)
    {
        std::memcpy(at_, &v, sizeof(T));
        at_ += sizeof(T);
    }

    /** One past the last byte written. */
    const uint8_t *pos() const { return at_; }

  private:
    uint8_t *at_;
};

/** Bounds-checked reader over an untrusted image. */
class ByteReader
{
  public:
    explicit ByteReader(const std::vector<uint8_t> &buf, size_t at = 0)
        : buf_(buf), at_(at)
    {
    }

    /** Read one field; false (cursor unmoved) when it runs past the end. */
    template <typename T>
    bool
    read(T &v)
    {
        if (sizeof(T) > remaining())
            return false;
        std::memcpy(&v, buf_.data() + at_, sizeof(T));
        at_ += sizeof(T);
        return true;
    }

    /** Skip @a n bytes and return where they start; nullptr if short. */
    const uint8_t *
    take(size_t n)
    {
        if (n > remaining())
            return nullptr;
        const uint8_t *p = buf_.data() + at_;
        at_ += n;
        return p;
    }

    size_t pos() const { return at_; }
    size_t remaining() const { return buf_.size() - at_; }

  private:
    const std::vector<uint8_t> &buf_;
    size_t at_;
};

} // namespace leaftl
