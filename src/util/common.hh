/**
 * @file
 * Common types and error-reporting helpers shared by every module.
 *
 * Address-space conventions follow the paper (§2): logical page
 * addresses (LPAs) and physical page addresses (PPAs) are 4-byte
 * values; a page-level mapping entry is therefore 8 bytes.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace leaftl
{

/** Logical page address (host-visible page number). */
using Lpa = uint32_t;
/** Physical page address (flash page number, linearized). */
using Ppa = uint32_t;
/** Simulated time in nanoseconds. */
using Tick = uint64_t;

/** Sentinel for "no such LPA". */
constexpr Lpa kInvalidLpa = 0xFFFFFFFFu;
/** Sentinel for "no such PPA". */
constexpr Ppa kInvalidPpa = 0xFFFFFFFFu;

/**
 * Tombstone PPA recorded by TRIM: a mapping whose translation resolves
 * here is treated as unmapped. Chosen to fit the 4-byte signed
 * intercept of a learned segment.
 */
constexpr Ppa kTombstonePpa = 0x7FFFFFFFu;

/** Size of one mapping entry in a flat page-level table (bytes). */
constexpr uint32_t kMapEntryBytes = 8;

/** Number of contiguous LPAs per learned-index group (§3.2). */
constexpr uint32_t kGroupSpan = 256;

/** Tick helpers. */
constexpr Tick kNanosecond = 1;
constexpr Tick kMicrosecond = 1000;
constexpr Tick kMillisecond = 1000 * 1000;
constexpr Tick kSecond = 1000ull * 1000 * 1000;

namespace detail
{
[[noreturn]] void
die(const char *kind, const char *file, int line, const std::string &msg);
} // namespace detail

/**
 * Abort the process: an internal invariant was violated (simulator bug).
 * Mirrors gem5's panic().
 */
#define LEAFTL_PANIC(msg)                                                    \
    ::leaftl::detail::die("panic", __FILE__, __LINE__, (msg))

/**
 * Exit with an error: the condition is the user's fault (bad config or
 * arguments). Mirrors gem5's fatal().
 */
#define LEAFTL_FATAL(msg)                                                    \
    ::leaftl::detail::die("fatal", __FILE__, __LINE__, (msg))

/** Check an invariant in both debug and release builds. */
#define LEAFTL_ASSERT(cond, msg)                                             \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::leaftl::detail::die("assert", __FILE__, __LINE__, (msg));      \
        }                                                                    \
    } while (0)

/** Integer ceiling division. */
constexpr uint64_t
ceilDiv(uint64_t a, uint64_t b)
{
    return (a + b - 1) / b;
}

/** Group index of an LPA. */
constexpr uint32_t
groupOf(Lpa lpa)
{
    return lpa / kGroupSpan;
}

/** Offset of an LPA within its group (fits in one byte). */
constexpr uint32_t
groupOffset(Lpa lpa)
{
    return lpa % kGroupSpan;
}

/**
 * FNV-1a 64-bit hash of @a n bytes at @a data, continuing from @a h
 * (chain calls to hash discontiguous spans). Its definition fixes
 * every output, so it is the same on every platform and standard
 * library (std::hash is not): journal checksums, run fingerprints and
 * the compaction golden digests use it.
 */
inline uint64_t
fnv1a64(const void *data, size_t n, uint64_t h = 0xcbf29ce484222325ull)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; i++) {
        h ^= bytes[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** FNV-1a 64-bit hash of the bytes of @a s. */
inline uint64_t
fnv1a64(const std::string &s)
{
    return fnv1a64(s.data(), s.size());
}

} // namespace leaftl
