/**
 * @file
 * Tests for the LPA-coalescing write buffer (§3.3).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ssd/write_buffer.hh"
#include "util/rng.hh"

namespace leaftl
{
namespace
{

TEST(WriteBuffer, AddAndContains)
{
    WriteBuffer wb(4);
    EXPECT_TRUE(wb.empty());
    EXPECT_TRUE(wb.add(10));
    EXPECT_TRUE(wb.contains(10));
    EXPECT_FALSE(wb.contains(11));
    EXPECT_EQ(wb.size(), 1u);
}

TEST(WriteBuffer, OverwriteCoalesces)
{
    WriteBuffer wb(4);
    EXPECT_TRUE(wb.add(5));
    EXPECT_FALSE(wb.add(5)); // Coalesced, no new flash write needed.
    EXPECT_EQ(wb.size(), 1u);
}

TEST(WriteBuffer, FullAtCapacity)
{
    WriteBuffer wb(3);
    wb.add(1);
    wb.add(2);
    EXPECT_FALSE(wb.full());
    wb.add(3);
    EXPECT_TRUE(wb.full());
}

TEST(WriteBuffer, DrainSortsByLpa)
{
    // Fig. 7: pages are flushed in ascending LPA order.
    WriteBuffer wb(8);
    for (Lpa l : {78u, 32u, 33u, 76u, 115u, 34u, 38u})
        wb.add(l);
    const auto sorted = wb.drainSorted();
    const std::vector<Lpa> want = {32, 33, 34, 38, 76, 78, 115};
    EXPECT_EQ(sorted, want);
    EXPECT_TRUE(wb.empty());
    EXPECT_FALSE(wb.contains(32));
}

TEST(WriteBuffer, DrainFifoKeepsArrivalOrder)
{
    WriteBuffer wb(8);
    for (Lpa l : {78u, 32u, 33u, 76u})
        wb.add(l);
    wb.add(32); // Coalesced: keeps its original position.
    const auto fifo = wb.drainFifo();
    const std::vector<Lpa> want = {78, 32, 33, 76};
    EXPECT_EQ(fifo, want);
    EXPECT_TRUE(wb.empty());
}

TEST(WriteBuffer, ReusableAfterDrain)
{
    WriteBuffer wb(2);
    wb.add(1);
    wb.add(2);
    wb.drainSorted();
    EXPECT_TRUE(wb.add(3));
    EXPECT_EQ(wb.size(), 1u);
}

/** Drain @a lpas sorted and compare with std::sort of the same set. */
void
expectDrainMatchesStdSort(const std::vector<Lpa> &lpas, const char *what)
{
    WriteBuffer wb(static_cast<uint32_t>(std::max<size_t>(lpas.size(), 1)));
    std::vector<Lpa> want;
    for (Lpa lpa : lpas) {
        if (wb.add(lpa))
            want.push_back(lpa);
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(wb.drainSorted(), want) << what;
    EXPECT_TRUE(wb.empty()) << what;
}

TEST(WriteBuffer, DrainSortedMatchesStdSort)
{
    Rng rng(11);
    expectDrainMatchesStdSort({}, "empty");
    expectDrainMatchesStdSort({42}, "single");
    expectDrainMatchesStdSort({UINT32_MAX}, "single max");

    std::vector<Lpa> dense;
    for (Lpa lpa = 0; lpa < 2048; lpa++)
        dense.push_back(lpa);
    std::reverse(dense.begin(), dense.end());
    expectDrainMatchesStdSort(dense, "dense");

    // One byte, two, three and four bytes of key: every pass count.
    for (const uint64_t bound : {200ull, 65536ull, 1ull << 24, 1ull << 32}) {
        std::vector<Lpa> sparse;
        for (int i = 0; i < 2048; i++)
            sparse.push_back(static_cast<Lpa>(rng.nextBounded(bound)));
        expectDrainMatchesStdSort(sparse, "sparse");
    }

    std::vector<Lpa> top;
    for (int i = 0; i < 2048; i++)
        top.push_back(UINT32_MAX - static_cast<Lpa>(rng.nextBounded(4096)));
    top.push_back(0);
    expectDrainMatchesStdSort(top, "near UINT32_MAX");
}

TEST(WriteBuffer, DrainSortedReusesItsBufferAcrossSizes)
{
    // A small drain after a large one (and back) still sorts fully.
    WriteBuffer wb(4096);
    Rng rng(12);
    for (const int n : {4096, 3, 1000, 0, 4096}) {
        std::vector<Lpa> want;
        while (wb.size() < static_cast<size_t>(n)) {
            const Lpa lpa = static_cast<Lpa>(rng.nextBounded(1u << 20));
            if (wb.add(lpa))
                want.push_back(lpa);
        }
        std::sort(want.begin(), want.end());
        EXPECT_EQ(wb.drainSorted(), want) << n;
    }
}

} // namespace
} // namespace leaftl
