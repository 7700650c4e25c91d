/**
 * @file
 * Tests for the bench reporting helpers.
 */

#include <gtest/gtest.h>

#include "sim/reporter.hh"

namespace leaftl
{
namespace
{

TEST(Reporter, FmtPrecision)
{
    EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::fmt(3.14159, 0), "3");
    EXPECT_EQ(TextTable::fmt(10.0, 1), "10.0");
}

TEST(Reporter, FmtBytesUnits)
{
    EXPECT_EQ(TextTable::fmtBytes(512), "512 B");
    EXPECT_EQ(TextTable::fmtBytes(2048), "2.00 KiB");
    EXPECT_EQ(TextTable::fmtBytes(3ull << 20), "3.00 MiB");
    EXPECT_EQ(TextTable::fmtBytes(5ull << 30), "5.00 GiB");
}

TEST(Reporter, TableRenderSmoke)
{
    TextTable t({"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"longer", "x"});
    t.print(); // Must not crash; visual format checked by eye.
}

} // namespace
} // namespace leaftl
