/**
 * @file
 * Tests for SsdConfig derivation and validation.
 */

#include <gtest/gtest.h>

#include "ssd/config.hh"

namespace leaftl
{
namespace
{

TEST(Config, HostPagesHonorsOverprovisioning)
{
    SsdConfig cfg;
    cfg.geometry.num_channels = 2;
    cfg.geometry.blocks_per_channel = 10;
    cfg.geometry.pages_per_block = 100;
    EXPECT_EQ(cfg.geometry.totalPages(), 2000u);
    EXPECT_EQ(cfg.hostPages(), 1600u);
    EXPECT_EQ(cfg.hostBytes(), 1600ull * cfg.geometry.page_size);
}

TEST(Config, FtlKindNames)
{
    EXPECT_STREQ(ftlKindName(FtlKind::DFTL), "DFTL");
    EXPECT_STREQ(ftlKindName(FtlKind::SFTL), "SFTL");
    EXPECT_STREQ(ftlKindName(FtlKind::LeaFTL), "LeaFTL");
}

TEST(Config, DefaultsValidate)
{
    SsdConfig cfg;
    cfg.validate(); // Must not abort.
}

TEST(ConfigDeath, TinyWriteBufferRejected)
{
    SsdConfig cfg;
    cfg.write_buffer_bytes = cfg.geometry.page_size; // < one block.
    EXPECT_DEATH(cfg.validate(), "write buffer");
}

TEST(ConfigDeath, ZeroCompactionIntervalRejected)
{
    SsdConfig cfg;
    cfg.compaction_interval = 0;
    EXPECT_DEATH(cfg.validate(), "compaction");
}

TEST(GeometryDeath, PpaOverflowRejected)
{
    Geometry g;
    g.num_channels = 1 << 16;
    g.blocks_per_channel = 1 << 16;
    g.pages_per_block = 1 << 8;
    EXPECT_DEATH(g.validate(), "overflow");
}

} // namespace
} // namespace leaftl
