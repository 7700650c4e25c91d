/**
 * @file
 * The learn journal's wire format, pinned byte for byte: a fixed learn
 * run and a trim must encode to the bytes the journal.hh format
 * documents (little-endian fields, FNV-1a checksum over the record
 * with its checksum field zeroed) and decode back unchanged.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "ssd/journal.hh"

namespace leaftl
{
namespace
{

std::string
hex(const std::vector<uint8_t> &bytes)
{
    std::string s;
    char buf[3];
    for (const uint8_t b : bytes) {
        std::snprintf(buf, sizeof(buf), "%02x", b);
        s += buf;
    }
    return s;
}

TEST(JournalWire, LearnAndTrimRecordsHaveTheirPinnedBytes)
{
    const std::vector<std::pair<Lpa, Ppa>> run = {
        {7, 100}, {8, 101}, {300, 0x01020304}};
    MappingJournal j;
    EXPECT_EQ(j.appendLearn(5, 2, run), MappingJournal::kHeaderBytes + 24);
    EXPECT_EQ(j.appendTrim(6, 3, 0xABCDEF), MappingJournal::kHeaderBytes + 4);
    EXPECT_EQ(j.records(), 2u);

    // type, seq, coverage, payload_len, checksum, payload.
    const std::string learn = "01"
                              "0500000000000000"
                              "02000000"
                              "18000000"
                              "529be144d8681a7c"
                              "07000000" "64000000"
                              "08000000" "65000000"
                              "2c010000" "04030201";
    const std::string trim = "02"
                             "0600000000000000"
                             "03000000"
                             "04000000"
                             "f700a6ec4247e51a"
                             "efcdab00";
    EXPECT_EQ(hex(j.log()), learn + trim);

    JournalReader reader(j.log());
    JournalRecord rec;
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.type, JournalRecord::Type::Learn);
    EXPECT_EQ(rec.seq, 5u);
    EXPECT_EQ(rec.coverage, 2u);
    EXPECT_EQ(rec.mappings, run);
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.type, JournalRecord::Type::Trim);
    EXPECT_EQ(rec.seq, 6u);
    EXPECT_EQ(rec.coverage, 3u);
    EXPECT_TRUE(rec.mappings.empty());
    EXPECT_EQ(rec.trim_lpa, 0xABCDEFu);
    EXPECT_FALSE(reader.next(rec));
    EXPECT_FALSE(reader.sawCorruption());
    EXPECT_EQ(reader.validBytes(), j.sizeBytes());
}

} // namespace
} // namespace leaftl
