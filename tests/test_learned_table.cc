/**
 * @file
 * Tests for the LearnedTable facade: multi-group learning, stats,
 * memory accounting, compaction, serialization round-trips, and a
 * differential property test across many groups.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "learned/learned_table.hh"
#include "util/common.hh"
#include "util/rng.hh"

namespace leaftl
{
namespace
{

std::vector<std::pair<Lpa, Ppa>>
seqRun(Lpa first, uint32_t n, Ppa p0)
{
    std::vector<std::pair<Lpa, Ppa>> run;
    for (uint32_t i = 0; i < n; i++)
        run.emplace_back(first + i, p0 + i);
    return run;
}

TEST(LearnedTable, SequentialRunOneSegmentPerGroup)
{
    LearnedTable t(0);
    t.learn(seqRun(0, 1024, 5000));
    EXPECT_EQ(t.numGroups(), 4u);
    EXPECT_EQ(t.numSegments(), 4u);
    EXPECT_EQ(t.memoryBytes(), 4u * 8);
    for (Lpa lpa = 0; lpa < 1024; lpa++) {
        auto r = t.lookup(lpa);
        ASSERT_TRUE(r.has_value()) << lpa;
        EXPECT_EQ(r->ppa, 5000u + lpa);
        EXPECT_FALSE(r->approximate);
    }
    EXPECT_FALSE(t.lookup(1024).has_value());
    EXPECT_FALSE(t.lookup(999999).has_value());
}

TEST(LearnedTable, MemoryFarBelowPageLevelMapping)
{
    // The headline claim: sequential mappings compress by ~avg(L)*8/8.
    LearnedTable t(0);
    const uint32_t n = 64 * 1024;
    t.learn(seqRun(0, n, 0));
    const size_t page_level = static_cast<size_t>(n) * kMapEntryBytes;
    EXPECT_LT(t.memoryBytes() * 100, page_level);
}

TEST(LearnedTable, RandomPointsNoWorseThanPageLevel)
{
    // Paper §3.1: the worst case degenerates to single-point segments
    // costing no more than the 8-byte page-level entries.
    LearnedTable t(0);
    Rng rng(7);
    std::vector<std::pair<Lpa, Ppa>> run;
    Lpa lpa = 0;
    Ppa ppa = 0;
    for (int i = 0; i < 1000; i++) {
        lpa += 2 + rng.nextBounded(50); // Irregular gaps.
        ppa += 1 + rng.nextBounded(9);  // Irregular PPA jumps.
        run.emplace_back(lpa, ppa);
    }
    t.learn(run);
    EXPECT_LE(t.memoryBytes(), run.size() * kMapEntryBytes);
}

TEST(LearnedTable, StatsCountCreation)
{
    LearnedTable t(4);
    t.learn(seqRun(0, 256, 0));
    const auto &st = t.stats();
    EXPECT_EQ(st.segments_created, 1u);
    EXPECT_EQ(st.accurate_created, 1u);
    EXPECT_EQ(st.approximate_created, 0u);
    EXPECT_EQ(st.creation_lengths.max(), 256.0);

    // Irregular pattern creates approximate segments at gamma=4.
    std::vector<std::pair<Lpa, Ppa>> run;
    Rng rng(3);
    Lpa lpa = 1000;
    Ppa ppa = 9000;
    for (int i = 0; i < 40; i++) {
        run.emplace_back(lpa, ppa++);
        lpa += 1 + rng.nextBounded(4);
    }
    t.learn(run);
    EXPECT_GT(t.stats().approximate_created, 0u);
}

TEST(LearnedTable, LookupStatsTrackLevels)
{
    LearnedTable t(0);
    t.learn(seqRun(0, 256, 0));
    t.learn(seqRun(64, 64, 5000)); // Interior overwrite: 2 levels.
    t.lookup(10);
    t.lookup(70);
    const auto &st = t.stats();
    EXPECT_EQ(st.lookups, 2u);
    EXPECT_GE(st.lookup_levels_total, 3u);
}

TEST(LearnedTable, SerializeRoundTripPreservesLookups)
{
    LearnedTable t(4);
    Rng rng(11);
    std::map<Lpa, Ppa> truth;
    Ppa next_ppa = 100;
    for (int round = 0; round < 30; round++) {
        std::vector<std::pair<Lpa, Ppa>> run;
        Lpa lpa = rng.nextBounded(2000);
        for (int i = 0; i < 50; i++) {
            run.emplace_back(lpa, next_ppa);
            truth[lpa] = next_ppa;
            next_ppa++;
            lpa += 1 + rng.nextBounded(5);
        }
        t.learn(run);
    }

    const auto blob = t.serialize();
    auto restored = LearnedTable::deserialize(blob);
    restored->checkInvariants();
    EXPECT_EQ(restored->gamma(), 4u);
    EXPECT_EQ(restored->numSegments(), t.numSegments());
    EXPECT_EQ(restored->memoryBytes(), t.memoryBytes());

    for (const auto &[lpa, ppa] : truth) {
        auto a = t.lookup(lpa);
        auto b = restored->lookup(lpa);
        ASSERT_TRUE(a.has_value());
        ASSERT_TRUE(b.has_value());
        EXPECT_EQ(a->ppa, b->ppa) << lpa;
        EXPECT_EQ(a->approximate, b->approximate);
    }
}

TEST(LearnedTable, EmptySerializeRoundTrip)
{
    LearnedTable t(2);
    auto restored = LearnedTable::deserialize(t.serialize());
    EXPECT_EQ(restored->gamma(), 2u);
    EXPECT_EQ(restored->numSegments(), 0u);
    EXPECT_FALSE(restored->lookup(0).has_value());
}

/** Sorted random run of @a n LPAs in [first, first + span). */
std::vector<std::pair<Lpa, Ppa>>
randomRun(Rng &rng, Lpa first, uint32_t span, uint32_t n, Ppa &next_ppa)
{
    std::set<Lpa> lpas;
    while (lpas.size() < n)
        lpas.insert(first + static_cast<Lpa>(rng.nextBounded(span)));
    std::vector<std::pair<Lpa, Ppa>> run;
    for (const Lpa lpa : lpas)
        run.emplace_back(lpa, next_ppa++);
    return run;
}

TEST(LearnedTable, RestoreInPlaceMatchesAFreshlyDeserializedChain)
{
    // Snapshot groups 0-15, a delta over groups 4-7, then learn into
    // groups 40-55 that neither blob holds, compact, and look up (so
    // the stats are not zero). Restoring the chain in place must drop
    // groups 40-55 and leave exactly what a new table restored from
    // the chain holds.
    LearnedTable t(4);
    Rng rng(29);
    Ppa ppa = 0;
    for (int i = 0; i < 20; i++)
        t.learn(randomRun(rng, 0, 16 * kGroupSpan, 300, ppa));
    const std::vector<uint8_t> base = t.serialize();
    t.clearDirty();
    for (int i = 0; i < 5; i++)
        t.learn(randomRun(rng, 4 * kGroupSpan, 4 * kGroupSpan, 200, ppa));
    const std::vector<uint8_t> delta = t.serializeDirty();
    t.clearDirty();
    for (int i = 0; i < 20; i++)
        t.learn(randomRun(rng, 40 * kGroupSpan, 16 * kGroupSpan, 300, ppa));
    t.compact();
    for (Lpa lpa = 0; lpa < 56 * kGroupSpan; lpa += 7)
        (void)t.lookup(lpa);
    ASSERT_EQ(t.numGroups(), 32u);

    auto fresh = LearnedTable::deserialize(base);
    ASSERT_TRUE(fresh->applyDelta(delta));
    ASSERT_TRUE(t.restore(base));
    ASSERT_TRUE(t.applyDelta(delta));
    t.checkInvariants();

    EXPECT_EQ(t.numGroups(), 16u);
    EXPECT_EQ(t.numGroups(), fresh->numGroups());
    EXPECT_EQ(t.numSegments(), fresh->numSegments());
    EXPECT_EQ(t.memoryBytes(), fresh->memoryBytes());
    EXPECT_EQ(t.serialize(), fresh->serialize());
    EXPECT_EQ(t.serializeDirty(), fresh->serializeDirty());
    EXPECT_EQ(t.group(40), nullptr);

    // Same statistics, before and after the same lookups.
    auto expectSameStats = [&](const char *when) {
        const LearnedTableStats &a = t.stats();
        const LearnedTableStats &b = fresh->stats();
        EXPECT_EQ(a.segments_created, b.segments_created) << when;
        EXPECT_EQ(a.accurate_created, b.accurate_created) << when;
        EXPECT_EQ(a.approximate_created, b.approximate_created) << when;
        EXPECT_EQ(a.creation_lengths.count(), b.creation_lengths.count())
            << when;
        EXPECT_EQ(a.lookups, b.lookups) << when;
        EXPECT_EQ(a.lookup_levels_total, b.lookup_levels_total) << when;
        EXPECT_EQ(a.lookup_levels.count(), b.lookup_levels.count()) << when;
        EXPECT_EQ(a.lookup_cache_hits, b.lookup_cache_hits) << when;
    };
    expectSameStats("after restore");
    EXPECT_EQ(t.stats().lookups, 0u);
    for (Lpa lpa = 0; lpa < 56 * kGroupSpan; lpa += 3) {
        const auto a = t.lookup(lpa);
        const auto b = fresh->lookup(lpa);
        ASSERT_EQ(a.has_value(), b.has_value()) << lpa;
        if (a) {
            EXPECT_EQ(a->ppa, b->ppa) << lpa;
            EXPECT_EQ(a->levels_visited, b->levels_visited) << lpa;
        }
    }
    expectSameStats("after lookups");
    EXPECT_GT(t.stats().lookups, 0u);

    // The restored table learns on exactly like the fresh one.
    const auto more = randomRun(rng, 40 * kGroupSpan, 16 * kGroupSpan, 300,
                                ppa);
    t.learn(more);
    fresh->learn(more);
    EXPECT_EQ(t.serialize(), fresh->serialize());
    EXPECT_EQ(t.serializeDirty(), fresh->serializeDirty());
}

TEST(LearnedTable, CompactionNeverLosesMappings)
{
    LearnedTable t(0);
    std::map<Lpa, Ppa> truth;
    Ppa next_ppa = 0;
    for (int layer = 0; layer < 8; layer++) {
        auto run = seqRun(layer * 10, 300, next_ppa);
        for (auto &[l, p] : run)
            truth[l] = p;
        t.learn(run);
        next_ppa += 1000;
    }
    const size_t before = t.memoryBytes();
    t.compact();
    EXPECT_LE(t.memoryBytes(), before);
    t.checkInvariants();
    for (const auto &[lpa, ppa] : truth) {
        auto r = t.lookup(lpa);
        ASSERT_TRUE(r.has_value()) << lpa;
        EXPECT_EQ(r->ppa, ppa) << lpa;
    }
}

TEST(LearnedTable, LevelsAndCrbSampleSets)
{
    LearnedTable t(8);
    t.learn(seqRun(0, 256, 0));
    t.learn(seqRun(500, 128, 5000));
    EXPECT_EQ(t.levelsPerGroup().count(), t.numGroups());
    EXPECT_EQ(t.crbSizes().count(), t.numGroups());
}

TEST(LearnedTable, LearnReportsTouchedGroups)
{
    LearnedTable t(0);
    const auto touched = t.learn(seqRun(200, 200, 0)); // Groups 0 and 1.
    ASSERT_EQ(touched.size(), 2u);
    EXPECT_EQ(touched[0], 0u);
    EXPECT_EQ(touched[1], 1u);
    EXPECT_TRUE(t.learn({}).empty());
}

TEST(LearnedTable, GroupBytesAndIteration)
{
    LearnedTable t(0);
    t.learn(seqRun(0, 256, 0));
    t.learn(seqRun(512, 256, 1000));
    EXPECT_EQ(t.groupBytes(0), 8u);
    EXPECT_EQ(t.groupBytes(2), 8u);
    EXPECT_EQ(t.groupBytes(1), 0u); // Untouched group.
    size_t seen = 0, total = 0;
    t.forEachGroup([&](uint32_t idx) {
        seen++;
        total += t.groupBytes(idx);
    });
    EXPECT_EQ(seen, 2u);
    EXPECT_EQ(total, t.memoryBytes());
}

TEST(LearnedTable, LookupCacheServesHotAndSequentialReads)
{
    LearnedTable t(0);
    t.learn(seqRun(0, 1024, 5000));
    // A sequential scan re-hits each group's level-0 segment.
    for (Lpa lpa = 0; lpa < 1024; lpa++)
        ASSERT_EQ(t.lookup(lpa)->ppa, 5000u + lpa);
    const auto &st = t.stats();
    EXPECT_EQ(st.lookups, 1024u);
    // Every lookup but the first of each 256-LPA group short-circuits.
    EXPECT_EQ(st.lookup_cache_hits, 1024u - 4u);
    EXPECT_EQ(st.lookup_levels_total, 1024u); // Depth 1 either way.
}

TEST(LearnedTable, LookupCacheInvalidatedByLearnAndCompact)
{
    LearnedTable t(0);
    t.learn(seqRun(0, 256, 1000));
    // Warm the cache on a hot key...
    EXPECT_EQ(t.lookup(10)->ppa, 1010u);
    EXPECT_EQ(t.lookup(10)->ppa, 1010u);
    // ...then overwrite it. The cached entry must not serve stale PPAs.
    t.learn({{10, 9999}});
    EXPECT_EQ(t.lookup(10)->ppa, 9999u);
    EXPECT_EQ(t.lookup(10)->ppa, 9999u);
    t.compact();
    EXPECT_EQ(t.lookup(10)->ppa, 9999u);
    EXPECT_EQ(t.lookup(11)->ppa, 1011u);
    t.checkInvariants();
}

TEST(LearnedTable, LookupStatsMemoryIsBoundedOverMillionsOfLookups)
{
    // Regression for the unbounded-memory stats bug: lookup_levels
    // used to append one double per lookup forever (80 MB per 10M
    // lookups). The histogram's footprint is fixed at construction.
    LearnedTable t(0);
    t.learn(seqRun(0, 4096, 0));
    const size_t buckets_before = t.stats().lookup_levels.numBuckets();
    for (uint64_t i = 0; i < 10'000'000; i++)
        t.lookup(static_cast<Lpa>(i % 4096));
    EXPECT_EQ(t.stats().lookups, 10'000'000u);
    EXPECT_EQ(t.stats().lookup_levels.numBuckets(), buckets_before);
    EXPECT_DOUBLE_EQ(t.stats().lookup_levels.mean(), 1.0);
}

TEST(LearnedTable, SerializeIsCanonicalAcrossConstructionOrders)
{
    // Two tables with the same logical content, built in different
    // group orders, must serialize to byte-identical blobs (groups are
    // emitted in ascending index order, not construction order).
    LearnedTable a(0), b(0);
    a.learn(seqRun(0, 256, 100));
    a.learn(seqRun(1024, 256, 900));
    b.learn(seqRun(1024, 256, 900));
    b.learn(seqRun(0, 256, 100));
    EXPECT_EQ(a.serialize(), b.serialize());

    // Round trip is idempotent: deserialize(serialize()) reserializes
    // to the same bytes.
    const auto blob = a.serialize();
    EXPECT_EQ(LearnedTable::deserialize(blob)->serialize(), blob);
}

/**
 * Reference layout for the differential fuzz below: the pre-overhaul
 * std::map-of-groups table (ordered iteration, per-group update with a
 * throwaway scratch). Serialization follows the same wire format, so
 * blobs must match the flat-directory implementation byte for byte.
 */
class MapTableRef
{
  public:
    explicit MapTableRef(uint32_t gamma) : gamma_(gamma) {}

    void
    learn(const std::vector<std::pair<Lpa, Ppa>> &run)
    {
        fitRun(run, gamma_, fit_);
        for (const FitArena::GroupFit &gf : fit_.groups) {
            Group &group = groups_[gf.group];
            for (const FittedSegment &fs : fit_.segments(gf))
                group.update(fs);
        }
    }

    void
    compact()
    {
        for (auto &[idx, group] : groups_)
            group.compact();
    }

    std::optional<GroupLookup>
    lookup(Lpa lpa) const
    {
        auto it = groups_.find(groupOf(lpa));
        if (it == groups_.end())
            return std::nullopt;
        return it->second.lookup(static_cast<uint8_t>(groupOffset(lpa)));
    }

    std::vector<uint8_t>
    serialize() const
    {
        std::vector<uint8_t> blob;
        put<uint32_t>(blob, gamma_);
        put<uint32_t>(blob, static_cast<uint32_t>(groups_.size()));
        for (const auto &[idx, group] : groups_) {
            put<uint32_t>(blob, idx);
            put<uint32_t>(blob,
                          static_cast<uint32_t>(group.numSegments()));
            group.forEachSegment([&](const SegEntry &e, size_t level) {
                put<uint16_t>(blob, static_cast<uint16_t>(level));
                put<uint8_t>(blob, e.seg.slpa());
                put<uint8_t>(blob, e.seg.length());
                put<uint16_t>(blob, e.seg.kbits());
                put<int32_t>(blob, e.seg.intercept());
                if (e.seg.approximate()) {
                    const GroupMask &run = group.crb().mask(e.id);
                    put<uint16_t>(blob,
                                  static_cast<uint16_t>(run.count()));
                    run.forEach([&](uint8_t off) { put<uint8_t>(blob, off); });
                }
            });
        }
        return blob;
    }

    size_t
    memoryBytes() const
    {
        size_t bytes = 0;
        for (const auto &[idx, group] : groups_)
            bytes += group.memoryBytes();
        return bytes;
    }

  private:
    template <typename T>
    static void
    put(std::vector<uint8_t> &blob, T v)
    {
        const size_t at = blob.size();
        blob.resize(at + sizeof(T));
        std::memcpy(blob.data() + at, &v, sizeof(T));
    }

    uint32_t gamma_;
    FitArena fit_;
    std::map<uint32_t, Group> groups_;
};

class LayoutEquivalence
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>>
{
};

TEST_P(LayoutEquivalence, DirectoryMatchesMapReference)
{
    const uint32_t gamma = std::get<0>(GetParam());
    Rng rng(std::get<1>(GetParam()) * 104729 + 7);
    LearnedTable table(gamma);
    MapTableRef ref(gamma);

    Ppa next_ppa = 1;
    for (int round = 0; round < 25; round++) {
        std::vector<std::pair<Lpa, Ppa>> run;
        Lpa lpa = rng.nextBounded(3000);
        const uint32_t n = 1 + rng.nextBounded(200);
        for (uint32_t i = 0; i < n; i++) {
            run.emplace_back(lpa, next_ppa++);
            lpa += 1 + rng.nextBounded(5);
        }
        table.learn(run);
        ref.learn(run);
        if (round % 9 == 8) {
            table.compact();
            ref.compact();
        }
    }
    table.checkInvariants();

    // Identical lookups across the whole touched LPA space --
    // including never-learned addresses -- and identical memory.
    for (Lpa lpa = 0; lpa < 5000; lpa++) {
        const auto a = table.lookup(lpa);
        const auto b = ref.lookup(lpa);
        ASSERT_EQ(a.has_value(), b.has_value()) << lpa;
        if (a) {
            EXPECT_EQ(a->ppa, b->ppa) << lpa;
            EXPECT_EQ(a->approximate, b->approximate) << lpa;
            EXPECT_EQ(a->levels_visited, b->levels_visited) << lpa;
        }
    }
    EXPECT_EQ(table.memoryBytes(), ref.memoryBytes());

    // Byte-identical serialization across layouts, and a lossless
    // round trip through the directory deserializer.
    const auto blob = table.serialize();
    EXPECT_EQ(blob, ref.serialize());
    EXPECT_EQ(LearnedTable::deserialize(blob)->serialize(), blob);
}

INSTANTIATE_TEST_SUITE_P(
    GammaSeeds, LayoutEquivalence,
    ::testing::Combine(::testing::Values(0u, 1u, 4u, 16u),
                       ::testing::Range<uint64_t>(0, 8)));

class TableRandomSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>>
{
};

TEST_P(TableRandomSweep, DifferentialAcrossGroups)
{
    const uint32_t gamma = std::get<0>(GetParam());
    Rng rng(std::get<1>(GetParam()) * 7919 + 13);
    LearnedTable t(gamma);
    std::map<Lpa, Ppa> truth;
    Ppa next_ppa = 1;

    for (int round = 0; round < 40; round++) {
        std::vector<std::pair<Lpa, Ppa>> run;
        Lpa lpa = rng.nextBounded(4096);
        const uint32_t n = 1 + rng.nextBounded(300);
        for (uint32_t i = 0; i < n; i++) {
            run.emplace_back(lpa, next_ppa);
            truth[lpa] = next_ppa;
            next_ppa++;
            lpa += 1 + rng.nextBounded(6);
        }
        t.learn(run);
        if (round % 13 == 12)
            t.compact();
    }
    t.checkInvariants();

    for (const auto &[lpa, ppa] : truth) {
        auto r = t.lookup(lpa);
        ASSERT_TRUE(r.has_value()) << lpa;
        const int64_t err = static_cast<int64_t>(r->ppa) -
                            static_cast<int64_t>(ppa);
        const int64_t bound = r->approximate ? gamma : 0;
        EXPECT_LE(std::llabs(err), bound) << lpa;
    }
    // Unwritten LPAs must not resolve.
    for (int probe = 0; probe < 200; probe++) {
        const Lpa lpa = static_cast<Lpa>(rng.nextBounded(10000));
        if (!truth.count(lpa)) {
            EXPECT_FALSE(t.lookup(lpa).has_value()) << lpa;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    GammaSeeds, TableRandomSweep,
    ::testing::Combine(::testing::Values(0u, 1u, 4u, 16u),
                       ::testing::Range<uint64_t>(0, 10)));

/** LPA-sorted learn batch over @a lpas, PPAs consecutive from @a ppa. */
std::vector<std::pair<Lpa, Ppa>>
flushBatch(const std::set<Lpa> &lpas, Ppa &ppa)
{
    std::vector<std::pair<Lpa, Ppa>> run;
    run.reserve(lpas.size());
    for (Lpa lpa : lpas)
        run.emplace_back(lpa, ppa++);
    return run;
}

/** Stream shapes of the compaction pin. */
enum class PinShape
{
    Strided,
    Gc,
    Deep,
};

const char *
pinShapeName(PinShape shape)
{
    switch (shape) {
    case PinShape::Strided:
        return "strided";
    case PinShape::Gc:
        return "gc";
    case PinShape::Deep:
        return "deep";
    }
    return "?";
}

/**
 * One learn/compact stream of the compaction pin. "strided": a few
 * short runs over 4Ki LPAs with strides 1..4 and, now and then, one
 * above 64 (write-buffer flushes of interleaved sequential streams).
 * "gc": 2,048 random LPAs over 64Ki per batch (GC migration batches).
 * "deep": the deep single-point stacks of a GC-heavy random workload
 * -- over 16Ki LPAs (64 groups), three batches in four carry ~1 LPA
 * per group (GC migrating a few valid pages), every fourth is a host
 * flush of ~8 per group, and a few mapped LPAs are trimmed after each
 * batch (a tombstone single point, as LeaFtl::trim learns it).
 * Emits one line per compact(): the FNV-1a-64 of serialize().
 * @return the largest median levels-per-group seen before a compact().
 */
double
compactionStream(uint32_t gamma, PinShape shape, uint64_t seed,
                 std::ostringstream &out)
{
    const bool deep = shape == PinShape::Deep;
    const int batches = deep ? 160 : 36;
    const int compact_every = deep ? 16 : 6;
    Rng rng(seed * 2654435761u + gamma);
    LearnedTable table(gamma);
    Ppa ppa = 1;
    std::set<Lpa> lpas;
    double deepest = 0;
    for (int b = 1; b <= batches; b++) {
        lpas.clear();
        if (shape == PinShape::Gc) {
            while (lpas.size() < 2048)
                lpas.insert(static_cast<Lpa>(rng.nextBounded(65536)));
        } else if (deep) {
            const size_t n = b % 4 == 0 ? 512 : 64;
            while (lpas.size() < n)
                lpas.insert(static_cast<Lpa>(rng.nextBounded(16384)));
        } else {
            const uint64_t runs = 2 + rng.nextBounded(6);
            for (uint64_t r = 0; r < runs; r++) {
                const uint64_t stride = rng.nextBool(0.1)
                                            ? 65 + rng.nextBounded(60)
                                            : 1 + rng.nextBounded(4);
                Lpa lpa = static_cast<Lpa>(rng.nextBounded(4096));
                const uint64_t n = 1 + rng.nextBounded(24);
                for (uint64_t i = 0; i < n && lpa < 4096; i++) {
                    lpas.insert(lpa);
                    lpa += static_cast<Lpa>(stride);
                }
            }
        }
        table.learn(flushBatch(lpas, ppa));
        ppa += rng.nextBounded(64); // GC and other flushes in between.
        if (deep) {
            for (int t = 0; t < 4; t++) {
                const Lpa lpa = static_cast<Lpa>(rng.nextBounded(16384));
                if (table.lookup(lpa))
                    table.learn({{lpa, kTombstonePpa}});
            }
        }
        if (b % compact_every != 0)
            continue;
        deepest = std::max(deepest, table.levelsPerGroup().percentile(50));
        table.compact();
        const std::vector<uint8_t> blob = table.serialize();
        char line[96];
        std::snprintf(line, sizeof(line),
                      "%u %s %" PRIu64 " %d %016" PRIx64 "\n", gamma,
                      pinShapeName(shape), seed, b / compact_every,
                      fnv1a64(std::string(blob.begin(), blob.end())));
        out << line;
    }
    return deepest;
}

TEST(LearnedTable, CompactionMatchesTheGoldenDigests)
{
    // Pins every compact() result byte for byte: each line of
    // tests/data/golden_compaction.txt is "gamma shape seed k digest",
    // the digest of serialize() after the k-th compaction of that
    // stream. A change here changes simulated results.
    std::ostringstream generated;
    for (const uint32_t gamma : {0u, 1u, 4u, 16u}) {
        for (const PinShape shape : {PinShape::Strided, PinShape::Gc}) {
            for (uint64_t seed = 1; seed <= 3; seed++)
                compactionStream(gamma, shape, seed, generated);
        }
    }
    for (const uint32_t gamma : {0u, 4u}) {
        for (uint64_t seed = 1; seed <= 2; seed++) {
            const double deepest =
                compactionStream(gamma, PinShape::Deep, seed, generated);
            // Phase 2 sinks through stacks this deep on GC-heavy runs.
            if (gamma == 4) {
                EXPECT_GE(deepest, 40.0) << "seed " << seed;
            }
        }
    }

    std::ifstream golden_in(LEAFTL_SOURCE_DIR
                            "/tests/data/golden_compaction.txt");
    ASSERT_TRUE(golden_in.good())
        << "missing checked-in golden_compaction.txt; generated:\n"
        << generated.str();
    std::ostringstream golden;
    std::string line;
    while (std::getline(golden_in, line)) {
        if (!line.empty() && line[0] != '#')
            golden << line << '\n';
    }
    EXPECT_EQ(generated.str(), golden.str());
}

/**
 * Reference lookup: the first segment, level by level from the top,
 * whose full membership test holds @a off. No `may` mask and no
 * binary search.
 */
std::optional<GroupLookup>
scanLookup(const Group &g, uint8_t off)
{
    std::optional<GroupLookup> hit;
    g.forEachSegment([&](const SegEntry &e, size_t level) {
        if (hit || !g.hasLpa(e, off))
            return;
        hit = GroupLookup{e.seg.predict(off), e.seg.approximate(),
                          static_cast<uint32_t>(level + 1)};
    });
    return hit;
}

/** Every offset of every group of @a t looks up as scanLookup does. */
void
expectLookupsMatchScan(const LearnedTable &t, const std::string &where)
{
    t.checkInvariants();
    t.forEachGroup([&](uint32_t idx) {
        const Group &g = *t.group(idx);
        for (uint32_t o = 0; o < kGroupSpan; o++) {
            const uint8_t off = static_cast<uint8_t>(o);
            const auto got = g.lookup(off);
            const auto want = scanLookup(g, off);
            ASSERT_EQ(got.has_value(), want.has_value())
                << where << " group " << idx << " off " << o;
            if (!got)
                continue;
            ASSERT_EQ(got->ppa, want->ppa)
                << where << " group " << idx << " off " << o;
            ASSERT_EQ(got->approximate, want->approximate)
                << where << " group " << idx << " off " << o;
            ASSERT_EQ(got->levels_visited, want->levels_visited)
                << where << " group " << idx << " off " << o;
        }
    });
}

TEST(LearnedTable, LookupsMatchAFullScanUnderFuzz)
{
    // Learn / trim / compact streams over four groups, checked after
    // every step, after a full deserialize() and after applyDelta()
    // brings an older snapshot up to date.
    constexpr Lpa kSpan = 4 * kGroupSpan;
    for (const uint32_t gamma : {0u, 4u, 16u}) {
        for (uint64_t seed = 1; seed <= 3; seed++) {
            Rng rng(seed * 7919 + gamma);
            LearnedTable t(gamma);
            std::unique_ptr<LearnedTable> snapshot;
            Ppa ppa = 1;
            std::set<Lpa> lpas;
            for (int step = 1; step <= 120; step++) {
                const std::string where = "gamma " + std::to_string(gamma) +
                                          " seed " + std::to_string(seed) +
                                          " step " + std::to_string(step);
                const uint64_t op = rng.nextBounded(10);
                if (op < 6) {
                    // A flush: a few strided runs or random points.
                    lpas.clear();
                    const uint64_t runs = 1 + rng.nextBounded(4);
                    for (uint64_t r = 0; r < runs; r++) {
                        const uint64_t stride = rng.nextBool(0.5)
                                                    ? 1 + rng.nextBounded(3)
                                                    : 1 + rng.nextBounded(40);
                        Lpa lpa = static_cast<Lpa>(rng.nextBounded(kSpan));
                        const uint64_t n = 1 + rng.nextBounded(40);
                        for (uint64_t i = 0; i < n && lpa < kSpan; i++) {
                            lpas.insert(lpa);
                            lpa += static_cast<Lpa>(stride);
                        }
                    }
                    t.learn(flushBatch(lpas, ppa));
                    ppa += rng.nextBounded(16);
                } else if (op < 9) {
                    // A trim: a tombstone single point, as LeaFtl::trim
                    // learns it.
                    const Lpa lpa = static_cast<Lpa>(rng.nextBounded(kSpan));
                    t.learn({{lpa, kTombstonePpa}});
                } else {
                    t.compact();
                }
                ASSERT_NO_FATAL_FAILURE(expectLookupsMatchScan(t, where));

                if (step == 60) {
                    snapshot = LearnedTable::deserialize(t.serialize());
                    t.clearDirty();
                    ASSERT_NO_FATAL_FAILURE(expectLookupsMatchScan(
                        *snapshot, where + " deserialized"));
                }
            }
            ASSERT_TRUE(snapshot->applyDelta(t.serializeDirty()));
            ASSERT_NO_FATAL_FAILURE(
                expectLookupsMatchScan(*snapshot, "after applyDelta"));
            EXPECT_EQ(snapshot->serialize(), t.serialize());
            for (Lpa lpa = 0; lpa < kSpan; lpa++) {
                const auto a = t.lookup(lpa);
                const auto b = snapshot->lookup(lpa);
                ASSERT_EQ(a.has_value(), b.has_value()) << lpa;
                if (a) {
                    EXPECT_EQ(a->ppa, b->ppa) << lpa;
                    EXPECT_EQ(a->levels_visited, b->levels_visited) << lpa;
                }
            }
        }
    }
}

} // namespace
} // namespace leaftl
