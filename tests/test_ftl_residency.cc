/**
 * @file
 * Residency twins: DRAM residency must change what the cached FTLs
 * *charge*, never what they *answer*. Each case feeds one seeded
 * stream (sorted write batches, GC re-learns, trims, reads and
 * periodic maintenance) to a 2 KiB-budget instance and to an
 * unbounded one of the same FTL. At every step both must translate
 * identically and agree with a shadow map (exactly, or within gamma
 * when the prediction is approximate), and both must report the same
 * full mapping size. The tight twin must pay for its evictions in
 * extra translation reads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "ftl/dftl.hh"
#include "ftl/leaftl.hh"
#include "ftl/sftl.hh"
#include "ssd/config.hh"
#include "util/rng.hh"

namespace leaftl
{
namespace
{

class MockOps : public FtlOps
{
  public:
    void chargeTransRead() override { reads++; }
    void chargeTransWrite() override { writes++; }
    uint64_t reads = 0;
    uint64_t writes = 0;
};

constexpr uint32_t kPageSize = 4096;   // 512 entries per t-page.
constexpr uint32_t kSpace = 4096;      // LPAs the stream touches.
constexpr uint64_t kTightBudget = 2048;
constexpr int kSteps = 1500;

std::unique_ptr<Ftl>
makeTwin(FtlKind kind, uint32_t gamma, FtlOps &ops, uint64_t budget)
{
    switch (kind) {
      case FtlKind::DFTL:
        return std::make_unique<Dftl>(ops, kPageSize, budget);
      case FtlKind::SFTL:
        return std::make_unique<Sftl>(ops, kPageSize, budget);
      case FtlKind::LeaFTL: {
        auto ftl = std::make_unique<LeaFtl>(ops, gamma);
        ftl->setMappingBudget(budget);
        return ftl;
      }
    }
    return nullptr;
}

class FtlResidency
    : public ::testing::TestWithParam<std::tuple<FtlKind, uint32_t>>
{
};

TEST_P(FtlResidency, TightBudgetChangesChargesNotAnswers)
{
    const auto [kind, gamma] = GetParam();
    MockOps tight_ops;
    MockOps loose_ops;
    auto tight = makeTwin(kind, gamma, tight_ops, kTightBudget);
    auto loose = makeTwin(kind, gamma, loose_ops, UINT64_MAX);

    std::vector<Ppa> shadow(kSpace, kInvalidPpa); // kInvalidPpa = unmapped.
    Ppa next_ppa = 1000;
    Rng rng(0x7E51DE00u + static_cast<uint32_t>(kind) * 16 + gamma);

    // Translate on both twins and check them against each other and
    // against the shadow map. @return whether the LPA translated.
    auto check = [&](Lpa lpa, int step) {
        const TranslateResult a = tight->translate(lpa);
        const TranslateResult b = loose->translate(lpa);
        EXPECT_EQ(a.found, b.found) << "step " << step << " lpa " << lpa;
        EXPECT_EQ(a.ppa, b.ppa) << "step " << step << " lpa " << lpa;
        EXPECT_EQ(a.approximate, b.approximate)
            << "step " << step << " lpa " << lpa;
        if (shadow[lpa] == kInvalidPpa) {
            // Only an approximate prediction may claim an unmapped LPA
            // (the device's OOB check rejects it).
            EXPECT_TRUE(!a.found || a.approximate)
                << "step " << step << " lpa " << lpa;
        } else {
            EXPECT_TRUE(a.found) << "step " << step << " lpa " << lpa;
            const int64_t err = static_cast<int64_t>(a.ppa) -
                                static_cast<int64_t>(shadow[lpa]);
            EXPECT_LE(std::llabs(err), a.approximate ? gamma : 0)
                << "step " << step << " lpa " << lpa;
        }
        return a.found && b.found;
    };

    for (int step = 0; step < kSteps; step++) {
        const uint64_t op = rng.nextBounded(20);
        if (op < 5) {
            // Host buffer flush: a sequential run or a random sorted
            // batch, ascending PPAs.
            std::vector<Lpa> lpas;
            if (rng.nextBool(0.5)) {
                const uint32_t len = 8 + rng.nextBounded(57);
                const Lpa first = rng.nextBounded(kSpace - len);
                for (uint32_t i = 0; i < len; i++)
                    lpas.push_back(first + i);
            } else {
                for (int i = 0; i < 16; i++)
                    lpas.push_back(rng.nextBounded(kSpace));
                std::sort(lpas.begin(), lpas.end());
                lpas.erase(std::unique(lpas.begin(), lpas.end()),
                           lpas.end());
            }
            std::vector<std::pair<Lpa, Ppa>> run;
            for (Lpa lpa : lpas) {
                run.emplace_back(lpa, next_ppa);
                shadow[lpa] = next_ppa++;
            }
            tight->recordMappings(run);
            loose->recordMappings(run);
        } else if (op < 7) {
            // GC migration: relocate the live LPAs of one window.
            const Lpa first = rng.nextBounded(kSpace - 256);
            std::vector<std::pair<Lpa, Ppa>> run;
            for (Lpa lpa = first; lpa < first + 256 && run.size() < 32;
                 lpa++) {
                if (shadow[lpa] == kInvalidPpa)
                    continue;
                run.emplace_back(lpa, next_ppa);
                shadow[lpa] = next_ppa++;
            }
            tight->recordMappingsGc(run);
            loose->recordMappingsGc(run);
        } else if (op < 9) {
            // Trim, as Ssd::trim issues it: only LPAs that translate.
            const Lpa lpa = rng.nextBounded(kSpace);
            if (check(lpa, step)) {
                tight->trim(lpa);
                loose->trim(lpa);
                shadow[lpa] = kInvalidPpa;
            }
        } else if (op < 19) {
            for (int i = 0; i < 4; i++)
                check(rng.nextBounded(kSpace), step);
        } else {
            tight->periodicMaintenance();
            loose->periodicMaintenance();
        }
        ASSERT_EQ(tight->fullMappingBytes(), loose->fullMappingBytes())
            << "step " << step;
        ASSERT_FALSE(::testing::Test::HasFailure()) << "step " << step;
    }

    EXPECT_LT(tight->residentMappingBytes(), tight->fullMappingBytes());
    EXPECT_GT(tight_ops.reads, loose_ops.reads);
}

std::string
caseName(const ::testing::TestParamInfo<std::tuple<FtlKind, uint32_t>> &p)
{
    const FtlKind kind = std::get<0>(p.param);
    const char *name = kind == FtlKind::DFTL   ? "Dftl"
                       : kind == FtlKind::SFTL ? "Sftl"
                                               : "LeaFtl";
    return std::string(name) + "Gamma" + std::to_string(std::get<1>(p.param));
}

INSTANTIATE_TEST_SUITE_P(
    CachedFtls, FtlResidency,
    ::testing::Combine(::testing::Values(FtlKind::DFTL, FtlKind::SFTL,
                                         FtlKind::LeaFTL),
                       ::testing::Values(0u, 4u)),
    caseName);

/** The resident groups' table sizes, recomputed one by one. */
size_t
recomputedResidentBytes(const LeaFtl &ftl)
{
    size_t bytes = 0;
    ftl.learnedTable()->forEachGroup([&](uint32_t idx) {
        if (ftl.groupResident(idx))
            bytes += ftl.learnedTable()->groupBytes(idx);
    });
    return bytes;
}

class LeaFtlResidentBytes
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>>
{
};

TEST_P(LeaFtlResidentBytes, MatchTheResidentGroupsAfterEveryStep)
{
    // LeaFtl keeps each resident group's size cached and skips the
    // refresh on a clean touch of a resident group; the running total
    // must still equal the resident groups' sizes after every learn,
    // translate, trim, compaction and crash-restore.
    const auto [gamma, budget] = GetParam();
    MockOps ops;
    LeaFtl ftl(ops, gamma);
    ftl.setMappingBudget(budget);
    Rng rng(0xB17E5u + gamma * 31 + (budget == UINT64_MAX ? 1 : 0));
    Ppa next_ppa = 1000;

    for (int step = 0; step < kSteps; step++) {
        const uint64_t op = rng.nextBounded(20);
        if (op < 6) {
            std::vector<std::pair<Lpa, Ppa>> run;
            Lpa lpa = rng.nextBounded(kSpace / 2);
            const uint32_t stride = 1 + rng.nextBounded(24);
            for (int i = 0; i < 24 && lpa < kSpace; i++, lpa += stride)
                run.emplace_back(lpa, next_ppa++);
            if (op < 4)
                ftl.recordMappings(run);
            else
                ftl.recordMappingsGc(run);
        } else if (op < 8) {
            ftl.trim(rng.nextBounded(kSpace));
        } else if (op < 18) {
            for (int i = 0; i < 4; i++)
                ftl.translate(rng.nextBounded(kSpace));
        } else if (op < 19) {
            ftl.periodicMaintenance();
        } else {
            // Crash: the table comes back from a snapshot, cold.
            ftl.restoreChain(ftl.learnedTable()->serialize(), {});
        }
        ASSERT_EQ(ftl.residentMappingBytes(), recomputedResidentBytes(ftl))
            << "step " << step << " op " << op;
    }
    if (budget != UINT64_MAX) {
        EXPECT_LT(ftl.residentMappingBytes(), ftl.fullMappingBytes());
    }
}

INSTANTIATE_TEST_SUITE_P(
    GammaBudget, LeaFtlResidentBytes,
    ::testing::Combine(::testing::Values(0u, 4u),
                       ::testing::Values(kTightBudget, UINT64_MAX)));

} // namespace
} // namespace leaftl
