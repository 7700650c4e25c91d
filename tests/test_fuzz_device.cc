/**
 * @file
 * Device-level fuzz: random interleavings of writes, reads, trims,
 * drains, snapshots, and crashes against a shadow model, across
 * gammas and geometries. Invariants checked continuously:
 *
 *   - every live LPA resolves to a valid flash page carrying it;
 *   - trimmed LPAs do not resolve;
 *   - reads never return unresolved in trim-free phases;
 *   - the device survives GC and compaction under all mixes.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>

#include "ssd/ssd.hh"
#include "util/rng.hh"

namespace leaftl
{
namespace
{

struct FuzzParams
{
    uint32_t gamma;
    uint32_t pages_per_block;
    uint32_t channels;
    uint64_t seed;
};

class DeviceFuzz : public ::testing::TestWithParam<FuzzParams>
{
};

TEST_P(DeviceFuzz, RandomOpsAgainstShadow)
{
    const FuzzParams p = GetParam();
    SsdConfig cfg;
    cfg.geometry.num_channels = p.channels;
    cfg.geometry.blocks_per_channel = 1024 / p.pages_per_block * 4;
    cfg.geometry.pages_per_block = p.pages_per_block;
    cfg.ftl = FtlKind::LeaFTL;
    cfg.gamma = p.gamma;
    cfg.dram_bytes = 1ull << 20;
    cfg.write_buffer_bytes =
        static_cast<uint64_t>(p.pages_per_block) * 4096;
    cfg.compaction_interval = 700; // Aggressive: stress merging.
    Ssd ssd(cfg);

    const uint64_t ws = ssd.config().hostPages() * 3 / 5;
    Rng rng(p.seed * 2654435761u + 17);

    enum class State { Live, Trimmed };
    std::map<Lpa, State> shadow;

    Tick now = 0;
    for (int op = 0; op < 6000; op++) {
        const double dice = rng.nextDouble();
        const Lpa lpa = static_cast<Lpa>(rng.nextBounded(ws));
        if (dice < 0.55) {
            shadow[lpa] = State::Live;
            now += ssd.write(lpa, now);
        } else if (dice < 0.62) {
            shadow[lpa] = State::Trimmed;
            now += ssd.trim(lpa, now);
        } else if (dice < 0.92) {
            now += ssd.read(lpa, now); // Internal asserts verify.
        } else if (dice < 0.95) {
            ssd.drainBuffer(now);
        } else if (dice < 0.97) {
            ssd.drainBuffer(now);
            ssd.persistMapping(now);
        } else {
            ssd.drainBuffer(now);
            ssd.crashAndRecover(now);
        }

        if (op % 1499 == 1498) {
            ssd.drainBuffer(now);
            for (const auto &[l, state] : shadow) {
                const auto oracle = ssd.oraclePpa(l);
                if (state == State::Live) {
                    ASSERT_TRUE(oracle.has_value())
                        << "lost live LPA " << l << " at op " << op;
                    EXPECT_EQ(ssd.flash().peekLpa(*oracle), l);
                } else {
                    EXPECT_FALSE(oracle.has_value())
                        << "trimmed LPA " << l << " resurfaced";
                }
            }
        }
    }

    // Final sweep: every live page readable, every trimmed page gone.
    ssd.drainBuffer(now);
    for (const auto &[l, state] : shadow) {
        if (state == State::Live) {
            ASSERT_TRUE(ssd.oraclePpa(l).has_value()) << l;
            now += ssd.read(l, now);
        } else {
            EXPECT_FALSE(ssd.oraclePpa(l).has_value()) << l;
        }
    }
}

std::vector<FuzzParams>
fuzzMatrix()
{
    std::vector<FuzzParams> out;
    for (uint32_t gamma : {0u, 1u, 4u, 16u}) {
        for (uint64_t seed : {1ull, 2ull, 3ull}) {
            out.push_back({gamma, 32, 4, seed});
        }
    }
    // Geometry variations at a fixed gamma.
    out.push_back({4, 16, 2, 7});
    out.push_back({4, 64, 8, 8});
    out.push_back({0, 128, 16, 9});
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, DeviceFuzz, ::testing::ValuesIn(fuzzMatrix()),
    [](const auto &info) {
        // snprintf instead of chained string operator+: GCC 12's
        // -Werror=restrict fires a false positive on the concat chain.
        char name[64];
        std::snprintf(name, sizeof(name), "g%" PRIu32 "_ppb%" PRIu32
                      "_ch%" PRIu32 "_s%" PRIu64, info.param.gamma,
                      info.param.pages_per_block, info.param.channels,
                      info.param.seed);
        return std::string(name);
    });

} // namespace
} // namespace leaftl
