/**
 * @file
 * Table 3: microbenchmarks of the learning and lookup operations
 * (google-benchmark). The paper measures, on an ARM Cortex-A72:
 *
 *   - learning a batch of 256 mapping entries: 9.8-10.8 us,
 *   - one LPA lookup: 40.2-67.5 ns (growing with gamma via the CRB).
 *
 * Host-CPU absolute numbers differ; the orders of magnitude and the
 * gamma trend are the reproduction target.
 */

#include <benchmark/benchmark.h>

#include <algorithm>

#include "learned/learned_table.hh"
#include "learned/plr.hh"
#include "util/rng.hh"

using namespace leaftl;

namespace
{

/** A 256-entry batch with mild irregularity (realistic flush). */
std::vector<std::pair<Lpa, Ppa>>
makeBatch(uint64_t seed, uint32_t spread)
{
    Rng rng(seed);
    std::vector<std::pair<Lpa, Ppa>> run;
    Lpa lpa = static_cast<Lpa>(rng.nextBounded(1u << 20));
    Ppa ppa = static_cast<Ppa>(rng.nextBounded(1u << 20));
    for (int i = 0; i < 256; i++) {
        run.emplace_back(lpa, ppa++);
        lpa += 1 + rng.nextBounded(spread);
    }
    return run;
}

void
BM_Learn256(benchmark::State &state)
{
    const uint32_t gamma = static_cast<uint32_t>(state.range(0));
    const auto batch = makeBatch(7, 3);
    FitArena arena;
    for (auto _ : state) {
        fitRun(batch, gamma, arena);
        benchmark::DoNotOptimize(arena.segs.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel("learn 256 mappings, gamma=" +
                   std::to_string(gamma));
}

void
BM_Lookup(benchmark::State &state)
{
    const uint32_t gamma = static_cast<uint32_t>(state.range(0));
    LearnedTable table(gamma);
    // Probe only learned LPAs: a lookup the table answers walks levels
    // and, for approximate segments, the CRB; a miss times neither.
    std::vector<Lpa> learned;
    for (int b = 0; b < 512; b++) {
        const auto batch = makeBatch(b, 3);
        table.learn(batch);
        for (const auto &mapping : batch)
            learned.push_back(mapping.first);
    }
    std::sort(learned.begin(), learned.end());
    learned.erase(std::unique(learned.begin(), learned.end()),
                  learned.end());

    Rng probe(99);
    for (auto _ : state) {
        const Lpa lpa = learned[probe.nextBounded(learned.size())];
        auto r = table.lookup(lpa);
        benchmark::DoNotOptimize(r);
    }
    state.SetLabel("lookup per LPA, gamma=" + std::to_string(gamma));
}

void
BM_LearnSequential256(benchmark::State &state)
{
    std::vector<std::pair<Lpa, Ppa>> run;
    for (int i = 0; i < 256; i++)
        run.emplace_back(1000 + i, 5000 + i);
    FitArena arena;
    for (auto _ : state) {
        fitRun(run, 0, arena);
        benchmark::DoNotOptimize(arena.segs.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel("learn 256 sequential mappings");
}

void
BM_Compaction(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        LearnedTable table(0);
        for (int b = 0; b < 64; b++)
            table.learn(makeBatch(b, 2));
        state.ResumeTiming();
        table.compact();
    }
    state.SetLabel("full-table compaction (64 batches)");
}

} // namespace

BENCHMARK(BM_Learn256)->Arg(0)->Arg(1)->Arg(4)->Arg(16);
BENCHMARK(BM_LearnSequential256);
BENCHMARK(BM_Lookup)->Arg(0)->Arg(1)->Arg(4)->Arg(16);
BENCHMARK(BM_Compaction);

BENCHMARK_MAIN();
