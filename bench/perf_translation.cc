/**
 * @file
 * Host-side translation microbench (the repo's perf anchor for the
 * learned mapping stack, complementing the paper's Fig. 23b): drives
 * a bare LearnedTable -- no flash model, no replay engine -- and
 * reports learned mappings/sec and lookups/sec for gamma in
 * {0, 1, 4, 16} over a sequential and a zipfian key stream.
 *
 * Methodology: the learn phase feeds LPA-sorted batches shaped like
 * write-buffer flushes (sequential wraps relearn whole groups; zipfian
 * batches are hot-key overwrites that grow and merge levels), with a
 * periodic compact() mimicking the FTL's maintenance cadence
 * (learn_ns times the learn() calls alone, compact_ns the compact()
 * calls). The lookup phase then replays a pre-generated key stream against the
 * frozen table so the timing loop measures translation alone -- not
 * key generation. Output is CSV (header + one row per combination)
 * on stdout; progress goes to stderr.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "learned/learned_table.hh"
#include "util/host_clock.hh"
#include "util/rng.hh"
#include "workload/zipf.hh"

using namespace leaftl;

namespace
{

struct PerfScale
{
    uint64_t span_pages = 256 * 1024;  ///< LPA space exercised (1 GB).
    uint64_t mappings = 1'000'000;     ///< Mappings learned per combo.
    uint64_t lookups = 2'000'000;      ///< Lookups timed per combo.
    uint64_t batch = 2048;             ///< Mappings per learn() batch.
    uint64_t compact_every = 64;       ///< Batches between compact().
};

PerfScale
parseArgs(int argc, char **argv)
{
    PerfScale s;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg.rfind("--ws=", 0) == 0) {
            s.span_pages = std::stoull(arg.substr(5));
        } else if (arg.rfind("--mappings=", 0) == 0) {
            s.mappings = std::stoull(arg.substr(11));
        } else if (arg.rfind("--lookups=", 0) == 0) {
            s.lookups = std::stoull(arg.substr(10));
        } else if (arg.rfind("--batch=", 0) == 0) {
            s.batch = std::stoull(arg.substr(8));
        } else if (arg == "--fast") {
            s.mappings /= 20;
            s.lookups /= 20;
            s.span_pages /= 4;
        } else {
            std::fprintf(stderr,
                         "perf_translation: unknown arg '%s'\n"
                         "usage: perf_translation [--ws=PAGES] "
                         "[--mappings=N] [--lookups=N] [--batch=N] "
                         "[--fast]\n",
                         arg.c_str());
            std::exit(2);
        }
    }
    if (s.span_pages < kGroupSpan)
        s.span_pages = kGroupSpan;
    if (s.batch == 0)
        s.batch = 1;
    return s;
}

struct LearnResult
{
    uint64_t ns;         ///< Wall time of the learn() calls.
    uint64_t compact_ns; ///< Wall time of the compact() calls.
    uint64_t mappings;   ///< Mappings actually learned (post-dedup).
};

/**
 * Learn ~s.mappings mappings into @a table. Zipfian batches are
 * deduplicated before learning (a write buffer holds one entry per
 * LPA), so the returned count is the real learned total, not the raw
 * draw count.
 */
LearnResult
learnPhase(LearnedTable &table, const PerfScale &s, bool zipfian,
           uint64_t seed)
{
    Rng rng(seed);
    ZipfGenerator zipf(s.span_pages, 0.99);

    // Pre-build every batch so the timed region is learn() alone.
    std::vector<std::vector<std::pair<Lpa, Ppa>>> batches;
    uint64_t produced = 0;
    uint64_t learned = 0;
    Lpa seq_next = 0;
    Ppa next_ppa = 0;
    std::vector<Lpa> keys;
    while (produced < s.mappings) {
        const uint64_t want =
            std::min<uint64_t>(s.batch, s.mappings - produced);
        keys.clear();
        if (zipfian) {
            for (uint64_t i = 0; i < want; i++)
                keys.push_back(static_cast<Lpa>(zipf.next(rng)));
            std::sort(keys.begin(), keys.end());
            keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        } else {
            for (uint64_t i = 0; i < want; i++) {
                keys.push_back(seq_next);
                seq_next = (seq_next + 1) % s.span_pages;
            }
            std::sort(keys.begin(), keys.end());
        }
        std::vector<std::pair<Lpa, Ppa>> batch;
        batch.reserve(keys.size());
        for (Lpa lpa : keys)
            batch.emplace_back(lpa, next_ppa++);
        produced += want;
        learned += batch.size();
        batches.push_back(std::move(batch));
    }

    uint64_t learn_ns = 0, compact_ns = 0;
    for (size_t b = 0; b < batches.size(); b++) {
        HostTimer timer;
        table.learn(batches[b]);
        learn_ns += timer.elapsedNs();
        if ((b + 1) % s.compact_every == 0) {
            timer.restart();
            table.compact();
            compact_ns += timer.elapsedNs();
        }
    }
    return {learn_ns, compact_ns, learned};
}

/** Time @a s.lookups lookups of a pre-generated key stream. */
uint64_t
lookupPhase(const LearnedTable &table, const PerfScale &s, bool zipfian,
            uint64_t seed)
{
    Rng rng(seed);
    ZipfGenerator zipf(s.span_pages, 0.99);
    std::vector<Lpa> keys;
    keys.reserve(s.lookups);
    Lpa seq_next = 0;
    for (uint64_t i = 0; i < s.lookups; i++) {
        if (zipfian) {
            keys.push_back(static_cast<Lpa>(zipf.next(rng)));
        } else {
            keys.push_back(seq_next);
            seq_next = (seq_next + 1) % s.span_pages;
        }
    }

    volatile uint64_t sink = 0;
    HostTimer timer;
    for (Lpa lpa : keys) {
        const auto r = table.lookup(lpa);
        if (r)
            sink = sink + r->ppa;
    }
    return timer.elapsedNs();
}

double
perSecond(uint64_t ops, uint64_t ns)
{
    return ns ? static_cast<double>(ops) * 1e9 / static_cast<double>(ns)
              : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const PerfScale s = parseArgs(argc, argv);
    std::fprintf(stderr,
                 "perf_translation: ws=%" PRIu64 " mappings=%" PRIu64
                 " lookups=%" PRIu64 "\n",
                 s.span_pages, s.mappings, s.lookups);

    std::printf("stream,gamma,span_pages,mappings,learn_ns,"
                "learns_per_sec,lookups,lookup_ns,lookups_per_sec,"
                "avg_levels,cache_hit_ratio,mapping_bytes,compact_ns\n");

    for (const bool zipfian : {false, true}) {
        for (const uint32_t gamma : {0u, 1u, 4u, 16u}) {
            LearnedTable table(gamma);
            const LearnResult learn =
                learnPhase(table, s, zipfian, /*seed=*/42 + gamma);
            const uint64_t lookup_ns =
                lookupPhase(table, s, zipfian, /*seed=*/1042 + gamma);

            const auto &st = table.stats();
            const double avg_levels =
                st.lookups ? static_cast<double>(st.lookup_levels_total) /
                                 static_cast<double>(st.lookups)
                           : 0.0;
            const double hit_ratio =
                st.lookups ? static_cast<double>(st.lookup_cache_hits) /
                                 static_cast<double>(st.lookups)
                           : 0.0;
            std::printf("%s,%u,%" PRIu64 ",%" PRIu64 ",%" PRIu64
                        ",%.0f,%" PRIu64 ",%" PRIu64 ",%.0f,%.3f,%.3f,"
                        "%zu,%" PRIu64 "\n",
                        zipfian ? "zipf" : "seq", gamma, s.span_pages,
                        learn.mappings, learn.ns,
                        perSecond(learn.mappings, learn.ns), s.lookups,
                        lookup_ns, perSecond(s.lookups, lookup_ns),
                        avg_levels, hit_ratio, table.memoryBytes(),
                        learn.compact_ns);
            std::fflush(stdout);
        }
    }
    return 0;
}
