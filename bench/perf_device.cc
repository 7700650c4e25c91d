/**
 * @file
 * Device hot-path microbench: the perf anchor for the flat LRU data
 * cache, the open-addressing write buffer, and the bucketed GC victim
 * index, each timed head-to-head against the implementation it
 * replaced (bench/device_reference.hh, kept verbatim).
 *
 * Sections:
 *   - cache_churn:  zipf-skewed lookup/insert/invalidate mix against
 *     a DataCache at a fixed capacity -- the per-host-read path.
 *   - write_buffer: add/contains/remove plus periodic drains -- the
 *     per-host-write and buffered-read hit path.
 *   - victim_pick:  doGcPass-shaped victim selection (64-victim
 *     exclude loops) against devices of growing block counts in a
 *     steady-state fullness regime -- the index turns a full-device
 *     scan per pick into a walk of the emptiest buckets.
 *   - wear_check:   eraseSpread + pickWearVictim, O(1)/bucketed vs
 *     device-wide rescans.
 *
 * Both implementations replay identical pre-generated operation
 * streams and the bench asserts identical observable results, so the
 * reported ratio is a pure data-structure comparison. Output is CSV
 * on stdout: section,impl,param,ops,ns,ops_per_sec with impl=speedup
 * summary rows (ops_per_sec column = reference_ns / flat_ns).
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "device_reference.hh"
#include "flash/flash_array.hh"
#include "ssd/block_manager.hh"
#include "ssd/data_cache.hh"
#include "ssd/write_buffer.hh"
#include "util/host_clock.hh"
#include "util/rng.hh"
#include "workload/zipf.hh"

using namespace leaftl;

namespace
{

struct Scale
{
    uint64_t cache_ops = 20'000'000;
    uint64_t cache_capacity = 64 * 1024;
    uint64_t cache_span = 1024 * 1024;
    uint64_t buffer_ops = 20'000'000;
    uint32_t buffer_capacity = 16 * 1024;
    uint64_t pick_rounds = 200;   ///< At the smallest device; scaled down
                                  ///< with block count so the reference
                                  ///< scan stays tractable.
    std::vector<uint32_t> pick_blocks = {4096, 65536, 524288};
    uint64_t wear_checks = 8192;  ///< Same scaling.
};

Scale
parseArgs(int argc, char **argv)
{
    Scale s;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--fast") {
            s.cache_ops /= 40;
            s.buffer_ops /= 40;
            s.pick_rounds = 8;
            s.pick_blocks = {4096, 65536};
            s.wear_checks = 256;
        } else {
            std::fprintf(stderr,
                         "perf_device: unknown arg '%s'\n"
                         "usage: perf_device [--fast]\n",
                         arg.c_str());
            std::exit(2);
        }
    }
    return s;
}

/** Keep the reference's O(blocks)-per-query cost roughly constant as
 *  the device grows, so the big-device rows finish in seconds. */
uint64_t
scaleByBlocks(uint64_t base, uint32_t blocks)
{
    const uint64_t scaled = base * 4096 / blocks;
    return scaled > 0 ? scaled : 1;
}

void
emit(const char *section, const char *impl, uint64_t param, uint64_t ops,
     uint64_t ns, double ops_per_sec)
{
    std::printf("%s,%s,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%.0f\n",
                section, impl, param, ops, ns, ops_per_sec);
}

void
emitPair(const char *section, uint64_t param, uint64_t ops,
         uint64_t new_ns, uint64_t old_ns)
{
    const double new_rate =
        static_cast<double>(ops) / (static_cast<double>(new_ns) / 1e9);
    const double old_rate =
        static_cast<double>(ops) / (static_cast<double>(old_ns) / 1e9);
    emit(section, "flat", param, ops, new_ns, new_rate);
    emit(section, "reference", param, ops, old_ns, old_rate);
    std::printf("%s,speedup,%" PRIu64 ",%" PRIu64 ",0,%.2f\n", section,
                param, ops,
                static_cast<double>(old_ns) / static_cast<double>(new_ns));
}

// ---------------------------------------------------------- cache churn

/** Op stream entry: op 0 = lookup(+insert on miss), 1 = invalidate. */
struct CacheOp
{
    Lpa lpa;
    uint8_t op;
};

template <typename Cache>
uint64_t
runCache(Cache &cache, const std::vector<CacheOp> &ops, uint64_t &sink)
{
    HostTimer timer;
    for (const CacheOp &o : ops) {
        if (o.op == 0) {
            if (cache.lookup(o.lpa))
                sink++;
            else
                cache.insert(o.lpa); // Miss fill, like Ssd::read.
        } else {
            cache.invalidate(o.lpa); // Overwrite path.
        }
    }
    return timer.elapsedNs();
}

void
benchCacheChurn(const Scale &s)
{
    Rng rng(0xCAC4E5EED);
    ZipfGenerator zipf(s.cache_span, 0.99);
    std::vector<CacheOp> ops;
    ops.reserve(s.cache_ops);
    for (uint64_t i = 0; i < s.cache_ops; i++) {
        const Lpa lpa = static_cast<Lpa>(zipf.next(rng));
        const uint8_t op = rng.nextBounded(8) == 0 ? 1 : 0;
        ops.push_back({lpa, op});
    }

    DataCache flat(s.cache_capacity);
    RefDataCache ref(s.cache_capacity);
    uint64_t sink_flat = 0;
    uint64_t sink_ref = 0;
    const uint64_t new_ns = runCache(flat, ops, sink_flat);
    const uint64_t old_ns = runCache(ref, ops, sink_ref);
    if (sink_flat != sink_ref || flat.hits() != ref.hits() ||
        flat.misses() != ref.misses() || flat.size() != ref.size()) {
        std::fprintf(stderr, "cache_churn: impls diverged!\n");
        std::exit(1);
    }
    emitPair("cache_churn", s.cache_capacity, ops.size(), new_ns, old_ns);
}

// --------------------------------------------------------- write buffer

void
benchWriteBuffer(const Scale &s)
{
    Rng rng(0xB0FFE12);
    ZipfGenerator zipf(s.buffer_capacity * 8ull, 0.99);
    std::vector<CacheOp> ops;
    ops.reserve(s.buffer_ops);
    for (uint64_t i = 0; i < s.buffer_ops; i++) {
        const Lpa lpa = static_cast<Lpa>(zipf.next(rng));
        // 5:2:1 add : contains-probe : remove, like write-heavy replay
        // with buffered-read hits and trims.
        const uint32_t r = rng.nextBounded(8);
        ops.push_back({lpa, static_cast<uint8_t>(r < 5 ? 0 : r < 7 ? 1 : 2)});
    }

    WriteBuffer flat(s.buffer_capacity);
    RefWriteBuffer ref(s.buffer_capacity);
    uint64_t sum_flat = 0;
    uint64_t sum_ref = 0;

    HostTimer t_new;
    for (const CacheOp &o : ops) {
        if (o.op == 0) {
            flat.add(o.lpa);
            if (flat.full())
                sum_flat += flat.drainSorted().size();
        } else if (o.op == 1) {
            sum_flat += flat.contains(o.lpa);
        } else {
            flat.remove(o.lpa);
        }
    }
    sum_flat += flat.drainFifo().size();
    const uint64_t new_ns = t_new.elapsedNs();

    HostTimer t_old;
    for (const CacheOp &o : ops) {
        if (o.op == 0) {
            ref.add(o.lpa);
            if (ref.full())
                sum_ref += ref.drainSorted().size();
        } else if (o.op == 1) {
            sum_ref += ref.contains(o.lpa);
        } else {
            ref.remove(o.lpa);
        }
    }
    sum_ref += ref.drainFifo().size();
    const uint64_t old_ns = t_old.elapsedNs();

    if (sum_flat != sum_ref) {
        std::fprintf(stderr, "write_buffer: impls diverged!\n");
        std::exit(1);
    }
    emitPair("write_buffer", s.buffer_capacity, ops.size(), new_ns, old_ns);
}

// ---------------------------------------------------------- victim pick

/**
 * A populated device for the pick benches: @a blocks blocks of 8
 * pages (few pages per block keeps population O(blocks) while the old
 * scan's cost stays O(blocks) per pick -- the honest comparison),
 * 90% allocated. Invalidation depth is geometric, mirroring the
 * steady-state GC regime greedy selection relies on: most blocks stay
 * nearly full and only a thin tail is nearly empty, so the emptiest
 * buckets the index walks are small while the reference still scans
 * the whole device.
 */
struct PickRig
{
    explicit PickRig(uint32_t blocks)
        : geom(makeGeom(blocks)),
          flash(geom),
          bm(flash),
          ref(flash, blocks)
    {
        Rng rng(0x6CF111 + blocks);
        const uint32_t ppb = geom.pages_per_block;
        const auto target = static_cast<uint32_t>(blocks * 0.9);
        for (uint32_t i = 0; i < target; i++) {
            const uint32_t b = bm.allocateBlock();
            ref.onAllocate(b);
            const Ppa first = geom.firstPpa(b);
            for (uint32_t p = 0; p < ppb; p++) {
                flash.programPage(first + p, first + p);
                ref.onMarkValid(b);
            }
            bm.markValidRun(first, ppb);
            uint32_t drop = 0;
            while (drop < ppb && rng.nextBounded(2) == 0)
                drop++;
            for (uint32_t p = 0; p < drop; p++) {
                bm.invalidate(first + p);
                ref.onInvalidate(b);
            }
        }
    }

    static Geometry makeGeom(uint32_t blocks)
    {
        Geometry g;
        g.num_channels = 4;
        g.blocks_per_channel = blocks / 4;
        g.pages_per_block = 8;
        return g;
    }

    Geometry geom;
    FlashArray flash;
    BlockManager bm;
    RefVictimScan ref;
};

/** One doGcPass-shaped selection: up to 64 picks, each excluding the
 *  previous victims. Accumulates picked block ids into @a sink. */
template <typename PickFn>
uint64_t
victimRound(PickFn pick, std::vector<uint32_t> &exclude, uint64_t &sink)
{
    exclude.clear();
    while (exclude.size() < 64) {
        const std::optional<uint32_t> v = pick(exclude);
        if (!v)
            break;
        exclude.push_back(*v);
        sink += *v;
    }
    return exclude.size();
}

void
benchVictimPick(const Scale &s, uint32_t blocks)
{
    PickRig rig(blocks);
    const uint64_t rounds = scaleByBlocks(s.pick_rounds, blocks);
    std::vector<uint32_t> exclude;
    exclude.reserve(64);

    uint64_t sink_flat = 0;
    uint64_t sink_ref = 0;
    uint64_t picks = 0;

    HostTimer t_new;
    for (uint64_t r = 0; r < rounds; r++) {
        picks += victimRound(
            [&](const std::vector<uint32_t> &ex) {
                return rig.bm.pickGcVictim(ex);
            },
            exclude, sink_flat);
    }
    const uint64_t new_ns = t_new.elapsedNs();

    HostTimer t_old;
    for (uint64_t r = 0; r < rounds; r++) {
        victimRound(
            [&](const std::vector<uint32_t> &ex) {
                return rig.ref.pickGcVictim(ex);
            },
            exclude, sink_ref);
    }
    const uint64_t old_ns = t_old.elapsedNs();

    if (sink_flat != sink_ref) {
        std::fprintf(stderr, "victim_pick: impls diverged!\n");
        std::exit(1);
    }
    emitPair("victim_pick", blocks, picks, new_ns, old_ns);
}

void
benchWearCheck(const Scale &s, uint32_t blocks)
{
    PickRig rig(blocks);
    const uint64_t checks = scaleByBlocks(s.wear_checks, blocks);
    Rng rng(0x5EAD + blocks);
    uint64_t sink_flat = 0;
    uint64_t sink_ref = 0;

    // Wear a few free blocks so there is a spread to find.
    for (uint32_t i = 0; i < 64; i++) {
        const uint32_t b = rng.nextBounded(blocks);
        if (rig.flash.blockState(b) == BlockState::Free)
            rig.flash.eraseBlock(b);
    }

    HostTimer t_new;
    for (uint64_t i = 0; i < checks; i++) {
        sink_flat += rig.bm.eraseSpread();
        if (const auto v = rig.bm.pickWearVictim(0))
            sink_flat += *v;
    }
    const uint64_t new_ns = t_new.elapsedNs();

    HostTimer t_old;
    for (uint64_t i = 0; i < checks; i++) {
        sink_ref += rig.ref.eraseSpread();
        if (const auto v = rig.ref.pickWearVictim(0))
            sink_ref += *v;
    }
    const uint64_t old_ns = t_old.elapsedNs();

    if (sink_flat != sink_ref) {
        std::fprintf(stderr, "wear_check: impls diverged!\n");
        std::exit(1);
    }
    emitPair("wear_check", blocks, checks * 2, new_ns, old_ns);
}

} // namespace

int
main(int argc, char **argv)
{
    const Scale s = parseArgs(argc, argv);
    std::printf("section,impl,param,ops,ns,ops_per_sec\n");
    std::fprintf(stderr, "perf_device: cache churn...\n");
    benchCacheChurn(s);
    std::fprintf(stderr, "perf_device: write buffer...\n");
    benchWriteBuffer(s);
    for (uint32_t blocks : s.pick_blocks) {
        std::fprintf(stderr, "perf_device: victim pick @ %u blocks...\n",
                     blocks);
        benchVictimPick(s, blocks);
        std::fprintf(stderr, "perf_device: wear check @ %u blocks...\n",
                     blocks);
        benchWearCheck(s, blocks);
    }
    return 0;
}
