/**
 * @file
 * Shared scaffolding for the figure/table benches: a scaled-down
 * device configuration (the paper's 2 TB SSD with 1 GB DRAM shrinks
 * to a 2 GB SSD with a proportional DRAM budget so every figure runs
 * in seconds), a tiny flag parser, and the run helper every bench
 * uses. Ratios, not absolute numbers, are the reproduction target.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>

#include "cli/sim_cli.hh"
#include "config/experiment.hh"
#include "flash/presets.hh"
#include "sim/runner.hh"
#include "sim/reporter.hh"
#include "ssd/ssd.hh"
// The shared host clock: every bench (and leaftl_sim's wall_ns
// column) times the simulator with this one steady_clock wrapper
// instead of ad-hoc chrono code.
#include "util/host_clock.hh"
#include "workload/app_models.hh"
#include "workload/msr_models.hh"

namespace leaftl
{
namespace bench
{

/**
 * A bench's starting request count and working set, before any flag
 * or --config: the shared defaults, or a bench's own smaller ones.
 */
struct ScaleDefaults
{
    uint64_t requests = 200'000;
    uint64_t working_set_pages = 96 * 1024; ///< 384 MB at 4 KB pages.
};

/** Scale knobs shared by all benches (override via flags). */
struct BenchScale
{
    /** Start at the bench's ScaleDefaults (see parseScale). */
    uint64_t requests = 0;
    uint64_t working_set_pages = 0;
    /**
     * 0 = derive from the working set (cli::makeConfig's default: DRAM
     * holds half the page-level mapping table, the paper's mapping-
     * pressure regime). Override with --dram-mb= for absolute sizes.
     */
    uint64_t dram_bytes = 0;
    uint32_t gamma = 0;
    /** Outstanding host requests during replay (1 = closed loop). */
    uint32_t queue_depth = 1;
    /** Device preset name; empty = derive geometry from the ws. */
    std::string device;
    bool fast = false;

    /**
     * The full declarative spec behind the scalars above. Flags and
     * --config=FILE both land here (a scalar flag collapses its sweep
     * axis to one value), so benches that sweep an axis — rates,
     * queue depths, devices — read the spec's lists and get the
     * config file's grid for free.
     */
    config::ExperimentSpec spec;
    /** True once --config=FILE populated the spec. */
    bool from_config = false;
};

/** Collapse the spec's scalars (and each axis' first entry) into @a s. */
inline void
scaleFromSpec(const config::ExperimentSpec &spec, BenchScale &s)
{
    s.requests = spec.requests;
    s.working_set_pages = spec.working_set_pages;
    s.dram_bytes = spec.dram_bytes;
    if (!spec.gammas.empty())
        s.gamma = spec.gammas.front();
    if (!spec.queue_depths.empty())
        s.queue_depth = spec.queue_depths.front();
    if (!spec.devices.empty())
        s.device =
            spec.devices.front() == "auto" ? "" : spec.devices.front();
}

/**
 * Parse --requests= --ws= --dram-mb= --gamma= --qd= --device=
 * --config=FILE --fast + free arg. Requests and ws start at
 * @a defaults. The scale flags are leaftl_sim's experiment keys: a
 * bad value prints leaftl_sim's error and exits with status 2.
 * --config applies the file's `key = value` lines (same keys and
 * validation); flags and --config apply in order, later wins, and
 * --fast cuts the requests and ws reached so far to a tenth and a
 * quarter. Any other argument goes to @a free_arg; a bench that takes
 * none rejects it as an unknown flag, exit status 2.
 */
inline BenchScale
parseScale(int argc, char **argv, std::string *free_arg = nullptr,
           const ScaleDefaults &defaults = {})
{
    static const std::pair<std::string, std::string> kScaleFlags[] = {
        {"--requests=", "requests"}, {"--ws=", "ws"},
        {"--dram-mb=", "dram-mb"},   {"--gamma=", "gamma"},
        {"--qd=", "qd"},             {"--device=", "device"},
    };
    BenchScale s;
    // The spec's defaults are leaftl_sim's; requests and ws start at
    // the bench's instead.
    s.requests = s.spec.requests = defaults.requests;
    s.working_set_pages = s.spec.working_set_pages =
        defaults.working_set_pages;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const auto flag =
            std::find_if(std::begin(kScaleFlags), std::end(kScaleFlags),
                         [&](const auto &f) {
                             return arg.rfind(f.first, 0) == 0;
                         });
        if (arg.rfind("--config=", 0) == 0) {
            s.spec = config::loadExperimentFileOrDie(arg.substr(9));
            s.from_config = true;
        } else if (flag != std::end(kScaleFlags)) {
            std::string err;
            if (!config::applyExperimentKey(s.spec, flag->second,
                                            arg.substr(flag->first.size()),
                                            err)) {
                std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
                std::exit(2);
            }
        } else if (arg == "--fast") {
            s.fast = true;
            s.spec.requests /= 10;
            s.spec.working_set_pages /= 4;
        } else if (free_arg) {
            *free_arg = arg; // Positional, or the bench's own --flag.
        } else {
            std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0],
                         arg.c_str());
            std::exit(2);
        }
        scaleFromSpec(s.spec, s);
    }
    return s;
}

/**
 * The scaled device: leaftl_sim's device for the same working set,
 * DRAM budget and preset (cli::makeConfig -- with no preset the
 * flash is sized so the workload occupies ~75% of the host space and
 * its own churn keeps GC busy), with the bench's DRAM split policy
 * and page size.
 */
inline SsdConfig
benchConfig(FtlKind ftl, const BenchScale &s,
            DramPolicy policy = DramPolicy::MappingFirst,
            uint32_t page_size = 4096)
{
    config::ExperimentSpec spec;
    spec.working_set_pages = s.working_set_pages;
    spec.dram_bytes = s.dram_bytes;
    SsdConfig cfg = cli::makeConfig(ftl, s.gamma, spec,
                                    s.device.empty() ? "auto" : s.device);
    cfg.dram_policy = policy;
    cfg.geometry.page_size = page_size;
    return cfg;
}

/** Build the named workload generator (MSR/FIU or app model). */
inline std::unique_ptr<MixWorkload>
makeNamedWorkload(const std::string &workload, const BenchScale &s)
{
    for (const auto &n : appWorkloadNames()) {
        if (n == workload)
            return makeAppWorkload(workload, s.working_set_pages,
                                   s.requests);
    }
    return makeMsrWorkload(workload, s.working_set_pages, s.requests);
}

/**
 * Warm the device (mixed pattern over the working-set region) and
 * replay the named workload on @a ssd.
 */
inline RunResult
replayNamed(Ssd &ssd, const std::string &workload, const BenchScale &s)
{
    auto wl = makeNamedWorkload(workload, s);
    RunOptions opts;
    opts.queue_depth = s.queue_depth;
    Runner::prefillMixed(ssd, s.working_set_pages);
    return Runner::replay(ssd, *wl, opts);
}

/** Replay a named MSR/FIU or app workload; returns the run metrics. */
inline RunResult
runWorkload(const std::string &workload, FtlKind ftl, const BenchScale &s,
            DramPolicy policy = DramPolicy::MappingFirst,
            uint32_t page_size = 4096)
{
    SsdConfig cfg = benchConfig(ftl, s, policy, page_size);
    Ssd ssd(cfg);
    return replayNamed(ssd, workload, s);
}

/** Header every bench prints. */
inline void
banner(const char *fig, const char *what)
{
    std::printf("=== %s: %s ===\n", fig, what);
    std::printf("(scaled simulation; compare ratios/shapes with the "
                "paper, not absolute values)\n\n");
}

} // namespace bench
} // namespace leaftl
