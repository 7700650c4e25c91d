#include "cli/sim_cli.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>
#include <tuple>

#include "cli/campaign.hh"
#include "flash/presets.hh"
#include "sim/runner.hh"
#include "sim/shard_runner.hh"
#include "util/host_clock.hh"
#include "util/parse.hh"
#include "ssd/ssd.hh"
#include "workload/app_models.hh"
#include "workload/arrival.hh"
#include "workload/msr_models.hh"
#include "workload/synthetic.hh"
#include "workload/trace.hh"

namespace leaftl
{
namespace cli
{

namespace
{

/** Synthetic pattern presets, each one access shape from paper Fig. 1. */
MixSpec
syntheticSpec(const std::string &pattern, const config::ExperimentSpec &opts,
              bool &known)
{
    MixSpec spec;
    spec.name = "synthetic:" + pattern;
    spec.working_set_pages = opts.working_set_pages;
    spec.num_requests = opts.requests;
    spec.seed = opts.seed;
    // Start from a pure random mix; each preset adds one component
    // (MixSpec's own defaults carry a nonzero p_seq).
    spec.p_seq = 0.0;
    spec.p_stride = 0.0;
    spec.p_log = 0.0;
    spec.zipf_theta = 0.0;
    known = true;

    if (pattern == "seq") {
        spec.p_seq = 1.0;
        spec.seq_len_mean = 128;
    } else if (pattern == "rand") {
        spec.zipf_theta = 0.0;
    } else if (pattern == "zipf") {
        spec.zipf_theta = 0.99;
    } else if (pattern == "stride") {
        spec.p_stride = 1.0;
        spec.stride = 4;
        spec.stride_len_mean = 64;
    } else if (pattern == "log") {
        spec.p_log = 1.0;
        spec.read_ratio = 0.2;
    } else if (pattern == "mix") {
        spec.p_seq = 0.3;
        spec.p_stride = 0.1;
        spec.p_log = 0.1;
        spec.zipf_theta = 0.9;
    } else {
        known = false;
    }
    if (opts.read_ratio >= 0.0)
        spec.read_ratio = opts.read_ratio;
    if (opts.interarrival_us >= 0.0)
        spec.interarrival =
            static_cast<Tick>(opts.interarrival_us * kMicrosecond);
    return spec;
}

bool
isNamedModel(const std::vector<std::string> &names, const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

/**
 * Wrap @a wl per the replay mode and fill the matching RunOptions:
 * closed runs unshaped with closed admission; every other mode runs
 * open admission, the rate-driven ones behind an arrival shaper.
 */
std::unique_ptr<WorkloadSource>
applyMode(std::unique_ptr<WorkloadSource> wl, const std::string &mode,
          double rate, const config::ExperimentSpec &opts, RunOptions &ropts)
{
    if (mode == "closed") {
        ropts.admission = Admission::Closed;
        return wl;
    }
    ropts.admission = Admission::Open;
    ShaperSpec spec;
    spec.rate_iops = rate;
    spec.seed = opts.seed;
    spec.duty = opts.burst_duty;
    if (mode == "open")
        spec.kind = ShaperKind::AsRecorded;
    else if (mode == "fixed")
        spec.kind = ShaperKind::FixedRate;
    else if (mode == "poisson")
        spec.kind = ShaperKind::Poisson;
    else if (mode == "burst")
        spec.kind = ShaperKind::Burst;
    else
        LEAFTL_PANIC("applyMode: unknown mode '" + mode + "'");
    return shapeArrivals(std::move(wl), spec);
}

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return buf;
}

} // namespace

std::string
usage()
{
    std::string preset_names;
    for (const auto &name : devicePresetNames()) {
        if (!preset_names.empty())
            preset_names += ", ";
        preset_names += name;
    }
    std::ostringstream out;
    out << "leaftl_sim -- trace-driven FTL comparison driver\n"
        << "\n"
        << "Usage: leaftl_sim [options]\n"
        << "  --config FILE    load an [experiment] config file (flags\n"
        << "                   after --config override its values)\n"
        << "  --set KEY=VALUE  override one experiment key (same names\n"
        << "                   as the config file: ftl, workload, ...)\n"
        << "  --campaign FILE  expand the file's sweep grid into\n"
        << "                   fingerprinted runs (one CSV per run, a\n"
        << "                   BENCH_<name>.json summary, resume by\n"
        << "                   skipping fingerprints already on disk)\n"
        << "  --campaign-dir D override the campaign output directory\n"
        << "  --ftl LIST       comma list of leaftl,dftl,sftl "
           "(default leaftl)\n"
        << "  --workload LIST  comma list of workload specs "
           "(default synthetic:zipf)\n"
        << "                   synthetic:{seq,rand,zipf,stride,log,mix},\n"
        << "                   msr:<name>, app:<name>, trace:<csv path>,\n"
        << "                   fiu:<trace path>; see --list\n"
        << "  --gamma LIST     comma list of error bounds (default 0)\n"
        << "  --qd LIST        comma list of queue depths (outstanding\n"
        << "                   host requests per run, default 1)\n"
        << "  --device LIST    comma list of device presets: auto (derive\n"
        << "                   the geometry from --ws, default),\n"
        << "                   " << preset_names << "; see --list\n"
        << "  --mode LIST      comma list of replay modes: closed\n"
        << "                   (default), open (recorded arrivals,\n"
        << "                   open-loop latency), fixed, poisson, burst\n"
        << "                   (arrival shapers driven by --rate)\n"
        << "  --rate LIST      comma list of offered loads in requests/s\n"
        << "                   for the fixed/poisson/burst modes\n"
        << "  --burst-duty F   on-fraction of each burst cycle "
           "(default 0.25)\n"
        << "  --trace-strict   fail on malformed trace lines instead of\n"
        << "                   skipping them\n"
        << "  --jobs N         sweep worker threads (default: hardware\n"
        << "                   concurrency; rows stay in sweep order;\n"
        << "                   capped so jobs x threads fits the host)\n"
        << "  --threads N      intra-run replay workers per run\n"
        << "                   (default 1; results are bit-identical\n"
        << "                   for any value -- wall clock only)\n"
        << "  --campaign-diff A B  compare two BENCH_<name>.json\n"
        << "                   summaries by run fingerprint and print\n"
        << "                   per-run throughput/p99 deltas\n"
        << "  --diff-threshold PCT with --campaign-diff: exit 1 when a\n"
        << "                   shared run regresses by more than PCT%\n"
        << "  --requests N     requests per run (default 100000)\n"
        << "  --ws PAGES       working-set pages (default 65536)\n"
        << "  --dram-mb MB     DRAM budget; 0 derives from the working "
           "set (default)\n"
        << "  --prefill FRAC   prefilled fraction of the working set "
           "(default 0.85)\n"
        << "  --read-ratio R   override the workload read ratio\n"
        << "  --interarrival U override the mean request inter-arrival\n"
        << "                   gap in us (synthetic/model workloads)\n"
        << "  --seed N         workload RNG seed (default 42)\n"
        << "  --snapshot-interval N  host writes (pages) between\n"
        << "                   automatic mapping snapshots (default 0 =\n"
        << "                   explicit persists only)\n"
        << "  --journal-threshold B  learn-journal bytes that trigger an\n"
        << "                   incremental snapshot (default 0 = legacy\n"
        << "                   monolithic snapshot pipeline)\n"
        << "  --crash-at LIST  comma list of request indices where the\n"
        << "                   replay crashes and recovers the device\n"
        << "                   (LeaFTL only; DFTL/SFTL are rejected)\n"
        << "  --output PATH    write CSV to PATH instead of stdout\n"
        << "  --list           print known workloads and exit\n"
        << "  --help           this text\n";
    return out.str();
}

std::vector<std::string>
knownWorkloads()
{
    std::vector<std::string> out;
    for (const char *p : {"seq", "rand", "zipf", "stride", "log", "mix"})
        out.push_back(std::string("synthetic:") + p);
    for (const auto &n : msrWorkloadNames())
        out.push_back("msr:" + n);
    for (const auto &n : appWorkloadNames())
        out.push_back("app:" + n);
    out.push_back("trace:<path to MSR-Cambridge CSV>");
    out.push_back("fiu:<path to FIU/SPC text trace>");
    return out;
}

bool
parseArgs(int argc, const char *const *argv, SimOptions &opts,
          std::string &err)
{
    std::vector<std::string> args;
    for (int i = 1; i < argc; i++)
        args.emplace_back(argv[i]);

    // Normalize "--flag=value" to "--flag" "value".
    std::vector<std::string> norm;
    for (const auto &a : args) {
        const auto eq = a.find('=');
        if (a.rfind("--", 0) == 0 && eq != std::string::npos) {
            norm.push_back(a.substr(0, eq));
            norm.push_back(a.substr(eq + 1));
        } else {
            norm.push_back(a);
        }
    }

    auto need_value = [&](size_t &i, std::string &value) {
        if (i + 1 >= norm.size()) {
            err = norm[i] + " requires a value";
            return false;
        }
        value = norm[++i];
        return true;
    };

    // Every experiment axis/scalar lowers through the same named-key
    // application the config-file loader uses, so a flag, a config
    // line, and a --set override validate (and conflict) identically.
    const std::map<std::string, std::string> spec_flags = {
        {"--ftl", "ftl"},
        {"--workload", "workload"},
        {"--gamma", "gamma"},
        {"--qd", "qd"},
        {"--device", "device"},
        {"--mode", "mode"},
        {"--rate", "rate"},
        {"--burst-duty", "burst-duty"},
        {"--jobs", "jobs"},
        {"--threads", "threads"},
        {"--requests", "requests"},
        {"--ws", "ws"},
        {"--dram-mb", "dram-mb"},
        {"--prefill", "prefill"},
        {"--read-ratio", "read-ratio"},
        {"--interarrival", "interarrival"},
        {"--seed", "seed"},
        {"--snapshot-interval", "snapshot-interval"},
        {"--journal-threshold", "journal-threshold"},
        {"--crash-at", "crash-at"},
    };

    for (size_t i = 0; i < norm.size(); i++) {
        const std::string &arg = norm[i];
        std::string value;
        if (arg == "--help" || arg == "-h") {
            opts.help = true;
        } else if (arg == "--list") {
            opts.list = true;
        } else if (arg == "--trace-strict") {
            opts.trace_strict = true;
        } else if (arg == "--output") {
            if (!need_value(i, value))
                return false;
            opts.output = value;
        } else if (arg == "--config") {
            if (!need_value(i, value))
                return false;
            if (!config::loadExperimentFile(value, opts, err))
                return false;
        } else if (arg == "--set") {
            if (!need_value(i, value))
                return false;
            const auto eq = value.find('=');
            if (eq == std::string::npos || eq == 0) {
                err = "--set expects KEY=VALUE, got '" + value + "'";
                return false;
            }
            const std::string skey = value.substr(0, eq);
            const std::string sval = value.substr(eq + 1);
            if (!config::applyExperimentKey(opts, skey, sval, err))
                return false;
            opts.set_overrides.emplace_back(skey, sval);
        } else if (arg == "--campaign") {
            if (!need_value(i, value))
                return false;
            opts.campaign = value;
        } else if (arg == "--campaign-dir") {
            if (!need_value(i, value))
                return false;
            opts.campaign_dir = value;
        } else if (arg == "--campaign-diff") {
            if (i + 2 >= norm.size()) {
                err = "--campaign-diff requires two BENCH json paths";
                return false;
            }
            opts.diff_a = norm[++i];
            opts.diff_b = norm[++i];
        } else if (arg == "--diff-threshold") {
            if (!need_value(i, value))
                return false;
            try {
                opts.diff_threshold = std::stod(value);
            } catch (...) {
                err = "bad --diff-threshold '" + value + "'";
                return false;
            }
        } else if (spec_flags.count(arg)) {
            if (!need_value(i, value))
                return false;
            if (!config::applyExperimentKey(opts, spec_flags.at(arg),
                                            value, err))
                return false;
        } else {
            err = "unknown argument '" + arg + "'";
            return false;
        }
    }
    return true;
}

std::unique_ptr<WorkloadSource>
makeWorkload(const std::string &spec, const config::ExperimentSpec &opts,
             std::string &err, TraceCache *trace_cache)
{
    const auto colon = spec.find(':');
    const std::string scheme =
        colon == std::string::npos ? "" : spec.substr(0, colon);
    const std::string rest =
        colon == std::string::npos ? spec : spec.substr(colon + 1);

    if (scheme == "synthetic") {
        bool known = false;
        MixSpec mix = syntheticSpec(rest, opts, known);
        if (!known) {
            err = "unknown synthetic pattern '" + rest + "'";
            return nullptr;
        }
        return std::make_unique<MixWorkload>(mix);
    }
    if (scheme == "msr" ||
        (scheme.empty() && isNamedModel(msrWorkloadNames(), rest))) {
        if (!isNamedModel(msrWorkloadNames(), rest)) {
            err = "unknown MSR/FIU model '" + rest + "'";
            return nullptr;
        }
        MixSpec mix = msrSpec(rest, opts.working_set_pages, opts.requests);
        mix.seed = opts.seed;
        if (opts.read_ratio >= 0.0)
            mix.read_ratio = opts.read_ratio;
        if (opts.interarrival_us >= 0.0)
            mix.interarrival =
                static_cast<Tick>(opts.interarrival_us * kMicrosecond);
        return std::make_unique<MixWorkload>(mix);
    }
    if (scheme == "app" ||
        (scheme.empty() && isNamedModel(appWorkloadNames(), rest))) {
        if (!isNamedModel(appWorkloadNames(), rest)) {
            err = "unknown app model '" + rest + "'";
            return nullptr;
        }
        MixSpec mix = appSpec(rest, opts.working_set_pages, opts.requests);
        mix.seed = opts.seed;
        if (opts.read_ratio >= 0.0)
            mix.read_ratio = opts.read_ratio;
        if (opts.interarrival_us >= 0.0)
            mix.interarrival =
                static_cast<Tick>(opts.interarrival_us * kMicrosecond);
        return std::make_unique<MixWorkload>(mix);
    }
    if (scheme == "trace" || scheme == "fiu") {
        if (trace_cache) {
            const auto hit = trace_cache->find(spec);
            if (hit != trace_cache->end())
                return std::make_unique<TraceWorkload>(spec, hit->second);
        }
        // Note only on an actual parse: a sweep parses each trace once
        // (serially); cache hits from worker threads stay silent.
        if (opts.read_ratio >= 0.0)
            std::cerr << "leaftl_sim: note: --read-ratio has no effect on "
                         "replayed traces\n";
        const uint32_t page_size = 4096;
        std::ifstream probe(rest);
        if (!probe.good()) {
            err = "cannot open trace file '" + rest + "'";
            return nullptr;
        }
        probe.close();
        TraceParseOptions parse_opts;
        parse_opts.strict = opts.trace_strict;
        TraceParseStats parse_stats;
        auto reqs = scheme == "trace"
                        ? loadMsrTrace(rest, page_size,
                                       opts.working_set_pages, parse_opts,
                                       &parse_stats)
                        : loadFiuTrace(rest, page_size,
                                       opts.working_set_pages, parse_opts,
                                       &parse_stats);
        if (parse_stats.malformed > 0 ||
            parse_stats.clamped_timestamps > 0) {
            std::cerr << "leaftl_sim: trace '" << rest << "': "
                      << parse_stats.parsed << " requests, skipped "
                      << parse_stats.malformed << " malformed line(s), "
                      << "clamped " << parse_stats.clamped_timestamps
                      << " non-monotone timestamp(s)\n";
        }
        if (reqs.empty()) {
            err = "trace '" + rest + "' parsed to zero requests";
            return nullptr;
        }
        auto shared = std::make_shared<const std::vector<IoRequest>>(
            std::move(reqs));
        if (trace_cache)
            trace_cache->emplace(spec, shared);
        return std::make_unique<TraceWorkload>(spec, std::move(shared));
    }
    err = "unknown workload spec '" + spec + "' (see --list)";
    return nullptr;
}

SsdConfig
makeConfig(FtlKind ftl, uint32_t gamma, const config::ExperimentSpec &opts,
           const std::string &device)
{
    SsdConfig cfg;
    const DevicePreset *preset =
        device == "auto" ? nullptr : findDevicePreset(device);
    LEAFTL_ASSERT(device == "auto" || preset,
                  "makeConfig: unknown device preset");
    if (preset) {
        cfg.geometry = preset->geometry;
    } else {
        cfg.geometry.num_channels = 16;
        cfg.geometry.pages_per_block = 256;
        cfg.geometry.page_size = 4096;
        cfg.geometry.oob_size = 128;

        // Size the device so host pages ~= ws * 4/3: the workload
        // occupies ~75% of the host space and its own churn keeps GC
        // busy.
        const uint64_t host_pages = opts.working_set_pages * 4 / 3;
        const uint64_t raw_pages =
            static_cast<uint64_t>(host_pages / (1.0 - 0.20)) + 1;
        const uint64_t blocks =
            ceilDiv(raw_pages, cfg.geometry.pages_per_block);
        cfg.geometry.blocks_per_channel = static_cast<uint32_t>(
            std::max<uint64_t>(8,
                               ceilDiv(blocks, cfg.geometry.num_channels)));
    }

    cfg.ftl = ftl;
    cfg.gamma = gamma;
    if (opts.dram_bytes > 0)
        cfg.dram_bytes = opts.dram_bytes;
    else if (preset)
        cfg.dram_bytes = preset->dram_bytes;
    else
        cfg.dram_bytes = std::max<uint64_t>(
            128ull << 10, opts.working_set_pages * kMapEntryBytes / 2);
    cfg.write_buffer_bytes =
        preset ? preset->write_buffer_bytes : 8ull << 20;
    // Paper: compaction every 1M writes on a 512M-page device. Preset
    // devices scale the interval with their fixed geometry (so every
    // row of a --device sweep compacts at the same relative
    // frequency); ws-derived ones scale with the working set.
    cfg.compaction_interval =
        preset ? std::max<uint64_t>(cfg.geometry.totalPages() / 512, 2048)
               : std::max<uint64_t>(opts.working_set_pages / 8, 2048);
    cfg.snapshot_interval_writes = opts.snapshot_interval_writes;
    cfg.journal_threshold_bytes = opts.journal_threshold_bytes;
    return cfg;
}

std::string
csvHeader()
{
    // New columns are appended after the pre-existing ones so every
    // historical column keeps its index (downstream scripts parse by
    // position). wall_ns is the host wall-clock time of the run -- the
    // only nondeterministic column, kept trailing so stripping it
    // recovers a reproducible row; the open-loop columns (mode through
    // p99_write_e2e_us), the recovery columns (recov_scanned_pages
    // through recovery_ms), and the device hot-path counters
    // (cache_hits through gc_pick_scanned) sit between device and
    // wall_ns.
    return "ftl,workload,gamma,qd,requests,pages,sim_seconds,"
           "throughput_mbps,avg_lat_us,avg_read_lat_us,p50_read_lat_us,"
           "p99_read_lat_us,avg_write_lat_us,mapping_bytes,resident_bytes,"
           "waf,mispredict_ratio,cache_hit_ratio,avg_lookup_levels,"
           "avg_queue_wait_us,mean_inflight,device,"
           "mode,rate_iops,offered_iops,achieved_iops,p50_lat_e2e_us,"
           "p95_lat_e2e_us,p99_lat_e2e_us,p999_lat_e2e_us,"
           "p99_read_e2e_us,p99_write_e2e_us,recov_scanned_pages,"
           "recov_journal_records,recov_applied_deltas,recovery_ms,"
           "cache_hits,cache_misses,gc_pick_calls,gc_pick_scanned,"
           "wall_ns";
}

std::string
csvRow(const RunResult &res, FtlKind ftl, uint32_t gamma,
       const SsdConfig &cfg, const std::string &device)
{
    const double sim_s =
        static_cast<double>(res.sim_time_ns) / static_cast<double>(kSecond);
    const double bytes = static_cast<double>(res.pages_touched) *
                         cfg.geometry.page_size;
    const double mbps = sim_s > 0.0 ? bytes / sim_s / (1 << 20) : 0.0;

    std::ostringstream row;
    row << ftlKindName(ftl) << ',' << res.workload << ',' << gamma << ','
        << res.queue_depth << ',' << res.requests << ','
        << res.pages_touched << ',' << fmt(sim_s) << ',' << fmt(mbps)
        << ',' << fmt(res.avg_latency_us) << ','
        << fmt(res.avg_read_latency_us) << ','
        << fmt(res.ssd.read_latency.percentile(50.0) / 1000.0) << ','
        << fmt(res.p99_read_latency_us) << ','
        << fmt(res.avg_write_latency_us) << ',' << res.mapping_bytes << ','
        << res.resident_bytes << ',' << fmt(res.waf) << ','
        << fmt(res.mispredict_ratio) << ',' << fmt(res.cache_hit_ratio)
        << ',' << fmt(res.avg_lookup_levels) << ','
        << fmt(res.avg_queue_wait_us) << ',' << fmt(res.mean_inflight)
        << ',' << device << ',' << res.mode << ',' << fmt(res.rate_iops)
        << ',' << fmt(res.offered_iops) << ',' << fmt(res.achieved_iops)
        << ',' << fmt(res.e2e_all.percentile(50.0) / 1000.0) << ','
        << fmt(res.e2e_all.percentile(95.0) / 1000.0) << ','
        << fmt(res.e2e_all.percentile(99.0) / 1000.0) << ','
        << fmt(res.e2e_all.percentile(99.9) / 1000.0) << ','
        << fmt(res.e2e_read.percentile(99.0) / 1000.0) << ','
        << fmt(res.e2e_write.percentile(99.0) / 1000.0) << ','
        << res.recovery.scanned_pages << ','
        << res.recovery.replayed_journal_records << ','
        << res.recovery.applied_deltas << ','
        << fmt(static_cast<double>(res.recovery.recovery_time) / 1.0e6)
        << ',' << res.cache_hits << ',' << res.cache_misses << ','
        << res.gc_pick_calls << ',' << res.gc_pick_scanned << ','
        << res.host_wall_ns;
    return row.str();
}

int
runSweep(const config::ExperimentSpec &opts, std::ostream &out)
{
    // Resolve all specs before running anything so a bad spec leaves
    // the output empty. Every run then builds its own source from
    // (spec, seed), which reproduces the exact same request sequence
    // -- that is what keeps parallel runs independent and the sweep
    // deterministic for any --jobs value. Trace files are parsed once
    // here; the runs share the immutable request vectors through the
    // cache (read-only after this loop, so no locking).
    TraceCache trace_cache;
    for (const std::string &spec : opts.workloads) {
        std::string err;
        auto wl = makeWorkload(spec, opts, err, &trace_cache);
        if (!wl) {
            std::cerr << "leaftl_sim: " << err << '\n';
            return 1;
        }
    }

    // A rate-driven mode without a positive rate cannot produce an
    // arrival process; reject the sweep up front.
    for (const std::string &mode : opts.modes) {
        if (!modeUsesRate(mode))
            continue;
        for (const double rate : opts.rates) {
            if (rate <= 0.0) {
                std::cerr << "leaftl_sim: mode '" << mode
                          << "' needs --rate > 0\n";
                return 1;
            }
        }
    }

    // Enumerate output rows in sweep order, deduplicating the actual
    // simulations: gamma only changes LeaFTL and --rate only changes
    // the rate-driven modes, so each insensitive combination runs once
    // and every requested value reuses the result -- the output still
    // has one row per combination.
    struct Task
    {
        FtlKind ftl;
        std::string spec;
        uint32_t gamma;
        uint32_t qd;
        std::string device;
        std::string mode;
        double rate;
    };
    struct Row
    {
        FtlKind ftl;
        std::string spec;
        uint32_t gamma;
        std::string device;
        std::string mode;
        double rate;
        size_t task;
    };
    constexpr uint32_t kAnyGamma = 0xFFFFFFFFu;
    constexpr double kAnyRate = -1.0;
    std::vector<Task> tasks;
    std::vector<Row> rows;
    std::map<std::tuple<int, std::string, std::string, uint32_t, uint32_t,
                        std::string, double>,
             size_t>
        seen;
    for (const FtlKind ftl : opts.ftls) {
        for (const std::string &spec : opts.workloads) {
            for (const std::string &device : opts.devices) {
                for (const uint32_t gamma : opts.gammas) {
                    for (const uint32_t qd : opts.queue_depths) {
                        for (const std::string &mode : opts.modes) {
                            for (const double rate : opts.rates) {
                                const bool gamma_sensitive =
                                    ftl == FtlKind::LeaFTL;
                                const bool rate_sensitive =
                                    modeUsesRate(mode);
                                const auto key = std::make_tuple(
                                    static_cast<int>(ftl), spec, device,
                                    gamma_sensitive ? gamma : kAnyGamma,
                                    qd, mode,
                                    rate_sensitive ? rate : kAnyRate);
                                const auto [it, inserted] =
                                    seen.emplace(key, tasks.size());
                                if (inserted)
                                    tasks.push_back({ftl, spec, gamma, qd,
                                                     device, mode, rate});
                                rows.push_back({ftl, spec, gamma, device,
                                                mode, rate, it->second});
                            }
                        }
                    }
                }
            }
        }
    }

    // Fan the independent runs out over a small thread pool while the
    // calling thread streams finished rows in sweep order: each row is
    // written (and flushed) as soon as its task -- and every task an
    // earlier row needs -- has completed, so an interrupted sweep
    // still leaves a usable prefix and a failing task aborts the rest.
    std::vector<RunResult> results(tasks.size());
    std::vector<std::string> errors(tasks.size());
    std::vector<uint8_t> task_done(tasks.size(), 0);
    std::atomic<size_t> next{0};
    std::atomic<bool> abort{false};
    std::mutex mutex; // Guards task_done and the stderr progress log.
    std::condition_variable done_cv;

    auto worker = [&]() {
        for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= tasks.size())
                return;
            const Task &t = tasks[i];
            if (!abort.load()) {
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    std::cerr << "leaftl_sim: running "
                              << ftlKindName(t.ftl) << " / " << t.spec
                              << " / gamma=" << t.gamma << " / qd=" << t.qd
                              << " / device=" << t.device << " / mode="
                              << t.mode << " / rate=" << t.rate
                              << " ...\n";
                }
                std::string err;
                auto wl = makeWorkload(t.spec, opts, err, &trace_cache);
                if (wl) {
                    std::unique_ptr<ShardPool> run_pool;
                    Ssd ssd(makeConfig(t.ftl, t.gamma, opts, t.device));
                    RunOptions ropts;
                    ropts.prefill_pages = static_cast<uint64_t>(
                        opts.prefill_frac * opts.working_set_pages);
                    ropts.mixed_prefill = true;
                    ropts.queue_depth = t.qd;
                    ropts.crash_points = opts.crash_points;
                    if (opts.threads > 1) {
                        run_pool =
                            std::make_unique<ShardPool>(opts.threads);
                        ssd.attachShardPool(run_pool.get());
                    }
                    wl = applyMode(std::move(wl), t.mode, t.rate, opts,
                                   ropts);
                    HostTimer timer;
                    results[i] = Runner::replay(ssd, *wl, ropts);
                    results[i].host_wall_ns = timer.elapsedNs();
                    results[i].mode = t.mode;
                    results[i].rate_iops =
                        modeUsesRate(t.mode) ? t.rate : 0.0;
                } else {
                    errors[i] = err;
                }
            }
            {
                std::lock_guard<std::mutex> lock(mutex);
                task_done[i] = 1;
            }
            done_cv.notify_all();
        }
    };

    // Cap sweep fan-out so jobs x intra-run threads never silently
    // oversubscribes the machine.
    std::string jobs_warning;
    unsigned jobs = clampSweepJobs(
        opts.jobs, opts.threads,
        std::max(1u, std::thread::hardware_concurrency()), &jobs_warning);
    if (!jobs_warning.empty())
        std::cerr << "leaftl_sim: " << jobs_warning << '\n';
    jobs = static_cast<unsigned>(
        std::min<size_t>(jobs, std::max<size_t>(1, tasks.size())));
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned i = 0; i < jobs; i++)
        pool.emplace_back(worker);

    out << csvHeader() << '\n';
    out.flush();
    int rc = 0;
    for (const Row &row : rows) {
        {
            std::unique_lock<std::mutex> lock(mutex);
            done_cv.wait(lock, [&] { return task_done[row.task] != 0; });
        }
        if (!errors[row.task].empty()) {
            std::cerr << "leaftl_sim: " << errors[row.task] << '\n';
            abort.store(true); // Remaining tasks turn into no-ops.
            rc = 1;
            break;
        }
        const SsdConfig cfg =
            makeConfig(row.ftl, row.gamma, opts, row.device);
        // Like gamma, a deduplicated row echoes its own requested
        // (mode, rate), not the shared task's. Emission is serial and
        // the worker is done with this slot, so patching the echoed
        // fields in place (instead of deep-copying the histograms)
        // is safe even when several rows share one task.
        RunResult &res = results[row.task];
        res.mode = row.mode;
        res.rate_iops = modeUsesRate(row.mode) ? row.rate : 0.0;
        out << csvRow(res, row.ftl, row.gamma, cfg, row.device) << '\n';
        out.flush();
    }
    for (auto &th : pool)
        th.join();
    return rc;
}

int
simMain(int argc, const char *const *argv)
{
    SimOptions opts;
    std::string err;
    if (!parseArgs(argc, argv, opts, err)) {
        std::cerr << "leaftl_sim: " << err << '\n' << usage();
        return 2;
    }
    if (opts.help) {
        std::cout << usage();
        return 0;
    }
    if (opts.list) {
        for (const auto &w : knownWorkloads())
            std::cout << w << '\n';
        for (const auto &p : devicePresets())
            std::cout << "device:" << p.name << "  (" << p.description
                      << ")\n";
        return 0;
    }

    if (!opts.diff_a.empty()) {
        return campaignDiff(opts.diff_a, opts.diff_b, opts.diff_threshold,
                            std::cout);
    }

    if (!opts.campaign.empty()) {
        config::CampaignSpec camp;
        if (!config::loadCampaignFile(opts.campaign, camp, err)) {
            std::cerr << "leaftl_sim: " << err << '\n';
            return 2;
        }
        // --set overrides apply on top of the campaign's config, so a
        // one-key variant does not need its own file.
        for (const auto &[key, value] : opts.set_overrides) {
            if (!config::applyExperimentKey(camp.exp, key, value, err)) {
                std::cerr << "leaftl_sim: --set " << key << ": " << err
                          << '\n';
                return 2;
            }
        }
        if (!opts.campaign_dir.empty())
            camp.dir = opts.campaign_dir;
        return runCampaign(camp, std::cout);
    }

    if (!config::checkCrashSupport(opts, err)) {
        std::cerr << "leaftl_sim: " << err << '\n';
        return 2;
    }
    if (!opts.output.empty()) {
        std::ofstream file(opts.output);
        if (!file.good()) {
            std::cerr << "leaftl_sim: cannot open output file '"
                      << opts.output << "'\n";
            return 1;
        }
        return runSweep(opts, file);
    }
    return runSweep(opts, std::cout);
}

} // namespace cli
} // namespace leaftl
