#include "cli/sim_cli.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "cli/campaign.hh"
#include "flash/presets.hh"
#include "sim/runner.hh"
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

/** A synthetic pattern: its name and what it adds to a pure random mix. */
struct SyntheticPattern
{
    const char *name;
    void (*preset)(MixSpec &spec);
};

/** Synthetic pattern presets, each one access shape from paper Fig. 1. */
const SyntheticPattern kSyntheticPatterns[] = {
    {"seq", [](MixSpec &s) { s.p_seq = 1.0; s.seq_len_mean = 128; }},
    {"rand", [](MixSpec &) {}},
    {"zipf", [](MixSpec &s) { s.zipf_theta = 0.99; }},
    {"stride",
     [](MixSpec &s) {
         s.p_stride = 1.0; s.stride = 4; s.stride_len_mean = 64;
     }},
    {"log", [](MixSpec &s) { s.p_log = 1.0; s.read_ratio = 0.2; }},
    {"mix",
     [](MixSpec &s) {
         s.p_seq = 0.3; s.p_stride = 0.1; s.p_log = 0.1; s.zipf_theta = 0.9;
     }},
};

/** The spec's seed and read-ratio/inter-arrival overrides, onto @a mix. */
void
applyOverrides(MixSpec &mix, const config::ExperimentSpec &opts)
{
    mix.seed = opts.seed;
    if (opts.read_ratio >= 0.0)
        mix.read_ratio = opts.read_ratio;
    if (opts.interarrival_us >= 0.0)
        mix.interarrival =
            static_cast<Tick>(opts.interarrival_us * kMicrosecond);
}

MixSpec
syntheticSpec(const SyntheticPattern &pattern,
              const config::ExperimentSpec &opts)
{
    MixSpec spec;
    spec.name = std::string("synthetic:") + pattern.name;
    spec.working_set_pages = opts.working_set_pages;
    spec.num_requests = opts.requests;
    // Start from a pure random mix; each preset adds one component
    // (MixSpec's own defaults carry a nonzero p_seq).
    spec.p_seq = 0.0;
    spec.p_stride = 0.0;
    spec.p_log = 0.0;
    spec.zipf_theta = 0.0;
    pattern.preset(spec);
    applyOverrides(spec, opts);
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
 * open admission behind its arrival shaper.
 */
std::unique_ptr<WorkloadSource>
applyMode(std::unique_ptr<WorkloadSource> wl, const std::string &mode,
          double rate, const config::ExperimentSpec &opts, RunOptions &ropts)
{
    const config::ReplayMode *replay = config::findMode(mode);
    LEAFTL_ASSERT(replay, "applyMode: unknown mode '" + mode + "'");
    if (!replay->shaper) {
        ropts.admission = Admission::Closed;
        return wl;
    }
    ropts.admission = Admission::Open;
    ShaperSpec spec;
    spec.kind = *replay->shaper;
    spec.rate_iops = rate;
    spec.seed = opts.seed;
    spec.duty = opts.burst_duty;
    return shapeArrivals(std::move(wl), spec);
}

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return buf;
}

std::string
num(uint64_t v)
{
    return std::to_string(v);
}

double
simSeconds(const RunResult &res)
{
    return static_cast<double>(res.sim_time_ns) / static_cast<double>(kSecond);
}

/** Percentile @a p of @a hist (ns samples) in us. */
std::string
pctUs(const LatencyHistogram &hist, double p)
{
    return fmt(hist.percentile(p) / 1000.0);
}

using R = const CsvRowInput &;

} // namespace

namespace
{

/**
 * One usage entry: "  <flag>", then @a help word-wrapped in a column
 * (starting two spaces after a flag too wide for it).
 */
std::string
usageEntry(const std::string &flag, const std::string &help)
{
    constexpr size_t kColumn = 19;
    constexpr size_t kWidth = 79;
    std::string out;
    std::string line = "  " + flag;
    line.resize(std::max(line.size() + 2, kColumn), ' ');
    std::istringstream words(help);
    for (std::string word; words >> word;) {
        if (line.back() != ' ' && line.size() + 1 + word.size() > kWidth) {
            out += line + '\n';
            line.assign(kColumn, ' ');
        }
        line += (line.back() == ' ' ? "" : " ") + word;
    }
    return out + line + '\n';
}

} // namespace

std::string
usage()
{
    std::string out = "leaftl_sim -- trace-driven FTL comparison driver\n"
                      "\n"
                      "Usage: leaftl_sim [options]\n";
    out += usageEntry("--config FILE",
                      "apply a config file of 'key = value' lines, one "
                      "per key below (flags after --config override its "
                      "values)");
    out += usageEntry("--campaign-dir D",
                      "run the sweep as a campaign in directory D: one "
                      "run-<fingerprint>.csv per unique run, resumed by "
                      "skipping fingerprints already on disk");
    out += usageEntry("--campaign-diff A B",
                      "compare the run CSVs of campaign directories A and B "
                      "by fingerprint and print per-run throughput/p99 "
                      "deltas");
    out += usageEntry("--diff-threshold PCT",
                      "with --campaign-diff: exit 1 when a shared run "
                      "regresses by more than PCT%");
    for (const config::ExperimentKey &key : config::experimentKeys())
        out += usageEntry(std::string("--") + key.name + " " + key.value,
                          key.help);
    out += usageEntry("--output PATH", "write CSV to PATH instead of stdout");
    out += usageEntry("--list", "print known workloads and exit");
    out += usageEntry("--help", "this text");
    return out;
}

std::vector<std::string>
knownWorkloads()
{
    std::vector<std::string> out;
    for (const SyntheticPattern &p : kSyntheticPatterns)
        out.push_back(std::string("synthetic:") + p.name);
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
    const std::vector<std::string> args(argv + 1, argv + argc);
    for (size_t i = 0; i < args.size(); i++) {
        // "--flag=value" carries its value inline.
        std::string arg = args[i];
        std::optional<std::string> v;
        const auto eq = arg.find('=');
        if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
            v = arg.substr(eq + 1);
            arg.resize(eq);
        }
        auto value = [&]() {
            if (!v && i + 1 < args.size())
                v = args[++i];
            if (!v)
                err = arg + " requires a value";
            return v.has_value();
        };
        // Every experiment key is a flag, applied by the same table row
        // as a config line, so both validate (and conflict) identically.
        const config::ExperimentKey *key =
            arg.rfind("--", 0) == 0 ? config::findExperimentKey(arg.substr(2))
                                    : nullptr;
        if ((arg == "--help" || arg == "-h") && !v) {
            opts.help = true;
        } else if (arg == "--list" && !v) {
            opts.list = true;
        } else if (key && key->bare && !v &&
                   (i + 1 == args.size() || args[i + 1].rfind("-", 0) == 0)) {
            // Bare form (--trace-strict): no value follows.
            if (!key->apply(opts, key->name, key->bare, err))
                return false;
        } else if (key) {
            if (!value() || !key->apply(opts, key->name, *v, err))
                return false;
        } else if (arg == "--output") {
            if (!value())
                return false;
            opts.output = *v;
        } else if (arg == "--config") {
            if (!value() || !config::loadExperimentFile(*v, opts, err))
                return false;
        } else if (arg == "--campaign-dir") {
            if (!value())
                return false;
            opts.campaign_dir = *v;
        } else if (arg == "--campaign-diff") {
            if (!value() || i + 1 == args.size()) {
                err = "--campaign-diff requires two campaign directories";
                return false;
            }
            opts.diff_a = *v;
            opts.diff_b = args[++i];
        } else if (arg == "--diff-threshold") {
            // parseDouble rejects NaN, which would turn the gate off.
            if (!value())
                return false;
            if (!parseDouble(*v, opts.diff_threshold)) {
                err = "bad --diff-threshold '" + *v + "'";
                return false;
            }
        } else {
            err = "unknown argument '" + args[i] + "'";
            if (arg.rfind("--", 0) == 0)
                err += " (did you mean '--" +
                       config::nearestExperimentKey(arg.substr(2)) + "'?)";
            return false;
        }
    }
    if (!opts.output.empty() && !opts.campaign_dir.empty()) {
        err = "--output and --campaign-dir exclude each other (a campaign "
              "writes one run CSV per run into its directory)";
        return false;
    }
    if (!opts.diff_a.empty() &&
        (!opts.output.empty() || !opts.campaign_dir.empty())) {
        err = "--campaign-diff excludes --output and --campaign-dir (it "
              "compares two existing campaigns and prints its report)";
        return false;
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
        for (const SyntheticPattern &p : kSyntheticPatterns) {
            if (rest == p.name)
                return std::make_unique<MixWorkload>(syntheticSpec(p, opts));
        }
        err = "unknown synthetic pattern '" + rest + "'";
        return nullptr;
    }
    // Named models, with or without their scheme: MSR/FIU traces and
    // applications.
    struct NamedModels
    {
        const char *scheme, *what;
        const std::vector<std::string> &names;
        MixSpec (*spec)(const std::string &, uint64_t, uint64_t);
    };
    for (const NamedModels &m :
         {NamedModels{"msr", "MSR/FIU", msrWorkloadNames(), msrSpec},
          NamedModels{"app", "app", appWorkloadNames(), appSpec}}) {
        const bool named = isNamedModel(m.names, rest);
        if (scheme != m.scheme && !(scheme.empty() && named))
            continue;
        if (!named) {
            err = std::string("unknown ") + m.what + " model '" + rest + "'";
            return nullptr;
        }
        MixSpec mix = m.spec(rest, opts.working_set_pages, opts.requests);
        applyOverrides(mix, opts);
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
        const uint64_t raw_pages = static_cast<uint64_t>(
            host_pages / (1.0 - SsdConfig::kOverprovisioning)) + 1;
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
    cfg.journal_threshold_bytes = opts.journal_threshold_bytes;
    return cfg;
}

const std::vector<CsvColumn> &
csvColumns()
{
    static const std::vector<CsvColumn> columns = {
        {"ftl", [](R r) { return std::string(ftlKindName(r.point.ftl)); }},
        {"workload", [](R r) { return r.res.workload; }},
        {"gamma", [](R r) { return num(r.point.gamma); }},
        {"qd", [](R r) { return num(r.res.queue_depth); }},
        {"requests", [](R r) { return num(r.res.requests); }},
        {"pages", [](R r) { return num(r.res.pages_touched); }},
        {"sim_seconds", [](R r) { return fmt(simSeconds(r.res)); }},
        {"throughput_mbps",
         [](R r) {
             const double sim_s = simSeconds(r.res);
             const double bytes =
                 static_cast<double>(r.res.pages_touched) * r.page_size;
             return fmt(sim_s > 0.0 ? bytes / sim_s / (1 << 20) : 0.0);
         }},
        {"avg_lat_us", [](R r) { return fmt(r.res.avg_latency_us); }},
        {"avg_read_lat_us", [](R r) { return fmt(r.res.avg_read_latency_us); }},
        {"p50_read_lat_us",
         [](R r) { return pctUs(r.res.ssd.read_latency, 50.0); }},
        {"p99_read_lat_us", [](R r) { return fmt(r.res.p99_read_latency_us); }},
        {"avg_write_lat_us",
         [](R r) { return fmt(r.res.avg_write_latency_us); }},
        {"mapping_bytes", [](R r) { return num(r.res.mapping_bytes); }},
        {"resident_bytes", [](R r) { return num(r.res.resident_bytes); }},
        {"waf", [](R r) { return fmt(r.res.waf); }},
        {"mispredict_ratio", [](R r) { return fmt(r.res.mispredict_ratio); }},
        {"cache_hit_ratio", [](R r) { return fmt(r.res.cache_hit_ratio); }},
        {"avg_lookup_levels", [](R r) { return fmt(r.res.avg_lookup_levels); }},
        {"avg_queue_wait_us", [](R r) { return fmt(r.res.avg_queue_wait_us); }},
        {"mean_inflight", [](R r) { return fmt(r.res.mean_inflight); }},
        {"device", [](R r) { return r.point.device; }},
        {"mode", [](R r) { return r.point.mode; }},
        {"rate_iops",
         [](R r) {
             return fmt(config::modeUsesRate(r.point.mode) ? r.point.rate
                                                           : 0.0);
         }},
        {"offered_iops", [](R r) { return fmt(r.res.offered_iops); }},
        {"achieved_iops", [](R r) { return fmt(r.res.achieved_iops); }},
        {"p50_lat_e2e_us", [](R r) { return pctUs(r.res.e2e_all, 50.0); }},
        {"p95_lat_e2e_us", [](R r) { return pctUs(r.res.e2e_all, 95.0); }},
        {"p99_lat_e2e_us", [](R r) { return pctUs(r.res.e2e_all, 99.0); }},
        {"p999_lat_e2e_us", [](R r) { return pctUs(r.res.e2e_all, 99.9); }},
        {"p99_read_e2e_us", [](R r) { return pctUs(r.res.e2e_read, 99.0); }},
        {"p99_write_e2e_us", [](R r) { return pctUs(r.res.e2e_write, 99.0); }},
        {"recov_scanned_pages",
         [](R r) { return num(r.res.recovery.scanned_pages); }},
        {"recov_journal_records",
         [](R r) { return num(r.res.recovery.replayed_journal_records); }},
        {"recov_applied_deltas",
         [](R r) { return num(r.res.recovery.applied_deltas); }},
        {"recovery_ms",
         [](R r) {
             return fmt(static_cast<double>(r.res.recovery.recovery_time) /
                        1.0e6);
         }},
        {"cache_hits", [](R r) { return num(r.res.cache_hits); }},
        {"cache_misses", [](R r) { return num(r.res.cache_misses); }},
        {"gc_pick_calls", [](R r) { return num(r.res.gc_pick_calls); }},
        {"gc_pick_scanned", [](R r) { return num(r.res.gc_pick_scanned); }},
        {"trans_reads", [](R r) { return num(r.res.ssd.trans_reads); }},
        {"trans_writes", [](R r) { return num(r.res.ssd.trans_writes); }},
        {"wall_ns", [](R r) { return num(r.res.host_wall_ns); }},
    };
    return columns;
}

size_t
csvColumnIndex(const std::string &name)
{
    const auto &columns = csvColumns();
    for (size_t i = 0; i < columns.size(); i++) {
        if (name == columns[i].name)
            return i;
    }
    LEAFTL_PANIC("csvColumnIndex: no CSV column '" + name + "'");
}

std::string
csvHeader()
{
    std::string header;
    for (const CsvColumn &col : csvColumns()) {
        if (!header.empty())
            header += ',';
        header += col.name;
    }
    return header;
}

std::string
csvRow(const config::ExperimentSpec &spec, const config::RunPoint &point,
       const RunResult &res)
{
    const uint32_t page_size =
        makeConfig(point.ftl, point.gamma, spec, point.device)
            .geometry.page_size;
    const CsvRowInput row{point, res, page_size};
    std::string out;
    for (const CsvColumn &col : csvColumns()) {
        if (!out.empty())
            out += ',';
        out += col.cell(row);
    }
    return out;
}

SweepGrid
expandGrid(const config::ExperimentSpec &spec)
{
    SweepGrid grid;
    std::map<std::string, size_t> run_index;
    auto add = [&](const config::RunPoint &p) {
        std::string fp = config::runFingerprint(spec, p);
        const auto [it, inserted] = run_index.emplace(fp, grid.runs.size());
        if (inserted) {
            grid.runs.push_back(p);
            grid.fingerprints.push_back(std::move(fp));
        }
        grid.points.push_back(p);
        grid.run_of.push_back(it->second);
    };
    for (const FtlKind ftl : spec.ftls)
        for (const std::string &wl : spec.workloads)
            for (const std::string &device : spec.devices)
                for (const uint32_t gamma : spec.gammas)
                    for (const uint32_t qd : spec.queue_depths)
                        for (const std::string &mode : spec.modes)
                            for (const double rate : spec.rates)
                                add({ftl, wl, gamma, qd, device, mode, rate});
    return grid;
}

int
validateSpec(const config::ExperimentSpec &spec, TraceCache &trace_cache,
             std::string &err)
{
    if (!config::checkCrashSupport(spec, err))
        return 2;
    for (const std::string &wl : spec.workloads) {
        if (!makeWorkload(wl, spec, err, &trace_cache))
            return 1;
    }
    for (const std::string &mode : spec.modes) {
        if (!config::modeUsesRate(mode))
            continue;
        for (const double rate : spec.rates) {
            if (rate <= 0.0) {
                err = "mode '" + mode + "' needs rate > 0";
                return 1;
            }
        }
    }
    return 0;
}

bool
executeRun(const config::ExperimentSpec &spec, const config::RunPoint &p,
           TraceCache *trace_cache, RunResult &res, std::string &err)
{
    auto wl = makeWorkload(p.workload, spec, err, trace_cache);
    if (!wl)
        return false;
    Ssd ssd(makeConfig(p.ftl, p.gamma, spec, p.device));
    RunOptions ropts;
    ropts.queue_depth = p.qd;
    ropts.crash_points = spec.crash_points;
    wl = applyMode(std::move(wl), p.mode, p.rate, spec, ropts);
    HostTimer timer;
    Runner::prefillMixed(ssd, static_cast<uint64_t>(spec.prefill_frac *
                                                    spec.working_set_pages));
    res = Runner::replay(ssd, *wl, ropts);
    res.host_wall_ns = timer.elapsedNs();
    return true;
}

unsigned
sweepWorkers(unsigned requested, size_t runs)
{
    const unsigned want =
        requested ? requested
                  : std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(
        std::min<size_t>(want, std::max<size_t>(1, runs)));
}

void
runPool(unsigned jobs, size_t count, const std::function<void(size_t)> &task,
        const std::function<void()> &meanwhile)
{
    std::atomic<size_t> next{0};
    auto worker = [&]() {
        for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1))
            task(i);
    };
    const unsigned threads = sweepWorkers(jobs, count);
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; t++)
        pool.emplace_back(worker);
    if (meanwhile)
        meanwhile();
    for (auto &th : pool)
        th.join();
}

void
announceRun(const std::string &what, const config::RunPoint &p)
{
    static std::mutex mutex; // Whole lines from concurrent workers.
    const std::lock_guard<std::mutex> lock(mutex);
    std::cerr << "leaftl_sim: " << what << ftlKindName(p.ftl) << " / "
              << p.workload << " / gamma=" << p.gamma << " / qd=" << p.qd
              << " / device=" << p.device << " / mode=" << p.mode
              << " / rate=" << p.rate << " ...\n";
}

namespace
{

/**
 * The sweep of an already validated @a opts: runs fan out over a
 * small thread pool while the calling thread streams finished rows in
 * sweep order. Each row is written (and flushed) as soon as its run
 * -- and every run an earlier row needs -- has completed, so an
 * interrupted sweep still leaves a usable prefix and a failing run
 * aborts the rest. Every run builds its own source from (spec, seed),
 * which reproduces the exact same request sequence; that keeps runs
 * independent and the CSV identical for any --jobs value. Validation
 * already parsed every trace into @a trace_cache, so the workers only
 * read it (no locking).
 */
int
sweepValidated(const config::ExperimentSpec &opts, TraceCache &trace_cache,
               std::ostream &out)
{
    const SweepGrid grid = expandGrid(opts);
    std::vector<RunResult> results(grid.runs.size());
    std::vector<std::string> errors(grid.runs.size());
    std::vector<uint8_t> run_done(grid.runs.size(), 0);
    std::atomic<bool> abort{false};
    std::mutex mutex; // Guards run_done.
    std::condition_variable done_cv;

    auto run = [&](size_t i) {
        if (!abort.load()) {
            announceRun("running ", grid.runs[i]);
            executeRun(opts, grid.runs[i], &trace_cache, results[i],
                       errors[i]);
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            run_done[i] = 1;
        }
        done_cv.notify_all();
    };

    int rc = 0;
    auto write_rows = [&]() {
        out << csvHeader() << '\n';
        out.flush();
        for (size_t row = 0; row < grid.points.size(); row++) {
            const size_t i = grid.run_of[row];
            {
                std::unique_lock<std::mutex> lock(mutex);
                done_cv.wait(lock, [&] { return run_done[i] != 0; });
            }
            if (!errors[i].empty()) {
                std::cerr << "leaftl_sim: " << errors[i] << '\n';
                abort.store(true); // Remaining runs turn into no-ops.
                rc = 1;
                return;
            }
            out << csvRow(opts, grid.points[row], results[i]) << '\n';
            out.flush();
        }
    };

    runPool(opts.jobs, grid.runs.size(), run, write_rows);
    return rc;
}

} // namespace

int
runSweep(const config::ExperimentSpec &opts, std::ostream &out)
{
    TraceCache trace_cache;
    std::string err;
    if (const int rc = validateSpec(opts, trace_cache, err)) {
        std::cerr << "leaftl_sim: " << err << '\n';
        return rc;
    }
    return sweepValidated(opts, trace_cache, out);
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

    if (!opts.campaign_dir.empty())
        return runCampaign(opts, opts.campaign_dir, std::cout);

    // Validate before opening --output, so a rejected spec leaves no
    // file behind.
    TraceCache trace_cache;
    if (const int rc = validateSpec(opts, trace_cache, err)) {
        std::cerr << "leaftl_sim: " << err << '\n';
        return rc;
    }
    if (!opts.output.empty()) {
        std::ofstream file(opts.output);
        if (!file.good()) {
            std::cerr << "leaftl_sim: cannot open output file '"
                      << opts.output << "'\n";
            return 1;
        }
        return sweepValidated(opts, trace_cache, file);
    }
    return sweepValidated(opts, trace_cache, std::cout);
}

} // namespace cli
} // namespace leaftl
