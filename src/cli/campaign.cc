#include "cli/campaign.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "cli/sim_cli.hh"
#include "sim/runner.hh"
#include "sim/shard_runner.hh"
#include "ssd/ssd.hh"
#include "util/host_clock.hh"
#include "workload/arrival.hh"

namespace leaftl
{
namespace cli
{

namespace
{

namespace fs = std::filesystem;

/** Columns (0-based) the JSON summary lifts out of a run's CSV row. */
constexpr int kColThroughput = 7;
constexpr int kColP99Read = 11;
constexpr int kColAchievedIops = 25;
constexpr int kColP99E2e = 28;
constexpr int kColWallNs = 40;

std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream in(line);
    std::string cell;
    while (std::getline(in, cell, ','))
        out.push_back(cell);
    return out;
}

std::string
runCsvName(const std::string &fingerprint)
{
    return "run-" + fingerprint + ".csv";
}

/**
 * A run counts as done iff its CSV is fully on disk: current header
 * plus a complete data row. Anything else (missing, half-written
 * despite the rename protocol, or a stale header from an older CSV
 * schema) is re-executed and overwritten.
 */
bool
runCsvComplete(const fs::path &path)
{
    std::ifstream in(path);
    if (!in.good())
        return false;
    std::string header, row;
    if (!std::getline(in, header) || header != csvHeader())
        return false;
    if (!std::getline(in, row))
        return false;
    return splitCsv(row).size() == splitCsv(header).size();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

template <typename T, typename Fn>
std::string
jsonArray(const std::vector<T> &items, Fn render)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); i++) {
        if (i)
            out += ", ";
        out += render(items[i]);
    }
    out += "]";
    return out;
}

std::string
jsonStringArray(const std::vector<std::string> &items)
{
    return jsonArray(items, [](const std::string &s) {
        return "\"" + jsonEscape(s) + "\"";
    });
}

} // namespace

std::vector<config::RunPoint>
expandCampaignGrid(const config::ExperimentSpec &spec)
{
    // Same loop nest as runSweep so runs land in sweep order; unlike
    // the sweep (one row per combination) a campaign keeps only the
    // unique simulations -- combinations whose canonical configs
    // collide are literally the same run and share one CSV.
    std::vector<config::RunPoint> runs;
    std::set<std::string> seen;
    for (const FtlKind ftl : spec.ftls) {
        for (const std::string &wl : spec.workloads) {
            for (const std::string &device : spec.devices) {
                for (const uint32_t gamma : spec.gammas) {
                    for (const uint32_t qd : spec.queue_depths) {
                        for (const std::string &mode : spec.modes) {
                            for (const double rate : spec.rates) {
                                config::RunPoint p;
                                p.ftl = ftl;
                                p.workload = wl;
                                p.gamma = gamma;
                                p.qd = qd;
                                p.device = device;
                                p.mode = mode;
                                p.rate = rate;
                                if (seen
                                        .insert(runFingerprint(spec, p))
                                        .second)
                                    runs.push_back(std::move(p));
                            }
                        }
                    }
                }
            }
        }
    }
    return runs;
}

int
runCampaign(const config::CampaignSpec &campaign, std::ostream &log)
{
    const config::ExperimentSpec &spec = campaign.exp;

    // Every grid point shares the spec's crash schedule, so one FTL
    // without a recovery model rejects the whole campaign before any
    // run (or its directory) exists.
    {
        std::string err;
        if (!config::checkCrashSupport(spec, err)) {
            std::cerr << "leaftl_sim: campaign '" << campaign.name
                      << "': " << err << '\n';
            return 2;
        }
    }

    // Same up-front validation as the inline sweep: resolve every
    // workload (parsing traces once into the shared cache) and
    // reject rate-driven modes without a positive rate.
    TraceCache trace_cache;
    for (const std::string &wl : spec.workloads) {
        std::string err;
        if (!makeWorkload(wl, spec, err, &trace_cache)) {
            std::cerr << "leaftl_sim: " << err << '\n';
            return 1;
        }
    }
    for (const std::string &mode : spec.modes) {
        if (!config::modeUsesRate(mode))
            continue;
        for (const double rate : spec.rates) {
            if (rate <= 0.0) {
                std::cerr << "leaftl_sim: mode '" << mode
                          << "' needs rate > 0\n";
                return 1;
            }
        }
    }

    const std::vector<config::RunPoint> runs = expandCampaignGrid(spec);
    if (runs.empty()) {
        std::cerr << "leaftl_sim: campaign '" << campaign.name
                  << "' expands to zero runs\n";
        return 1;
    }

    const fs::path dir(campaign.dir);
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        std::cerr << "leaftl_sim: cannot create campaign directory '"
                  << campaign.dir << "': " << ec.message() << '\n';
        return 1;
    }

    std::vector<std::string> fingerprints(runs.size());
    std::vector<uint8_t> resumed(runs.size(), 0);
    std::vector<size_t> pending;
    for (size_t i = 0; i < runs.size(); i++) {
        fingerprints[i] = runFingerprint(spec, runs[i]);
        if (runCsvComplete(dir / runCsvName(fingerprints[i])))
            resumed[i] = 1;
        else
            pending.push_back(i);
    }

    log << "campaign '" << campaign.name << "': " << runs.size()
        << " unique runs, " << (runs.size() - pending.size())
        << " already on disk, " << pending.size() << " to execute -> "
        << campaign.dir << '\n';
    log.flush();

    // Execute the missing runs on a worker pool. Each run writes its
    // own fingerprinted CSV (temp file + rename, so a kill mid-write
    // leaves no "done" marker); runs are independent, so no ordering
    // is needed -- the JSON below is assembled in grid order.
    std::atomic<size_t> next{0};
    std::mutex mutex; // Guards first_error and the progress log.
    std::string first_error;

    auto worker = [&]() {
        for (;;) {
            const size_t slot = next.fetch_add(1);
            if (slot >= pending.size())
                return;
            const size_t i = pending[slot];
            const config::RunPoint &p = runs[i];
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (!first_error.empty())
                    return; // A failed run aborts the rest.
                std::cerr << "leaftl_sim: campaign run " << fingerprints[i]
                          << ": " << ftlKindName(p.ftl) << " / "
                          << p.workload << " / gamma=" << p.gamma
                          << " / qd=" << p.qd << " / device=" << p.device
                          << " / mode=" << p.mode << " / rate=" << p.rate
                          << " ...\n";
            }
            std::string err;
            auto wl = makeWorkload(p.workload, spec, err, &trace_cache);
            if (!wl) {
                std::lock_guard<std::mutex> lock(mutex);
                if (first_error.empty())
                    first_error = err;
                return;
            }
            const SsdConfig cfg =
                makeConfig(p.ftl, p.gamma, spec, p.device);
            std::unique_ptr<ShardPool> run_pool;
            Ssd ssd(cfg);
            RunOptions ropts;
            ropts.prefill_pages = static_cast<uint64_t>(
                spec.prefill_frac * spec.working_set_pages);
            ropts.mixed_prefill = true;
            ropts.queue_depth = p.qd;
            ropts.crash_points = spec.crash_points;
            if (spec.threads > 1) {
                run_pool = std::make_unique<ShardPool>(spec.threads);
                ssd.attachShardPool(run_pool.get());
            }
            ShaperSpec shaper;
            shaper.rate_iops = p.rate;
            shaper.seed = spec.seed;
            shaper.duty = spec.burst_duty;
            if (p.mode == "closed") {
                ropts.admission = Admission::Closed;
            } else {
                ropts.admission = Admission::Open;
                if (p.mode == "open")
                    shaper.kind = ShaperKind::AsRecorded;
                else if (p.mode == "fixed")
                    shaper.kind = ShaperKind::FixedRate;
                else if (p.mode == "poisson")
                    shaper.kind = ShaperKind::Poisson;
                else
                    shaper.kind = ShaperKind::Burst;
                wl = shapeArrivals(std::move(wl), shaper);
            }
            HostTimer timer;
            RunResult res = Runner::replay(ssd, *wl, ropts);
            res.host_wall_ns = timer.elapsedNs();
            res.mode = p.mode;
            res.rate_iops = config::modeUsesRate(p.mode) ? p.rate : 0.0;

            const fs::path path = dir / runCsvName(fingerprints[i]);
            const fs::path tmp =
                path.string() + ".tmp" + std::to_string(i);
            {
                std::ofstream out(tmp);
                out << csvHeader() << '\n'
                    << csvRow(res, p.ftl, p.gamma, cfg, p.device) << '\n';
                if (!out.good()) {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (first_error.empty())
                        first_error = "cannot write '" + tmp.string() + "'";
                    return;
                }
            }
            std::error_code rename_ec;
            fs::rename(tmp, path, rename_ec);
            if (rename_ec) {
                std::lock_guard<std::mutex> lock(mutex);
                if (first_error.empty())
                    first_error = "cannot rename '" + tmp.string() +
                                  "': " + rename_ec.message();
            }
        }
    };

    // Cap campaign fan-out so jobs x intra-run threads never silently
    // oversubscribes the machine.
    std::string jobs_warning;
    unsigned jobs = clampSweepJobs(
        spec.jobs, spec.threads,
        std::max(1u, std::thread::hardware_concurrency()), &jobs_warning);
    if (!jobs_warning.empty())
        std::cerr << "leaftl_sim: " << jobs_warning << '\n';
    jobs = static_cast<unsigned>(
        std::min<size_t>(jobs, std::max<size_t>(1, pending.size())));
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned i = 0; i < jobs; i++)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    if (!first_error.empty()) {
        std::cerr << "leaftl_sim: " << first_error << '\n';
        return 1; // Finished CSVs stay on disk; a rerun resumes.
    }

    // Summarize from the CSVs on disk -- one code path whether a run
    // executed just now or was resumed from an earlier campaign.
    uint64_t wall_ns_executed = 0;
    std::ostringstream run_rows;
    for (size_t i = 0; i < runs.size(); i++) {
        const config::RunPoint &p = runs[i];
        const fs::path path = dir / runCsvName(fingerprints[i]);
        std::ifstream in(path);
        std::string header, row;
        if (!std::getline(in, header) || !std::getline(in, row)) {
            std::cerr << "leaftl_sim: campaign CSV vanished: " << path
                      << '\n';
            return 1;
        }
        const std::vector<std::string> cells = splitCsv(row);
        if (cells.size() <= static_cast<size_t>(kColWallNs)) {
            std::cerr << "leaftl_sim: short campaign CSV row: " << path
                      << '\n';
            return 1;
        }
        if (!resumed[i])
            wall_ns_executed += std::stoull(cells[kColWallNs]);
        if (i)
            run_rows << ",\n";
        run_rows << "    {\"fingerprint\": \"" << fingerprints[i]
                 << "\", \"csv\": \"" << jsonEscape(runCsvName(
                        fingerprints[i]))
                 << "\", \"executed\": " << (resumed[i] ? "false" : "true")
                 << ",\n     \"ftl\": \"" << ftlKindName(p.ftl)
                 << "\", \"workload\": \"" << jsonEscape(p.workload)
                 << "\", \"gamma\": " << p.gamma << ", \"qd\": " << p.qd
                 << ", \"device\": \"" << jsonEscape(p.device)
                 << "\", \"mode\": \"" << p.mode
                 << "\", \"rate\": " << jsonNumber(p.rate)
                 << ",\n     \"throughput_mbps\": " << cells[kColThroughput]
                 << ", \"achieved_iops\": " << cells[kColAchievedIops]
                 << ", \"p99_read_lat_us\": " << cells[kColP99Read]
                 << ", \"p99_lat_e2e_us\": " << cells[kColP99E2e]
                 << ", \"wall_ns\": " << cells[kColWallNs] << "}";
    }

    // The campaign's config hash: order-independent over the runs'
    // canonical configs, so any file layout that expands to the same
    // grid hashes identically.
    std::vector<std::string> canonicals;
    for (const config::RunPoint &p : runs)
        canonicals.push_back(config::canonicalRunConfig(spec, p));
    std::sort(canonicals.begin(), canonicals.end());
    std::string grid_canonical;
    for (const std::string &c : canonicals)
        grid_canonical += c + "\n";
    char config_hash[17];
    std::snprintf(config_hash, sizeof(config_hash), "%016llx",
                  static_cast<unsigned long long>(
                      config::fnv1a64(grid_canonical)));

    std::vector<std::string> ftl_names;
    for (const FtlKind ftl : spec.ftls)
        ftl_names.push_back(ftlKindName(ftl));
    const size_t executed = pending.size();

    std::ostringstream json;
    json << "{\n"
         << "  \"campaign\": \"" << jsonEscape(campaign.name) << "\",\n"
         << "  \"config_hash\": \"" << config_hash << "\",\n"
         << "  \"runs_total\": " << runs.size() << ",\n"
         << "  \"runs_executed\": " << executed << ",\n"
         << "  \"runs_resumed\": " << (runs.size() - executed) << ",\n"
         << "  \"wall_ns_executed\": " << wall_ns_executed << ",\n"
         << "  \"grid\": {\n"
         << "    \"ftl\": " << jsonStringArray(ftl_names) << ",\n"
         << "    \"workload\": " << jsonStringArray(spec.workloads)
         << ",\n"
         << "    \"gamma\": "
         << jsonArray(spec.gammas,
                      [](uint32_t g) { return std::to_string(g); })
         << ",\n"
         << "    \"qd\": "
         << jsonArray(spec.queue_depths,
                      [](uint32_t q) { return std::to_string(q); })
         << ",\n"
         << "    \"device\": " << jsonStringArray(spec.devices) << ",\n"
         << "    \"mode\": " << jsonStringArray(spec.modes) << ",\n"
         << "    \"rate\": "
         << jsonArray(spec.rates,
                      [](double r) { return jsonNumber(r); })
         << ",\n"
         << "    \"requests\": " << spec.requests
         << ", \"ws\": " << spec.working_set_pages
         << ", \"seed\": " << spec.seed << "\n"
         << "  },\n"
         << "  \"runs\": [\n"
         << run_rows.str() << "\n  ]\n}\n";

    const fs::path json_path = dir / ("BENCH_" + campaign.name + ".json");
    const fs::path json_tmp = json_path.string() + ".tmp";
    {
        std::ofstream out(json_tmp);
        out << json.str();
        if (!out.good()) {
            std::cerr << "leaftl_sim: cannot write '" << json_tmp.string()
                      << "'\n";
            return 1;
        }
    }
    fs::rename(json_tmp, json_path, ec);
    if (ec) {
        std::cerr << "leaftl_sim: cannot rename '" << json_tmp.string()
                  << "': " << ec.message() << '\n';
        return 1;
    }

    log << "campaign '" << campaign.name << "': " << executed
        << " executed, " << (runs.size() - executed) << " resumed, "
        << "config_hash " << config_hash << " -> "
        << json_path.string() << '\n';
    log.flush();
    return 0;
}

namespace
{

/** One run's summary metrics lifted from a BENCH_<name>.json. */
struct DiffRun
{
    std::string label;
    double throughput = 0.0; ///< throughput_mbps (simulated).
    double p99_read = 0.0;   ///< p99_read_lat_us (simulated).
    double wall_ns = 0.0;    ///< Host wall clock (nondeterministic).
};

bool
extractString(const std::string &seg, const std::string &key,
              std::string &out)
{
    const std::string pat = "\"" + key + "\": \"";
    const size_t at = seg.find(pat);
    if (at == std::string::npos)
        return false;
    const size_t begin = at + pat.size();
    const size_t end = seg.find('"', begin);
    if (end == std::string::npos)
        return false;
    out = seg.substr(begin, end - begin);
    return true;
}

bool
extractNumber(const std::string &seg, const std::string &key, double &out)
{
    const std::string pat = "\"" + key + "\": ";
    const size_t at = seg.find(pat);
    if (at == std::string::npos)
        return false;
    try {
        out = std::stod(seg.substr(at + pat.size()));
    } catch (...) {
        return false;
    }
    return true;
}

/**
 * Parse the runs of a BENCH_<name>.json into a fingerprint-keyed
 * map. The summary is our own emitter's output, so a targeted
 * key scan is enough -- no general JSON parser needed.
 */
bool
loadBenchRuns(const std::string &path, std::map<std::string, DiffRun> &runs,
              std::string &err)
{
    std::ifstream in(path);
    if (!in.good()) {
        err = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    const std::string pat = "\"fingerprint\": \"";
    size_t at = text.find(pat);
    while (at != std::string::npos) {
        const size_t next = text.find(pat, at + pat.size());
        const std::string seg = text.substr(
            at, (next == std::string::npos ? text.size() : next) - at);
        const size_t fp_end = seg.find('"', pat.size());
        if (fp_end == std::string::npos) {
            err = "malformed fingerprint in '" + path + "'";
            return false;
        }
        const std::string fp = seg.substr(pat.size(), fp_end - pat.size());
        DiffRun run;
        std::string ftl, workload, device, mode;
        double gamma = 0.0, qd = 0.0, rate = 0.0;
        if (!extractString(seg, "ftl", ftl) ||
            !extractString(seg, "workload", workload) ||
            !extractString(seg, "device", device) ||
            !extractString(seg, "mode", mode) ||
            !extractNumber(seg, "gamma", gamma) ||
            !extractNumber(seg, "qd", qd) ||
            !extractNumber(seg, "throughput_mbps", run.throughput) ||
            !extractNumber(seg, "p99_read_lat_us", run.p99_read) ||
            !extractNumber(seg, "wall_ns", run.wall_ns)) {
            err = "missing run fields in '" + path + "' (run " + fp + ")";
            return false;
        }
        extractNumber(seg, "rate", rate);
        std::ostringstream label;
        label << ftl << "/" << workload << "/gamma="
              << static_cast<uint64_t>(gamma)
              << "/qd=" << static_cast<uint64_t>(qd) << "/" << device
              << "/" << mode;
        if (rate > 0.0)
            label << "/rate=" << jsonNumber(rate);
        run.label = label.str();
        runs.emplace(fp, std::move(run));
        at = next;
    }
    if (runs.empty()) {
        err = "no runs found in '" + path + "'";
        return false;
    }
    return true;
}

std::string
pct(double from, double to)
{
    if (from == 0.0)
        return "n/a";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.2f%%",
                  (to - from) / from * 100.0);
    return buf;
}

} // namespace

int
campaignDiff(const std::string &path_a, const std::string &path_b,
             double threshold_pct, std::ostream &out)
{
    std::map<std::string, DiffRun> a, b;
    std::string err;
    if (!loadBenchRuns(path_a, a, err) || !loadBenchRuns(path_b, b, err)) {
        std::cerr << "leaftl_sim: " << err << '\n';
        return 2;
    }

    size_t shared = 0;
    for (const auto &[fp, run_a] : a)
        shared += b.count(fp);
    out << "campaign diff: " << path_a << " (" << a.size() << " runs) vs "
        << path_b << " (" << b.size() << " runs), " << shared
        << " shared\n";

    // Shared fingerprints: identical canonical run configs, so the
    // simulated metrics must match unless the simulator's behavior
    // changed between the two campaigns. Wall clock is informational.
    bool regressed = false;
    for (const auto &[fp, run_a] : a) {
        const auto it = b.find(fp);
        if (it == b.end())
            continue;
        const DiffRun &run_b = it->second;
        out << "  " << fp << " " << run_a.label << "\n"
            << "    throughput " << jsonNumber(run_a.throughput) << " -> "
            << jsonNumber(run_b.throughput) << " MB/s ("
            << pct(run_a.throughput, run_b.throughput) << ")"
            << ", p99 read " << jsonNumber(run_a.p99_read) << " -> "
            << jsonNumber(run_b.p99_read) << " us ("
            << pct(run_a.p99_read, run_b.p99_read) << ")"
            << ", wall " << pct(run_a.wall_ns, run_b.wall_ns) << "\n";
        if (threshold_pct > 0.0) {
            if (run_a.throughput > 0.0 &&
                run_b.throughput <
                    run_a.throughput * (1.0 - threshold_pct / 100.0))
                regressed = true;
            if (run_a.p99_read > 0.0 &&
                run_b.p99_read >
                    run_a.p99_read * (1.0 + threshold_pct / 100.0))
                regressed = true;
        }
    }
    for (const auto &[fp, run_a] : a) {
        if (!b.count(fp))
            out << "  only in " << path_a << ": " << fp << " "
                << run_a.label << "\n";
    }
    for (const auto &[fp, run_b] : b) {
        if (!a.count(fp))
            out << "  only in " << path_b << ": " << fp << " "
                << run_b.label << "\n";
    }

    if (regressed) {
        out << "campaign diff: REGRESSION beyond " << jsonNumber(
               threshold_pct) << "% threshold\n";
        return 1;
    }
    if (threshold_pct > 0.0)
        out << "campaign diff: within " << jsonNumber(threshold_pct)
            << "% threshold\n";
    return 0;
}

} // namespace cli
} // namespace leaftl
