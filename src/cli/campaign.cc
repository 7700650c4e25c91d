#include "cli/campaign.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>

#include "cli/sim_cli.hh"

namespace leaftl
{
namespace cli
{

namespace
{

namespace fs = std::filesystem;

/** CSV columns a BENCH json run entry carries, under the same names. */
constexpr const char *kBenchFields[] = {"throughput_mbps", "achieved_iops",
                                        "p99_read_lat_us", "p99_lat_e2e_us",
                                        "wall_ns"};

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
        std::string quoted = "\"";
        quoted += jsonEscape(s);
        quoted += '"';
        return quoted;
    });
}

} // namespace

int
runCampaign(const config::CampaignSpec &campaign, std::ostream &log)
{
    const config::ExperimentSpec &spec = campaign.exp;

    // Every grid point shares the spec's workloads, rates and crash
    // schedule, so one unrunnable point rejects the whole campaign
    // before any run (or its directory) exists.
    TraceCache trace_cache;
    std::string spec_err;
    if (const int rc = validateSpec(spec, trace_cache, spec_err)) {
        std::cerr << "leaftl_sim: campaign '" << campaign.name
                  << "': " << spec_err << '\n';
        return rc;
    }

    const SweepGrid grid = expandGrid(spec);
    const std::vector<config::RunPoint> &runs = grid.runs;
    const std::vector<std::string> &fingerprints = grid.fingerprints;
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

    std::vector<uint8_t> resumed(runs.size(), 0);
    std::vector<size_t> pending;
    for (size_t i = 0; i < runs.size(); i++) {
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
    std::mutex mutex; // Guards first_error.
    std::string first_error;
    auto fail = [&](const std::string &err) {
        std::lock_guard<std::mutex> lock(mutex);
        if (first_error.empty())
            first_error = err;
    };

    runPool(spec.jobs, pending.size(), [&](size_t slot) {
        const size_t i = pending[slot];
        const config::RunPoint &p = runs[i];
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (!first_error.empty())
                return; // A failed run aborts the rest.
        }
        announceRun("campaign run " + fingerprints[i] + ": ", p);
        RunResult res;
        std::string err;
        if (!executeRun(spec, p, &trace_cache, res, err)) {
            fail(err);
            return;
        }

        const fs::path path = dir / runCsvName(fingerprints[i]);
        const fs::path tmp = path.string() + ".tmp" + std::to_string(i);
        {
            std::ofstream out(tmp);
            out << csvHeader() << '\n' << csvRow(spec, p, res) << '\n';
            if (!out.good()) {
                fail("cannot write '" + tmp.string() + "'");
                return;
            }
        }
        std::error_code rename_ec;
        fs::rename(tmp, path, rename_ec);
        if (rename_ec)
            fail("cannot rename '" + tmp.string() +
                 "': " + rename_ec.message());
    });
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
        if (cells.size() != csvColumns().size()) {
            std::cerr << "leaftl_sim: short campaign CSV row: " << path
                      << '\n';
            return 1;
        }
        if (!resumed[i])
            wall_ns_executed += std::stoull(cells[csvColumnIndex("wall_ns")]);
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
                 << "\", \"rate\": " << jsonNumber(p.rate);
        const char *sep = ",\n     ";
        for (const char *field : kBenchFields) {
            run_rows << sep << '"' << field
                     << "\": " << cells[csvColumnIndex(field)];
            sep = ", ";
        }
        run_rows << "}";
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
