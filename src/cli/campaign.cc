#include "cli/campaign.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>

#include "cli/sim_cli.hh"
#include "util/parse.hh"

namespace leaftl
{
namespace cli
{

namespace
{

namespace fs = std::filesystem;

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

} // namespace

int
runCampaign(const config::ExperimentSpec &spec, const std::string &dir,
            std::ostream &log)
{
    // Every grid point shares the spec's workloads, rates and crash
    // schedule, so one unrunnable point rejects the whole campaign
    // before any run (or its directory) exists.
    TraceCache trace_cache;
    std::string spec_err;
    if (const int rc = validateSpec(spec, trace_cache, spec_err)) {
        std::cerr << "leaftl_sim: " << spec_err << '\n';
        return rc;
    }

    const SweepGrid grid = expandGrid(spec);
    const std::vector<config::RunPoint> &runs = grid.runs;
    const std::vector<std::string> &fingerprints = grid.fingerprints;
    if (runs.empty()) {
        std::cerr << "leaftl_sim: campaign grid expands to zero runs\n";
        return 1;
    }

    const fs::path root(dir);
    std::error_code ec;
    fs::create_directories(root, ec);
    if (ec) {
        std::cerr << "leaftl_sim: cannot create campaign directory '" << dir
                  << "': " << ec.message() << '\n';
        return 1;
    }

    std::vector<size_t> pending;
    for (size_t i = 0; i < runs.size(); i++) {
        if (!runCsvComplete(root / runCsvName(fingerprints[i])))
            pending.push_back(i);
    }

    log << "campaign " << dir << ": " << runs.size() << " unique runs, "
        << (runs.size() - pending.size()) << " already on disk, "
        << pending.size() << " to execute\n";
    log.flush();

    // Execute the missing runs on a worker pool. Each run writes its
    // own fingerprinted CSV (temp file + rename, so a kill mid-write
    // leaves no "done" marker); runs are independent, so no ordering
    // is needed.
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

        const fs::path path = root / runCsvName(fingerprints[i]);
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

    log << "campaign " << dir << ": " << pending.size() << " executed, "
        << (runs.size() - pending.size()) << " resumed\n";
    log.flush();
    return 0;
}

namespace
{

/** One run's summary metrics, read from its run-<fp>.csv. */
struct DiffRun
{
    std::string label;
    double throughput = 0.0; ///< throughput_mbps (simulated).
    double p99_read = 0.0;   ///< p99_read_lat_us (simulated).
    double wall_ns = 0.0;    ///< Host wall clock (nondeterministic).
};

std::string
shortNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/**
 * Read run CSV @a path, locating every column by name in its own
 * header.
 * @return false with @a err set when the file has no data row or
 *         lacks a column the report needs.
 */
bool
loadRun(const fs::path &path, DiffRun &run, std::string &err)
{
    std::ifstream in(path);
    std::string header, row;
    if (!std::getline(in, header) || !std::getline(in, row)) {
        err = "no data row in '" + path.string() + "'";
        return false;
    }
    const std::vector<std::string> names = splitCsv(header);
    const std::vector<std::string> cells = splitCsv(row);
    std::map<std::string, std::string> cell;
    for (size_t c = 0; c < names.size() && c < cells.size(); c++)
        cell[names[c]] = cells[c];
    for (const char *name :
         {"ftl", "workload", "gamma", "qd", "device", "mode", "rate_iops",
          "throughput_mbps", "p99_read_lat_us", "wall_ns"}) {
        if (!cell.count(name)) {
            err = "no " + std::string(name) + " column in '" +
                  path.string() + "'";
            return false;
        }
    }
    double rate = 0.0;
    if (!parseDouble(cell["throughput_mbps"], run.throughput) ||
        !parseDouble(cell["p99_read_lat_us"], run.p99_read) ||
        !parseDouble(cell["wall_ns"], run.wall_ns) ||
        !parseDouble(cell["rate_iops"], rate)) {
        err = "bad number in '" + path.string() + "'";
        return false;
    }
    run.label = cell["ftl"] + "/" + cell["workload"] + "/gamma=" +
                cell["gamma"] + "/qd=" + cell["qd"] + "/" + cell["device"] +
                "/" + cell["mode"];
    if (rate > 0.0)
        run.label += "/rate=" + shortNumber(rate);
    return true;
}

/** Every run-<fp>.csv of campaign directory @a dir, keyed by <fp>. */
bool
loadRunDir(const std::string &dir, std::map<std::string, DiffRun> &runs,
           std::string &err)
{
    std::error_code ec;
    const fs::directory_iterator entries(dir, ec);
    if (ec) {
        err = "cannot read campaign directory '" + dir + "': " + ec.message();
        return false;
    }
    for (const fs::directory_entry &entry : entries) {
        const std::string stem = entry.path().stem().string();
        if (entry.path().extension() != ".csv" || stem.rfind("run-", 0) != 0)
            continue;
        DiffRun run;
        if (!loadRun(entry.path(), run, err))
            return false;
        runs.emplace(stem.substr(4), std::move(run));
    }
    if (runs.empty()) {
        err = "no run-<fingerprint>.csv in '" + dir + "'";
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
campaignDiff(const std::string &dir_a, const std::string &dir_b,
             double threshold_pct, std::ostream &out)
{
    std::map<std::string, DiffRun> a, b;
    std::string err;
    if (!loadRunDir(dir_a, a, err) || !loadRunDir(dir_b, b, err)) {
        std::cerr << "leaftl_sim: " << err << '\n';
        return 2;
    }

    size_t shared = 0;
    for (const auto &[fp, run_a] : a)
        shared += b.count(fp);
    out << "campaign diff: " << dir_a << " (" << a.size() << " runs) vs "
        << dir_b << " (" << b.size() << " runs), " << shared
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
            << "    throughput " << shortNumber(run_a.throughput) << " -> "
            << shortNumber(run_b.throughput) << " MB/s ("
            << pct(run_a.throughput, run_b.throughput) << ")"
            << ", p99 read " << shortNumber(run_a.p99_read) << " -> "
            << shortNumber(run_b.p99_read) << " us ("
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
            out << "  only in " << dir_a << ": " << fp << " "
                << run_a.label << "\n";
    }
    for (const auto &[fp, run_b] : b) {
        if (!a.count(fp))
            out << "  only in " << dir_b << ": " << fp << " "
                << run_b.label << "\n";
    }

    if (regressed) {
        out << "campaign diff: REGRESSION beyond "
            << shortNumber(threshold_pct) << "% threshold\n";
        return 1;
    }
    if (threshold_pct > 0.0)
        out << "campaign diff: within " << shortNumber(threshold_pct)
            << "% threshold\n";
    return 0;
}

} // namespace cli
} // namespace leaftl
