/**
 * @file
 * The `leaftl_sim` comparison driver: one reproducible entry point
 * that composes Runner, Ssd, the three FTLs, and any workload source,
 * sweeps gamma, queue depth, device preset, replay mode, and offered
 * load, and emits one CSV row per (ftl, workload, gamma, qd, device,
 * mode, rate) combination. The paper's figures (and future scaling
 * experiments) are sweeps over exactly this cross product.
 * Combinations are independent, so the sweep fans out over a small
 * thread pool (--jobs); rows are always emitted in combination order,
 * making the CSV byte-identical for any job count.
 *
 * Command-line flags and `--config FILE` (the same keys written as
 * `key = value` lines, see config::loadExperimentFile) lower into the
 * same config::ExperimentSpec before any run is constructed;
 * `--campaign-dir DIR` hands that spec to the fingerprinted campaign
 * runner (cli/campaign.hh) instead of the inline sweep.
 *
 * Kept as a library (main() lives in main.cc) so tests can drive the
 * parser and the sweep without spawning a process.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "config/experiment.hh"
#include "config/fingerprint.hh"
#include "sim/metrics.hh"
#include "ssd/config.hh"
#include "workload/request.hh"

namespace leaftl
{
namespace cli
{

/**
 * Parsed command line of leaftl_sim: the declarative experiment
 * (sweep axes + run scalars, see config::ExperimentSpec for every
 * field) plus the host-side knobs that never affect results.
 */
struct SimOptions : config::ExperimentSpec
{
    /** Output CSV path; empty = stdout. */
    std::string output;

    /**
     * --campaign-dir DIR: run the grid as a campaign, one
     * run-<fingerprint>.csv per unique run in DIR, instead of the
     * inline sweep.
     */
    std::string campaign_dir;

    /** --campaign-diff A B: compare two campaign directories. */
    std::string diff_a;
    std::string diff_b;

    /**
     * --diff-threshold PCT: --campaign-diff exits 1 when any shared
     * run regresses by more than this percentage on throughput or
     * improves p99 read latency's inverse (i.e. p99 grows) beyond it.
     * <= 0 disables the regression gate (report only); a value that
     * is not a finite number is rejected.
     */
    double diff_threshold = 0.0;

    bool list = false; ///< --list: print known workloads and exit.
    bool help = false; ///< --help/-h.
};

/**
 * Parse argv into @a opts. Flags are applied in order, so a flag
 * after --config overrides the file's value. An unknown `--NAME`
 * fails with the nearest experiment key suggested.
 * @return true on success; on failure @a err describes the problem.
 */
bool parseArgs(int argc, const char *const *argv, SimOptions &opts,
               std::string &err);

/** Usage text (multi-line, ends with a newline). */
std::string usage();

/** Known workload specs (for --list and error messages). */
std::vector<std::string> knownWorkloads();

/**
 * Parsed trace files keyed by workload spec. A sweep parses each
 * trace once (serially, while validating specs) and every run then
 * shares the immutable request vector, so the cache needs no locking.
 */
using TraceCache =
    std::map<std::string,
             std::shared_ptr<const std::vector<IoRequest>>>;

/**
 * Build the workload source named by @a spec.
 * @param trace_cache Optional cache for trace/fiu specs: a hit skips
 *        the parse, a miss parses and inserts. nullptr = no caching.
 * @return nullptr (with @a err set) for an unknown spec or an
 *         unreadable trace file.
 */
std::unique_ptr<WorkloadSource>
makeWorkload(const std::string &spec, const config::ExperimentSpec &opts,
             std::string &err, TraceCache *trace_cache = nullptr);

/**
 * Device config for one run of the sweep. @a device is "auto"
 * (geometry derived from the working set, scaled paper Table 1) or a
 * preset name; the spec's dram_bytes overrides either's DRAM budget.
 */
SsdConfig makeConfig(FtlKind ftl, uint32_t gamma,
                     const config::ExperimentSpec &opts,
                     const std::string &device = "auto");

/**
 * A spec's sweep grid: every (ftl, workload, device, gamma, qd, mode,
 * rate) combination in sweep order, and the unique simulations they
 * need. Combinations whose run fingerprints collide (gamma on a
 * non-learned FTL, rate on a non-rate mode) share one run.
 */
struct SweepGrid
{
    /** Unique runs, in sweep order by first appearance. */
    std::vector<config::RunPoint> runs;
    /** config::runFingerprint() of each run. */
    std::vector<std::string> fingerprints;
    /** Every combination, in sweep order. */
    std::vector<config::RunPoint> points;
    /** points[i] is answered by runs[run_of[i]]. */
    std::vector<size_t> run_of;
};

/** Expand the sweep axes of @a spec. */
SweepGrid expandGrid(const config::ExperimentSpec &spec);

/**
 * Check that every run of @a spec can start: each workload resolves
 * (trace files are parsed once, into @a trace_cache), rate-driven
 * modes have a rate > 0, and crash points only meet FTLs that model
 * recovery (config::checkCrashSupport).
 * @return 0 when runnable; otherwise the process exit code (2 for an
 *         unsupported crash schedule, 1 otherwise) with @a err set.
 */
int validateSpec(const config::ExperimentSpec &spec, TraceCache &trace_cache,
                 std::string &err);

/**
 * Run grid point @a p of @a spec on a fresh device: its config, the
 * mode's admission and arrival shaper, and the host wall clock
 * (res.host_wall_ns).
 * @return false with @a err set when the workload cannot be built.
 */
bool executeRun(const config::ExperimentSpec &spec, const config::RunPoint &p,
                TraceCache *trace_cache, RunResult &res, std::string &err);

/**
 * Worker threads for a sweep or campaign of @a runs runs: @a requested
 * (the jobs key; 0 = hardware concurrency), capped at @a runs and
 * never 0.
 */
unsigned sweepWorkers(unsigned requested, size_t runs);

/**
 * The worker pool a sweep and a campaign share: @a task(i) for every
 * i in [0, count), claimed in order by sweepWorkers(jobs, count)
 * threads. The calling thread runs @a meanwhile (if set) while they
 * work, then joins them.
 */
void runPool(unsigned jobs, size_t count,
             const std::function<void(size_t)> &task,
             const std::function<void()> &meanwhile = {});

/**
 * Log the progress line of run @a p to stderr: "leaftl_sim: " @a what,
 * then the run's axes. Concurrent workers never interleave lines.
 */
void announceRun(const std::string &what, const config::RunPoint &p);

/** What a CSV row renders: a grid point and the run that answers it. */
struct CsvRowInput
{
    /** The row's own point: ftl, gamma, device, mode and rate echo it. */
    const config::RunPoint &point;
    const RunResult &res;
    uint32_t page_size; ///< Device page size, prices throughput_mbps.
};

/** One CSV column: its header name and its cell renderer. */
struct CsvColumn
{
    const char *name;
    std::string (*cell)(const CsvRowInput &row);
};

/**
 * The sweep CSV layout in column order: the header and every row of a
 * sweep and of a campaign's run CSVs derive from this one table. Columns
 * keep their positions (downstream scripts parse by position), so new
 * ones go right before wall_ns, the host wall clock -- the one
 * nondeterministic cell, kept last so stripping it leaves a
 * reproducible row.
 */
const std::vector<CsvColumn> &csvColumns();

/** Position of column @a name in csvColumns(); panics if absent. */
size_t csvColumnIndex(const std::string &name);

/** CSV header row (no trailing newline). */
std::string csvHeader();

/** The CSV row of grid point @a point answered by @a res (no newline). */
std::string csvRow(const config::ExperimentSpec &spec,
                   const config::RunPoint &point, const RunResult &res);

/**
 * Run the whole sweep on opts.jobs worker threads and write the CSV
 * to @a out (header first, then one row per combination, in
 * combination order regardless of job count). A spec validateSpec()
 * rejects writes nothing.
 * @return process exit code (0 = every combination ran).
 */
int runSweep(const config::ExperimentSpec &opts, std::ostream &out);

/**
 * Full CLI: parse, dispatch --help/--list/--campaign-diff, then run
 * the spec as a campaign (--campaign-dir) or an inline sweep.
 */
int simMain(int argc, const char *const *argv);

} // namespace cli
} // namespace leaftl
