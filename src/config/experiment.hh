/**
 * @file
 * The typed experiment description every front end lowers into.
 *
 * An ExperimentSpec is the full cross product leaftl_sim sweeps —
 * device geometry/preset, workload specs, arrival shaping, the sweep
 * grid (ftl x workload x gamma x qd x device x mode x rate), and the
 * scalar run options. Command-line flags, `--set key=value`
 * overrides, and `[experiment]` sections of a config file all apply
 * the same named keys through applyExperimentKey(), so a value that
 * validates in one front end validates identically in the others and
 * an equivalent config file reproduces a flag invocation's rows
 * exactly.
 *
 * Unknown keys are rejected (never ignored) with the section named
 * and the nearest known key suggested.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/config_file.hh"
#include "ssd/config.hh"

namespace leaftl
{
namespace config
{

/** A declarative experiment: sweep axes + scalar run options. */
struct ExperimentSpec
{
    /** FTLs to compare (key "ftl"; default: LeaFTL only). */
    std::vector<FtlKind> ftls = {FtlKind::LeaFTL};

    /**
     * Workload specs (key "workload"). Grammar:
     *   synthetic:{seq,rand,zipf,stride,log,mix}
     *   msr:<name>   (or a bare MSR/FIU model name)
     *   app:<name>
     *   trace:<path> (MSR-Cambridge CSV)
     *   fiu:<path>   (FIU/SPC text trace)
     */
    std::vector<std::string> workloads = {"synthetic:zipf"};

    /** Gamma sweep (key "gamma"; LeaFTL error bound, others ignore). */
    std::vector<uint32_t> gammas = {0};

    /** Queue-depth sweep (key "qd"; outstanding host requests). */
    std::vector<uint32_t> queue_depths = {1};

    /**
     * Replay-mode sweep (key "mode"). "closed" is the historical
     * closed-loop admission; the rest run open-loop (end-to-end
     * latency measured from the arrival tick) with the named arrival
     * shaper: "open" keeps recorded arrivals, "fixed"/"poisson"/
     * "burst" rewrite them at each rate (requests/s).
     */
    std::vector<std::string> modes = {"closed"};

    /**
     * Offered-load sweep in requests/s (key "rate"), used by the
     * rate-driven modes (fixed/poisson/burst). Closed/open rows
     * ignore it (and are deduplicated across rates, like gamma for
     * non-learned FTLs).
     */
    std::vector<double> rates = {0.0};

    /** Burst-shaper duty cycle (key "burst-duty"; on-fraction). */
    double burst_duty = 0.25;

    /** Fail fast on malformed trace lines (key "trace-strict"). */
    bool trace_strict = false;

    /**
     * Device sweep (key "device"): "auto" (geometry derived from the
     * working set, the historical behavior) or a named preset from
     * flash/presets.hh (tiny, paper, paper-2tb). LPAs wrap modulo the
     * device's host capacity, so one workload compares devices
     * fairly.
     */
    std::vector<std::string> devices = {"auto"};

    /** Sweep worker threads (key "jobs"; 0 = hardware concurrency). */
    unsigned jobs = 0;

    /**
     * Intra-run replay workers per run (key "threads"; 1 = the serial
     * engine). Results are bit-identical for any value -- this is a
     * wall-clock axis only, which is also why it is excluded from the
     * run fingerprint.
     */
    unsigned threads = 1;

    uint64_t requests = 100'000;              ///< Key "requests".
    uint64_t working_set_pages = 64 * 1024;   ///< Key "ws".
    /** Key "dram-mb"/"dram-bytes"; 0 = derive from the working set. */
    uint64_t dram_bytes = 0;
    /** Key "prefill": prefilled fraction of the working set. */
    double prefill_frac = 0.85;
    /** Key "read-ratio": override the workload's; <0 keeps default. */
    double read_ratio = -1.0;
    /** Key "interarrival": mean gap override in us; <0 = default. */
    double interarrival_us = -1.0;
    uint64_t seed = 42;                       ///< Key "seed".

    /**
     * Key "snapshot-interval": host writes (pages) between automatic
     * mapping snapshots; 0 = only explicit persists (historical).
     */
    uint64_t snapshot_interval_writes = 0;
    /**
     * Key "journal-threshold": learn-journal bytes that trigger an
     * automatic incremental snapshot; 0 keeps the legacy monolithic
     * snapshot pipeline.
     */
    uint64_t journal_threshold_bytes = 0;
    /**
     * Key "crash-at": request indices where the replay injects a
     * crash + recovery (comma list; stored sorted ascending).
     */
    std::vector<uint64_t> crash_points;
};

/** Map "leaftl"/"dftl"/"sftl" to the FtlKind. @return false if unknown. */
bool parseFtlName(const std::string &name, FtlKind &kind);

/** Known "mode" tokens, in presentation order. */
std::vector<std::string> knownModes();

/** Whether @a mode consumes the rate axis (fixed/poisson/burst). */
bool modeUsesRate(const std::string &mode);

/** Every key applyExperimentKey() accepts, in presentation order. */
std::vector<std::string> knownExperimentKeys();

/**
 * The known experiment key closest to @a key by edit distance (for
 * "did you mean" suggestions; '_' and '-' count as equal).
 */
std::string nearestExperimentKey(const std::string &key);

/**
 * Apply one named key to @a spec with exactly the validation the
 * corresponding command-line flag performs ('_' and '-' are
 * interchangeable in @a key). An unknown key fails with a "did you
 * mean" suggestion.
 * @return true on success; false with the problem in @a err.
 */
bool applyExperimentKey(ExperimentSpec &spec, const std::string &key,
                        const std::string &value, std::string &err);

/**
 * Reject crash injection on an FTL without a recovery model: only
 * LeaFTL persists and restores its mapping, so a crash on DFTL/SFTL
 * would be a silent no-op. Checked on the whole spec after every key
 * is applied, since "ftl" and "crash-at" may come in either order.
 * @return true when the spec is runnable; false with the problem
 *         (naming the FTL) in @a err.
 */
bool checkCrashSupport(const ExperimentSpec &spec, std::string &err);

/**
 * Lower the resolved @a section of @a file into @a spec (on top of
 * whatever @a spec already holds). Unknown keys are an error naming
 * the section and the nearest known key.
 */
bool loadExperiment(const ConfigFile &file, const std::string &section,
                    ExperimentSpec &spec, std::string &err);

/**
 * Parse @a path and lower its [experiment] section into @a spec.
 * The file must have an [experiment] section.
 */
bool loadExperimentFile(const std::string &path, ExperimentSpec &spec,
                        std::string &err);

/**
 * Bench front door: loadExperimentFile() or die with LEAFTL_FATAL
 * (config problems are the user's fault; benches have no error
 * plumbing).
 */
ExperimentSpec loadExperimentFileOrDie(const std::string &path);

/** A campaign: a named experiment grid with an output directory. */
struct CampaignSpec
{
    /**
     * Campaign name ([campaign] key "name"; defaults to the config
     * file's basename without extension). Names the BENCH_<name>.json
     * summary artifact.
     */
    std::string name;

    /**
     * Output directory ([campaign] key "dir"; default
     * "campaigns/<name>"). Holds one run-<fingerprint>.csv per grid
     * point plus the BENCH summary.
     */
    std::string dir;

    ExperimentSpec exp;
};

/**
 * Parse @a path as a campaign config: the [experiment] section (plus
 * any presets it references) defines the grid, the optional
 * [campaign] section names the campaign and its output directory.
 */
bool loadCampaignFile(const std::string &path, CampaignSpec &campaign,
                      std::string &err);

} // namespace config
} // namespace leaftl
