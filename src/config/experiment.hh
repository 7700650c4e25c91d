/**
 * @file
 * The typed experiment description every front end lowers into.
 *
 * An ExperimentSpec is the full cross product leaftl_sim sweeps —
 * device geometry/preset, workload specs, arrival shaping, the sweep
 * grid (ftl x workload x gamma x qd x device x mode x rate), and the
 * scalar run options. Command-line flags (`--<key>`) and the
 * `key = value` lines of a config file apply the same named keys
 * through the same experimentKeys() rows, in the order given, so a
 * value that validates in one front end validates identically in the
 * other and an equivalent config file reproduces a flag invocation's
 * rows exactly.
 *
 * Each key is one row of the experimentKeys() table: its name, usage
 * text and how it parses and range-checks a value. The flag parser,
 * the usage text, the config loader and the "did you mean"
 * suggestions all read that table, so adding a key takes one
 * ExperimentSpec field plus one table row in experiment.cc -- plus a
 * canonicalRunConfig() rule (config/fingerprint.cc) when the key can
 * change a run's results.
 *
 * Unknown keys are rejected (never ignored) with the nearest known
 * key suggested.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ssd/config.hh"
#include "workload/arrival.hh"

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
     * Workload specs (key "workload"): synthetic:<pattern>, msr:<name>
     * (or a bare MSR/FIU model name), app:<name>, trace:<MSR-Cambridge
     * CSV path> or fiu:<FIU/SPC trace path>; cli::knownWorkloads()
     * lists them.
     */
    std::vector<std::string> workloads = {"synthetic:zipf"};

    /** Gamma sweep (key "gamma"; LeaFTL error bound, others ignore). */
    std::vector<uint32_t> gammas = {0};

    /** Queue-depth sweep (key "qd"; outstanding host requests). */
    std::vector<uint32_t> queue_depths = {1};

    /**
     * Replay-mode sweep (key "mode"): ReplayMode names. The default
     * admits closed-loop; the others replay open-loop (end-to-end
     * latency from the arrival tick) behind their arrival shapers.
     */
    std::vector<std::string> modes = {"closed"};

    /**
     * Offered-load sweep in requests/s (key "rate") for the rate-driven
     * modes; other rows ignore it (and are deduplicated across rates,
     * like gamma for non-learned FTLs).
     */
    std::vector<double> rates = {0.0};

    /** Burst-shaper duty cycle (key "burst-duty"; on-fraction). */
    double burst_duty = 0.25;

    /** Fail fast on malformed trace lines (key "trace-strict"). */
    bool trace_strict = false;

    /**
     * Device sweep (key "device"): "auto" (geometry derived from the
     * working set, the historical behavior) or a flash/presets.hh
     * preset. LPAs wrap modulo the device's host capacity, so one
     * workload compares devices fairly.
     */
    std::vector<std::string> devices = {"auto"};

    /** Sweep workers (key "jobs", 1..1024); unset = hardware concurrency. */
    unsigned jobs = 0;

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
     * Key "journal-threshold": learn-journal bytes that trigger an
     * automatic incremental snapshot; 0 = no journal.
     */
    uint64_t journal_threshold_bytes = 0;
    /**
     * Key "crash-at": request indices where the replay injects a
     * crash + recovery (comma list; stored sorted ascending).
     */
    std::vector<uint64_t> crash_points;

    bool operator==(const ExperimentSpec &) const = default;
};

/** Map "leaftl"/"dftl"/"sftl" to the FtlKind. @return false if unknown. */
bool parseFtlName(const std::string &name, FtlKind &kind);

/** One replay mode (a "mode" key token). */
struct ReplayMode
{
    const char *name;
    /** Arrival shaper of an open-loop mode; empty = closed-loop admission. */
    std::optional<ShaperKind> shaper;
    /** Whether the mode consumes the rate axis. */
    bool uses_rate;
};

/** The replay mode named @a name, or nullptr if there is none. */
const ReplayMode *findMode(const std::string &name);

/** Known "mode" tokens, in presentation order. */
std::vector<std::string> knownModes();

/** Whether @a mode is known and consumes the rate axis. */
bool modeUsesRate(const std::string &mode);

/**
 * One experiment key: the name a flag (`--<name>`) and a config line
 * both use, its usage text, and how it applies a value.
 */
struct ExperimentKey
{
    const char *name;
    /** Value placeholder in the usage text ("LIST", "N", ...). */
    const char *value;
    /** Usage text, one paragraph (the CLI wraps it). */
    std::string help;
    /** Parse, check and store @a value; errors name @a key, the row's. */
    std::function<bool(ExperimentSpec &spec, const std::string &key,
                       const std::string &value, std::string &err)>
        apply;
    /** Value of a bare `--<name>` flag; nullptr = the flag needs one. */
    const char *bare = nullptr;
};

/** Every experiment key, in presentation order. */
const std::vector<ExperimentKey> &experimentKeys();

/** The key named @a key ('_' and '-' are interchangeable), or nullptr. */
const ExperimentKey *findExperimentKey(const std::string &key);

/** Every key applyExperimentKey() accepts, in presentation order. */
std::vector<std::string> knownExperimentKeys();

/**
 * The known experiment key closest to @a key by edit distance (for
 * "did you mean" suggestions; '_' and '-' count as equal).
 */
std::string nearestExperimentKey(const std::string &key);

/**
 * Apply one named key to @a spec through its experimentKeys() row,
 * the same one the `--<key>` flag applies ('_' and '-' are
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
 * Apply the config file at @a path to @a spec (on top of whatever
 * @a spec already holds). The file is the sweep's flags written down:
 * `#` comments, blank lines, and `key = value` lines, each applied in
 * file order through applyExperimentKey(), as `--key value` is.
 * @return true on success; false with the problem in @a err. A line
 *         without '=', a `[section]` line, a bad key name, a key set
 *         twice ('_' and '-' folded), an unknown key and a bad value
 *         are each prefixed "path:line: ".
 */
bool loadExperimentFile(const std::string &path, ExperimentSpec &spec,
                        std::string &err);

/**
 * Bench front door: loadExperimentFile() or die with LEAFTL_FATAL
 * (config problems are the user's fault; benches have no error
 * plumbing).
 */
ExperimentSpec loadExperimentFileOrDie(const std::string &path);

} // namespace config
} // namespace leaftl
