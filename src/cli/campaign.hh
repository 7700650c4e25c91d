/**
 * @file
 * Fingerprinted campaign runner: a sweep that writes a run directory.
 * `leaftl_sim [--config FILE] [flags] --campaign-dir DIR` builds its
 * ExperimentSpec exactly as a sweep does, expands the grid into unique
 * runs (cli::expandGrid, one per canonical-config fingerprint), and
 * runs the ones whose DIR/run-<fingerprint>.csv is not already on
 * disk. The run CSVs are the campaign's whole output: each holds the
 * sweep's header and the row of its run, so --campaign-diff compares
 * two directories by reading them.
 *
 * Resume contract: a run is "done" iff <dir>/run-<fingerprint>.csv
 * exists with the current CSV header and a data row. CSVs are
 * written to a temp file and renamed, so an interrupted campaign
 * never leaves a half-written file that counts as done; rerunning
 * the same grid (or any config that canonicalizes to the same runs --
 * key order and flag spelling do not matter)
 * executes only what is missing.
 */

#pragma once

#include <ostream>
#include <string>

#include "config/experiment.hh"

namespace leaftl
{
namespace cli
{

/**
 * Run the grid of @a spec into directory @a dir: execute the missing
 * fingerprints on spec.jobs worker threads, each writing
 * <dir>/run-<fingerprint>.csv. @a log gets the human progress lines.
 * @return process exit code (0 = every run is on disk, 1 = a run or
 *         the directory failed, 2 = the spec is not runnable, e.g.
 *         crash-at on DFTL/SFTL).
 */
int runCampaign(const config::ExperimentSpec &spec, const std::string &dir,
                std::ostream &log);

/**
 * Compare the run directories @a dir_a and @a dir_b by fingerprint
 * (the <fp> of each run-<fp>.csv) and print per-run throughput /
 * p99-read-latency / wall-clock deltas (B relative to A), plus the
 * runs only one side has. Each file's own header locates its columns
 * by name, so a directory written before a column was added still
 * reads. The simulated metrics are deterministic, so a nonzero delta
 * on a shared fingerprint means the simulator's behavior changed
 * between the two campaigns -- exactly what a simulated-metric CI
 * gate wants to catch.
 *
 * @param threshold_pct When > 0, exit code 1 if any shared run's
 *        throughput drops, or its p99 read latency rises, by more
 *        than this percentage. <= 0 reports only.
 * @return 0 = within threshold (or report-only), 1 = regression,
 *         2 = unreadable input (no such directory, no run CSVs, a
 *         run CSV without a data row or a needed column).
 */
int campaignDiff(const std::string &dir_a, const std::string &dir_b,
                 double threshold_pct, std::ostream &out);

} // namespace cli
} // namespace leaftl
