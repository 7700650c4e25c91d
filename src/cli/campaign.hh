/**
 * @file
 * Fingerprinted campaign runner: expand a campaign config's sweep
 * grid into unique runs (cli::expandGrid, one per canonical-config
 * fingerprint), run the ones whose run-<fingerprint>.csv is not
 * already on disk, and write a BENCH_<campaign>.json summary. The
 * summary tracks the deterministic simulated metrics; host speed is
 * measured by perfbench.
 *
 * Resume contract: a run is "done" iff <dir>/run-<fingerprint>.csv
 * exists with the current CSV header and a data row. CSVs are
 * written to a temp file and renamed, so an interrupted campaign
 * never leaves a half-written file that counts as done; rerunning
 * the same campaign (or any config that canonicalizes to the same
 * runs — key order, inherit layout, and flag spelling do not matter)
 * executes only what is missing and rewrites the summary.
 */

#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "config/experiment.hh"
#include "config/fingerprint.hh"

namespace leaftl
{
namespace cli
{

/**
 * Run @a campaign: execute the missing fingerprints on
 * campaign.exp.jobs worker threads, then write
 * <dir>/BENCH_<name>.json. @a log gets the human progress/summary
 * lines.
 * @return process exit code (0 = every run present and summarized,
 *         2 = the spec is not runnable, e.g. crash-at on DFTL/SFTL).
 */
int runCampaign(const config::CampaignSpec &campaign, std::ostream &log);

/**
 * Compare two BENCH_<name>.json summaries by run fingerprint and
 * print per-run throughput / p99-read-latency / wall-clock deltas
 * (B relative to A), plus the runs only one side has. The simulated
 * metrics are deterministic, so a nonzero delta on a shared
 * fingerprint means the simulator's behavior changed between the two
 * campaigns -- exactly what a simulated-metric CI gate wants to catch.
 *
 * @param threshold_pct When > 0, exit code 1 if any shared run's
 *        throughput drops, or its p99 read latency rises, by more
 *        than this percentage. <= 0 reports only.
 * @return 0 = within threshold (or report-only), 1 = regression,
 *         2 = unreadable/unparseable input.
 */
int campaignDiff(const std::string &path_a, const std::string &path_b,
                 double threshold_pct, std::ostream &out);

} // namespace cli
} // namespace leaftl
