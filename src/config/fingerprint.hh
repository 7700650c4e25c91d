/**
 * @file
 * Canonical run fingerprints for the campaign runner.
 *
 * One grid point of an ExperimentSpec (a single simulation) is
 * rendered to a canonical "key=value\n" description: keys sorted,
 * doubles printed round-trip exactly, and result-irrelevant keys
 * dropped — gamma for FTLs that ignore it, rate for modes that do
 * not shape arrivals, burst-duty outside burst mode, and host-side
 * knobs (jobs, output paths) always. Hashing that description gives
 * a fingerprint that is stable across config-file key order, flag
 * spelling, and axis-list ordering — the
 * contract that lets a campaign resume by checking which
 * run-<fingerprint>.csv files already exist.
 */

#pragma once

#include <cstdint>
#include <string>

#include "config/experiment.hh"

namespace leaftl
{
namespace config
{

/** One grid point of an ExperimentSpec's sweep. */
struct RunPoint
{
    FtlKind ftl = FtlKind::LeaFTL;
    std::string workload;
    uint32_t gamma = 0;
    uint32_t qd = 1;
    std::string device = "auto";
    std::string mode = "closed";
    double rate = 0.0;
};

/**
 * The canonical description of running @a point under @a spec's
 * scalar options: sorted "key=value\n" lines (see file comment for
 * what is included).
 */
std::string canonicalRunConfig(const ExperimentSpec &spec,
                               const RunPoint &point);

/** 16-hex-digit fingerprint of canonicalRunConfig() (fnv1a64). */
std::string runFingerprint(const ExperimentSpec &spec,
                           const RunPoint &point);

} // namespace config
} // namespace leaftl
