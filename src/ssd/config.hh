/**
 * @file
 * Top-level SSD configuration: geometry, latencies, DRAM budget and
 * its split policy, FTL selection, and the LeaFTL knobs (gamma,
 * compaction interval). Defaults follow Table 1 of the paper scaled
 * down to simulation-friendly sizes; every bench sets its own values.
 */

#pragma once

#include <cstdint>
#include <string>

#include "flash/geometry.hh"
#include "flash/timing.hh"
#include "util/common.hh"

namespace leaftl
{

/** Which flash translation layer to instantiate. */
enum class FtlKind
{
    DFTL,   ///< Demand-cached page-level mapping [20].
    SFTL,   ///< Spatial-locality compressed mapping [25].
    LeaFTL, ///< Learned mapping (this paper).
};

const char *ftlKindName(FtlKind kind);

/**
 * How the DRAM budget is split between the mapping structures and the
 * data cache (the two settings of Fig. 16).
 */
enum class DramPolicy
{
    /** Mapping takes what it needs (up to 98%); cache gets the rest. */
    MappingFirst,
    /** Mapping is capped at 80%; the cache keeps at least 20%. */
    CacheFloor20,
};

/** Full device configuration. */
struct SsdConfig
{
    /** Overprovisioned fraction of raw capacity (paper: 20%). */
    static constexpr double kOverprovisioning = 0.20;

    /** GC starts when free blocks drop below this fraction. */
    static constexpr double kGcFreeThreshold = 0.15;

    Geometry geometry;
    LatencyConfig latency;

    FtlKind ftl = FtlKind::LeaFTL;

    /** In-device DRAM (mapping + data cache), bytes. */
    uint64_t dram_bytes = 64ull << 20;
    DramPolicy dram_policy = DramPolicy::MappingFirst;

    /** Write (data) buffer, bytes (paper default 8 MB). */
    uint64_t write_buffer_bytes = 8ull << 20;

    /** Error bound for learned segments (paper default 0). */
    uint32_t gamma = 0;

    /** LeaFTL segment compaction interval, in host writes (§3.7). */
    uint64_t compaction_interval = 1'000'000;

    /**
     * Sort buffer flushes by LPA (§3.3, Fig. 7). Disabling is an
     * ablation: unsorted flushes break PPA monotonicity and inflate
     * the learned table.
     */
    bool sort_flush = true;

    /**
     * Learn-journal size that triggers an automatic incremental
     * snapshot, in bytes. 0 = no journal: snapshots happen only on
     * explicit persistMapping() calls (and after each recovery), and
     * recovery scans every block written since the last one.
     */
    uint64_t journal_threshold_bytes = 0;

    /** Host-visible capacity in pages (raw minus overprovisioning). */
    uint64_t hostPages() const;

    /** Host-visible capacity in bytes. */
    uint64_t hostBytes() const { return hostPages() * geometry.page_size; }

    /** Abort on inconsistent settings. */
    void validate() const;
};

} // namespace leaftl
