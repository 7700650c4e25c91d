/**
 * @file
 * Greedy error-bounded piecewise linear regression (§3.1–§3.3).
 *
 * LeaFTL learns the LPA→PPA mapping of each flushed flash block from
 * the (LPA-sorted) pages in the SSD write buffer. The fitter consumes
 * one group's worth of sorted (offset, PPA) points and emits learned
 * segments whose *encoded* (fp16-slope, integer-intercept) predictions
 * are verified to respect the configured error bound gamma:
 *
 *   - gamma = 0 produces only accurate segments (constant-stride runs,
 *     since flushed PPAs are consecutive);
 *   - gamma > 0 additionally produces approximate segments whose
 *     predictions are within [-gamma, +gamma] pages of the truth.
 *
 * The algorithm is the feasible-slope-cone greedy of Xie et al. [64]:
 * the segment is anchored at its first point and the admissible slope
 * interval is narrowed per point; when it empties, the segment is
 * closed and a new one starts. After fitting, every candidate segment
 * is re-verified against its quantized encoding and split if the bound
 * is violated (rare; guarantees correctness by construction).
 *
 * Cost rule (gamma > 0): an approximate segment costs 8 bytes plus one
 * CRB byte per member and a separator, an accurate one 8 bytes. Each
 * approximate segment is refit at gamma = 0 over its own points; when
 * the exact segments cost no more, they replace it. The refit stops as
 * soon as it has more than (8 + n + 1) / 8 segments: its count only
 * grows, so the outcome is already decided.
 *
 * Hot path: fitRun() writes every segment of a flush or GC batch into
 * a FitArena owned by the caller (the learned table keeps one), and
 * the gamma = 0 refit appends to the same array and is truncated away
 * when it loses. Members are a GroupMask, so a fit allocates nothing
 * once the arena has grown to the largest batch.
 */

#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "learned/group_mask.hh"
#include "learned/segment.hh"
#include "util/common.hh"

namespace leaftl
{

/** One point to learn: offset within the group and its PPA. */
struct PlrPoint
{
    uint8_t off;
    Ppa ppa;
};

/** A fitted segment plus the exact offsets it was learned from. */
struct FittedSegment
{
    Segment seg;
    /** Offsets covered (exact members; feed the CRB when approximate). */
    GroupMask offs;
    /** Number of offsets in offs. */
    uint32_t count = 0;
};

/**
 * Reusable output of fitRun(): the segments of one run, group by
 * group. fitRun() clears it and never shrinks it.
 */
struct FitArena
{
    /** One group's fit: segs[first, last). */
    struct GroupFit
    {
        uint32_t group;
        uint32_t first;
        uint32_t last;
    };

    /** The touched groups, in ascending index order. */
    std::vector<GroupFit> groups;
    /** Every group's segments, in group order. */
    std::vector<FittedSegment> segs;
    /** One group's input points (scratch). */
    std::vector<PlrPoint> points;

    /** The segments fitted for @a g. */
    std::span<const FittedSegment>
    segments(const GroupFit &g) const
    {
        return {segs.data() + g.first, segs.data() + g.last};
    }
};

/**
 * Fit learned segments over one group's sorted points (by value, for
 * tests and benches; fitRun() runs the same fitter in place).
 *
 * @param points Strictly increasing offsets; PPAs need not be
 *               monotonic, though flush batches make them so.
 * @param gamma Error bound (pages); 0 means exact.
 * @return Segments in increasing offset order, jointly covering all
 *         input points exactly once.
 */
std::vector<FittedSegment>
fitGroupSegments(const std::vector<PlrPoint> &points, uint32_t gamma);

/**
 * Split a sorted (LPA, PPA) run at group boundaries and fit each
 * group into @a arena (its previous contents are discarded).
 *
 * @param run Sorted by LPA, strictly increasing.
 * @param gamma Error bound.
 */
void fitRun(const std::vector<std::pair<Lpa, Ppa>> &run, uint32_t gamma,
            FitArena &arena);

/**
 * Motivation-study helper (Fig. 5): run the greedy cone over a sorted
 * (LPA, PPA) run *without* group splitting or encoding, and report the
 * number of mappings each ideal segment would cover. This mirrors the
 * paper's pre-grouping study where segment lengths reach 2048.
 */
std::vector<uint32_t>
plrRunLengths(const std::vector<std::pair<Lpa, Ppa>> &run, uint32_t gamma);

} // namespace leaftl
