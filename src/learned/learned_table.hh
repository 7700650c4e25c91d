/**
 * @file
 * The learned address mapping table: the paper's primary contribution
 * (§3). Partitions the LPA space into 256-LPA groups, each with its
 * own log-structured segment stack and CRB (group.hh, crb.hh), and
 * exposes the learn / lookup / compact API used by the LeaFTL flash
 * translation layer, plus the statistics the evaluation figures need
 * (segment counts and types, creation lengths, level depths, CRB
 * sizes, mapping-memory bytes).
 *
 * Persistence: serialize() writes each group's segments level by
 * level, each approximate segment followed by its CRB run as a count
 * and the ascending offsets. The encoders are presized: each group's
 * wire size follows from counters it already keeps (segments,
 * approximate segments, stored CRB offsets), so serialize() and
 * serializeDirty() allocate the blob once and write it through one
 * cursor. There is one restore path: restore() (behind deserialize()
 * and recovery) and applyDelta() share one parser, which works in
 * place -- groups, CRBs and directory chunks keep their storage, and
 * each segment is appended to its level, since blobs list levels
 * top-down and each level sorted by S. The parser reads each run
 * straight into a GroupMask and checks it against a mask of the
 * offsets the group's earlier runs claimed, so a corrupt blob is a
 * typed BlobError, never an abort.
 *
 * Hot-path design:
 *   - learn() and compact() allocate nothing in steady state: a run
 *     is fitted into the table's FitArena (plr.hh), merged through its
 *     MergeScratch into groups that keep each stack in one flat array
 *     (group.hh), and the touched-group list is reused too. Only the
 *     first touch of a group, or a group outgrowing its high-water
 *     mark, allocates (test_alloc_free pins this);
 *   - groups live in a sparse chunked flat directory (GroupDirectory):
 *     a lookup indexes two arrays instead of hashing, and iteration
 *     walks live groups in ascending order, which makes serialize()
 *     canonical (byte-identical for any construction order);
 *   - segment / approximate / byte totals are maintained incrementally
 *     around every group mutation, so memoryBytes(), numSegments() and
 *     groupBytes() are O(1) reads on the learn path and in reporters;
 *   - a group lookup binary-searches only the levels whose `may` mask
 *     holds the offset (group.hh);
 *   - a one-entry last-hit cache (group pointer + the level-0 entry
 *     that served the previous lookup) short-circuits the level scan
 *     for sequential and hot-key reads. The entry shortcut is gated on
 *     a mutation epoch and only taken for level-0 hits, where it is
 *     exact: within a level ranges never overlap, so a revalidated
 *     cached entry is the same segment a full scan would find, at the
 *     same depth -- observable results and stats are unchanged.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "learned/group.hh"
#include "learned/group_directory.hh"
#include "util/common.hh"
#include "util/stats.hh"

namespace leaftl
{

class ByteReader;

/**
 * Typed outcome of parsing a serialized table/delta blob. Persisted
 * blobs live on flash, so readers must treat them as untrusted input:
 * every read is bounds-checked and structural invariants (ascending
 * group indices, sorted non-overlapping segments, CRB runs inside
 * their segment's range) are validated instead of asserted.
 */
enum class BlobError
{
    None = 0,
    /** The blob ends before a declared field/payload. */
    Truncated,
    /** A field decodes but violates a structural invariant. */
    Malformed,
};

/** Result of a table lookup. */
struct TableLookup
{
    Ppa ppa;
    bool approximate;
    uint32_t levels_visited;
};

/**
 * Creation-time and lookup-time statistics. The per-event series use
 * exact bounded histograms (a segment covers at most 256 mappings and
 * lookup depths clamp at 256), so statistics memory is O(1) no matter
 * how many lookups a run performs -- the store-everything SampleSet
 * here used to grow by 8 bytes per lookup forever.
 */
struct LearnedTableStats
{
    uint64_t segments_created = 0;
    uint64_t accurate_created = 0;
    uint64_t approximate_created = 0;
    /** Mappings per segment at creation (Fig. 5). */
    CountHistogram creation_lengths;
    uint64_t lookups = 0;
    uint64_t lookup_levels_total = 0;
    /** Levels visited per lookup (Fig. 23a). */
    CountHistogram lookup_levels;
    /** Lookups served by the one-entry last-hit cache. */
    uint64_t lookup_cache_hits = 0;
};

/** Learned LPA->PPA mapping table (one per SSD). */
class LearnedTable
{
  public:
    /**
     * @param gamma Error bound for approximate segments (paper default
     *              0; evaluated at 0/1/4/16).
     */
    explicit LearnedTable(uint32_t gamma);

    uint32_t gamma() const { return gamma_; }

    /**
     * Learn new mappings from an LPA-sorted run (a write-buffer flush
     * or a GC migration batch, §3.3/§3.6).
     *
     * @param run Strictly increasing LPAs with their new PPAs.
     * @return Indices of the groups the run touched, ascending (for
     *         the caller's residency/dirtiness bookkeeping, §3.8).
     *         The list is reused: valid until the next learn().
     */
    const std::vector<uint32_t> &
    learn(const std::vector<std::pair<Lpa, Ppa>> &run);

    /** Translate an LPA; nullopt when never learned. */
    std::optional<TableLookup> lookup(Lpa lpa) const;

    /** Compact every group (triggered periodically by the FTL, §3.7). */
    void compact();

    /** Total mapping memory: segments + CRBs (bytes, O(1)). */
    size_t memoryBytes() const { return total_bytes_; }

    /** Mapping memory of one group (0 when the group is unknown). */
    size_t
    groupBytes(uint32_t group_idx) const
    {
        const Group *g = groups_.find(group_idx);
        return g ? g->memoryBytes() : 0;
    }

    /** Visit every live group index, in ascending order. */
    template <typename Fn>
    void
    forEachGroup(Fn &&fn) const
    {
        groups_.forEach([&](uint32_t idx, const Group &) { fn(idx); });
    }

    size_t numSegments() const { return total_segments_; }
    size_t numApproximate() const { return total_approx_; }
    size_t numGroups() const { return groups_.size(); }

    /** Group @a group_idx, or nullptr when it was never learned. */
    const Group *
    group(uint32_t group_idx) const
    {
        return groups_.find(group_idx);
    }

    /** Per-group level counts (Fig. 12). */
    SampleSet levelsPerGroup() const;
    /** Per-group CRB sizes in bytes (Fig. 10). */
    SampleSet crbSizes() const;

    const LearnedTableStats &stats() const { return stats_; }

    /**
     * Serialize all segments and CRB runs to a flat blob (persisted to
     * translation blocks for crash recovery, §3.8). Groups are emitted
     * in ascending index order, so two tables with the same logical
     * content produce byte-identical blobs regardless of how (or in
     * which layout) they were built.
     */
    std::vector<uint8_t> serialize() const;

    /**
     * Serialize only the groups marked dirty since the last
     * clearDirty(), in the same per-group wire format as serialize().
     * The result is a delta record: applyDelta() replaces each
     * contained group wholesale on top of an older snapshot.
     */
    std::vector<uint8_t> serializeDirty() const;

    /** Forget dirty marks; call at the snapshot/delta commit point. */
    void clearDirty() { groups_.clearDirty(); }

    /** Rebuild from a serialize() blob (aborts on a corrupt blob). */
    static std::unique_ptr<LearnedTable>
    deserialize(const std::vector<uint8_t> &blob);

    /**
     * Bounds-checked rebuild from an untrusted serialize() blob: a new
     * table restore()d in place. Returns nullptr (and sets @a err when
     * non-null) instead of invoking UB on truncated or corrupt input.
     */
    static std::unique_ptr<LearnedTable>
    tryDeserialize(const std::vector<uint8_t> &blob,
                   BlobError *err = nullptr);

    /**
     * Replace the table's content with a serialize() blob, in place:
     * groups, CRBs and directory chunks keep their storage, groups the
     * blob does not hold are dropped, and gamma, statistics, epoch and
     * lookup cache start over as in a new table. Returns false (and
     * sets @a err) on a corrupt blob; the table then holds what parsed
     * and is fit only to be discarded or restored again.
     */
    bool restore(const std::vector<uint8_t> &blob, BlobError *err = nullptr);

    /**
     * Apply a serializeDirty() delta: every group present in the blob
     * replaces the table's version of that group wholesale. Returns
     * false (and sets @a err) on a corrupt blob; the groups before the
     * bad one are replaced, the bad one holds what parsed, and every
     * group stays lookup-safe.
     */
    bool applyDelta(const std::vector<uint8_t> &blob,
                    BlobError *err = nullptr);

    /** Validate invariants of every group and the totals (tests). */
    void checkInvariants() const;

  private:
    /**
     * The one restore routine behind restore() and applyDelta(): a
     * full blob (@a delta false) first resets the table to a new one,
     * keeping its storage; a delta must carry the table's gamma.
     */
    BlobError restoreBlob(const std::vector<uint8_t> &blob, bool delta);

    /**
     * The bounds-checked parser of a blob's group list; @a replace
     * clears each named group before restoring it (delta semantics).
     * On a full restore every group starts empty already.
     */
    BlobError restoreGroups(ByteReader &r, bool replace);

    /** Retire a group's contribution to the table totals. */
    void
    beginMutate(const Group &g)
    {
        total_segments_ -= g.numSegments();
        total_approx_ -= g.numApproximate();
        total_bytes_ -= g.memoryBytes();
    }

    /** Re-add a group's contribution after mutating it. */
    void
    endMutate(const Group &g)
    {
        total_segments_ += g.numSegments();
        total_approx_ += g.numApproximate();
        total_bytes_ += g.memoryBytes();
    }

    uint32_t gamma_;
    GroupDirectory groups_;
    /** Merge arena: reused across learns and compactions. */
    MergeScratch scratch_;
    /** Fit arena: every learn's fitted segments, reused. */
    FitArena fit_;
    /** The groups the last learn touched (learn()'s result). */
    std::vector<uint32_t> touched_;
    /** Bumped on every mutation; gates the lookup cache's entry. */
    uint64_t epoch_ = 1;

    /** One-entry last-hit translation cache. */
    struct LookupCache
    {
        uint32_t group_idx = kInvalidLpa; ///< Cached group number.
        const Group *group = nullptr;     ///< Never cached when null.
        const SegEntry *top = nullptr;    ///< Level-0 entry of last hit.
        uint64_t epoch = 0;               ///< Epoch top was captured at.
    };
    mutable LookupCache cache_;

    // Incremental totals (kept in sync by begin/endMutate).
    size_t total_segments_ = 0;
    size_t total_approx_ = 0;
    size_t total_bytes_ = 0;

    mutable LearnedTableStats stats_;
};

} // namespace leaftl
