/**
 * @file
 * SFTL baseline: spatial-locality-aware FTL (Jiang et al., MSST'11,
 * [25] in the paper).
 *
 * SFTL caches translation pages rather than individual entries and
 * compresses each cached page by collapsing strictly sequential
 * mapping runs: a run of entries where both LPA index and PPA advance
 * by one costs a single descriptor. DRAM residency is charged at the
 * compressed size: 8 bytes per run (the same entry size DFTL uses)
 * plus a per-page bitmap marking run boundaries (one bit per entry,
 * 64 bytes for a 512-entry page -- S-FTL needs it to locate an
 * entry's run). A fully random page therefore degenerates to DFTL's
 * footprint while a fully sequential one costs one descriptor plus
 * the bitmap.
 *
 * The authoritative pages are one vector indexed by translation
 * virtual page number (tvpn); a page with no entries was never
 * written. Resident pages sit in an LRU (util/flat_lru.hh) whose
 * payload is the page's dirty bit.
 */

#pragma once

#include "ftl/ftl.hh"
#include "util/flat_lru.hh"

namespace leaftl
{

/** Spatial-locality compressed FTL. */
class Sftl : public Ftl
{
  public:
    Sftl(FtlOps &ops, uint32_t page_size, uint64_t budget_bytes);

    TranslateResult translate(Lpa lpa) override;
    TranslateResult peek(Lpa lpa) const override;
    void trim(Lpa lpa) override;
    void recordMappings(const std::vector<std::pair<Lpa, Ppa>> &run) override;
    void
    recordMappingsGc(const std::vector<std::pair<Lpa, Ppa>> &run) override;
    size_t residentMappingBytes() const override;
    size_t fullMappingBytes() const override;
    void setMappingBudget(uint64_t bytes) override;
    const char *name() const override { return "SFTL"; }

    uint64_t tpageHits() const { return hits_; }

    /** Bytes per compressed run descriptor. */
    static constexpr uint32_t kRunBytes = 8;

    /** Per-page run-boundary bitmap: one bit per entry. */
    uint32_t
    tpageHeaderBytes() const
    {
        return entries_per_tpage_ / 8;
    }

  private:
    struct TPage
    {
        std::vector<Ppa> entries; ///< kInvalidPpa = unmapped; empty = none.
        uint32_t runs = 0;        ///< Compressed descriptor count.
    };

    uint32_t tvpnOf(Lpa lpa) const { return lpa / entries_per_tpage_; }
    uint32_t slotOf(Lpa lpa) const { return lpa % entries_per_tpage_; }
    bool exists(uint32_t tvpn) const
    {
        return tvpn < tpages_.size() && !tpages_[tvpn].entries.empty();
    }

    /**
     * Create page @a tvpn if needed. Growing tpages_ invalidates
     * every TPage reference. @return whether the page existed.
     */
    bool getOrCreate(uint32_t tvpn);
    static uint32_t countRuns(const std::vector<Ppa> &entries);
    /**
     * Fetch a page into the cache (charging a read on a miss when
     * @a charge_read). @return whether it was already resident.
     */
    bool makeResident(uint32_t tvpn, bool charge_read);
    /** Map one slot, keeping runs, byte totals and dirtiness in sync. */
    void updateSlot(uint32_t tvpn, Lpa lpa, Ppa ppa, bool dirty);
    void evictToBudget();
    size_t compressedBytes(const TPage &tp) const
    {
        return static_cast<size_t>(tp.runs) * kRunBytes +
               tpageHeaderBytes();
    }

    uint32_t entries_per_tpage_;
    uint64_t budget_bytes_;

    std::vector<TPage> tpages_; ///< Authoritative, indexed by tvpn.
    FlatLru<bool> lru_;         ///< Resident tvpns -> dirty.
    size_t resident_bytes_ = 0;
    size_t full_bytes_ = 0; ///< Sum of compressed sizes over all tpages.

    uint64_t hits_ = 0;
};

} // namespace leaftl
