/**
 * @file
 * DFTL baseline: demand-based page-level mapping (Gupta et al.,
 * ASPLOS'09, [20] in the paper).
 *
 * The full page-level table lives in translation pages on flash,
 * modeled as one entry vector per translation virtual page number
 * (tvpn); an empty vector is a page that was never written. A Cached
 * Mapping Table (CMT) holds recently used 8-byte entries under an
 * LRU policy (util/flat_lru.hh):
 *
 *   - CMT miss: one translation-page read;
 *   - evicting a dirty entry: read-modify-write of its translation
 *     page (one read + one write), opportunistically flushing every
 *     dirty CMT entry of that page (DFTL's batching optimization);
 *   - GC updates translation pages directly (RMW per affected page).
 *
 * A CMT entry is just its PPA. Whether it is dirty lives in one place,
 * a dirty-slot bitmap per translation page (one bit per slot, grown
 * lazily like the pages): a set bit means the slot's CMT entry holds a
 * mapping or trim tombstone its translation page lacks. Write-back
 * walks only the set bits of its page and clears them, so every
 * evicted entry is clean and a bit never outlives its entry.
 */

#pragma once

#include "ftl/ftl.hh"
#include "util/bitmap.hh"
#include "util/flat_lru.hh"

namespace leaftl
{

/** Demand-cached page-level FTL. */
class Dftl : public Ftl
{
  public:
    /**
     * @param ops Device charge hooks.
     * @param page_size Flash page size (a translation page holds
     *                  page_size / 8 entries).
     * @param budget_bytes Initial CMT budget.
     */
    Dftl(FtlOps &ops, uint32_t page_size, uint64_t budget_bytes);

    TranslateResult translate(Lpa lpa) override;
    TranslateResult peek(Lpa lpa) const override;
    void trim(Lpa lpa) override;
    void recordMappings(const std::vector<std::pair<Lpa, Ppa>> &run) override;
    void
    recordMappingsGc(const std::vector<std::pair<Lpa, Ppa>> &run) override;
    size_t residentMappingBytes() const override;
    size_t fullMappingBytes() const override;
    void setMappingBudget(uint64_t bytes) override;
    const char *name() const override { return "DFTL"; }

    uint64_t cmtHits() const { return cmt_hits_; }
    uint64_t cmtMisses() const { return cmt_misses_; }

  private:
    /** Translation-page slot never written (kInvalidPpa = trimmed). */
    static constexpr Ppa kNeverWritten = kInvalidPpa - 1;

    uint32_t tvpnOf(Lpa lpa) const { return lpa / entries_per_tpage_; }
    uint32_t slotOf(Lpa lpa) const { return lpa % entries_per_tpage_; }
    bool materialized(uint32_t tvpn) const
    {
        return tvpn < tpages_.size() && !tpages_[tvpn].empty();
    }

    bool
    isDirty(Lpa lpa) const
    {
        const uint32_t tvpn = tvpnOf(lpa);
        return tvpn < dirty_.size() && dirty_[tvpn].size() != 0 &&
               dirty_[tvpn].test(slotOf(lpa));
    }
    void markDirty(Lpa lpa);

    /** Insert/update a CMT entry, evicting to budget. */
    void upsertCmt(Lpa lpa, Ppa ppa, bool dirty);
    void evictToBudget();
    /**
     * Charge a read-modify-write of translation page @a tvpn (no read
     * for a page not yet on flash) and materialize it.
     */
    std::vector<Ppa> &rmwTpage(uint32_t tvpn);
    /** Write back every dirty CMT entry of @a tvpn (one RMW). */
    void writebackTpage(uint32_t tvpn);

    uint32_t entries_per_tpage_;
    uint64_t budget_bytes_;

    /** CMT: LPA -> PPA (kInvalidPpa = trimmed). */
    FlatLru<Ppa> cmt_;
    /** Dirty CMT slots, one bitmap per tvpn (empty until first dirty). */
    std::vector<Bitmap> dirty_;

    /** Authoritative on-flash translation pages, indexed by tvpn. */
    std::vector<std::vector<Ppa>> tpages_;
    /** Distinct LPAs mapped on flash or in the CMT (trims included). */
    size_t mapped_ = 0;

    uint64_t cmt_hits_ = 0;
    uint64_t cmt_misses_ = 0;
};

} // namespace leaftl
