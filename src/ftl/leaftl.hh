/**
 * @file
 * LeaFTL: the learned flash translation layer (§3).
 *
 * Adapter between the device and the LearnedTable: buffer-flush and
 * GC batches are learned as segments, lookups return (possibly
 * approximate) predictions that the device verifies against the OOB
 * reverse mappings, and periodic maintenance compacts the
 * log-structured levels. Mapping persistence for crash recovery
 * serializes the table into translation pages (§3.8).
 *
 * DRAM residency follows §3.8's demand-caching: the table lives in
 * translation blocks indexed by the GMD, and groups of segments are
 * cached in DRAM. A lookup in a non-resident group costs one
 * translation-page read; evicting a dirty group costs a write. The
 * learned table is small, so with realistic budgets everything stays
 * resident -- the machinery matters when DRAM is extremely scarce.
 */

#pragma once

#include <list>
#include <unordered_map>

#include "ftl/ftl.hh"
#include "learned/learned_table.hh"

namespace leaftl
{

/** Learned FTL. */
class LeaFtl : public Ftl
{
  public:
    LeaFtl(FtlOps &ops, uint32_t gamma, uint32_t page_size);

    TranslateResult translate(Lpa lpa) override;
    void setShardPool(ShardPool *pool) override;
    void trim(Lpa lpa) override;
    void recordMappings(const std::vector<std::pair<Lpa, Ppa>> &run) override;
    void
    recordMappingsGc(const std::vector<std::pair<Lpa, Ppa>> &run) override;
    void periodicMaintenance() override;
    size_t residentMappingBytes() const override;
    size_t fullMappingBytes() const override;
    void setMappingBudget(uint64_t bytes) override;
    const char *name() const override { return "LeaFTL"; }

    uint64_t groupFetches() const { return group_fetches_; }

    LearnedTable *learnedTable() override { return table_.get(); }
    const LearnedTable *learnedTable() const override
    {
        return table_.get();
    }

    /**
     * Persist the mapping table to translation pages (charged through
     * FtlOps). @return The serialized blob (the device keeps it as the
     * recovery snapshot).
     */
    std::vector<uint8_t> persist();

    /** Replace the table from a persisted snapshot (crash recovery). */
    void restore(const std::vector<uint8_t> &blob);

    /**
     * Replace the table from a full snapshot plus an ordered chain of
     * serializeDirty() delta records (incremental recovery, §3.8).
     * Aborts on a corrupt delta -- the chain lives in the device's
     * battery-backed snapshot area, not on scanned flash.
     */
    void restoreChain(const std::vector<uint8_t> &base,
                      const std::vector<std::vector<uint8_t>> &deltas);

    uint32_t gamma() const { return table_->gamma(); }

  private:
    /** Mark a group resident (fetch charge on miss) and dirty-able. */
    void touchGroup(uint32_t group_idx, bool dirty);
    void evictToBudget();
    /** Refresh the cached byte size of a (resident) group. */
    void refreshGroupBytes(uint32_t group_idx);

    std::unique_ptr<LearnedTable> table_;
    uint32_t page_size_;
    ShardPool *pool_ = nullptr; ///< Intra-run workers (not owned).

    // §3.8 demand caching of segment groups (GMD + translation blocks).
    struct Residency
    {
        size_t bytes = 0;
        bool dirty = false;
        std::list<uint32_t>::iterator lru_it;
    };
    uint64_t budget_bytes_ = UINT64_MAX;
    std::list<uint32_t> lru_; ///< Resident groups, MRU first.
    std::unordered_map<uint32_t, Residency> resident_;
    size_t resident_bytes_ = 0;
    uint64_t group_fetches_ = 0;
};

} // namespace leaftl
