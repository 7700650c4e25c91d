#include "ftl/leaftl.hh"

#include "ftl/dftl.hh"
#include "ftl/sftl.hh"
#include "ssd/config.hh"

namespace leaftl
{

LeaFtl::LeaFtl(FtlOps &ops, uint32_t gamma, uint32_t page_size)
    : Ftl(ops),
      table_(std::make_unique<LearnedTable>(gamma)),
      page_size_(page_size)
{
}

void
LeaFtl::refreshGroupBytes(uint32_t group_idx)
{
    auto it = resident_.find(group_idx);
    if (it == resident_.end())
        return;
    const size_t now_bytes = table_->groupBytes(group_idx);
    resident_bytes_ += now_bytes;
    resident_bytes_ -= it->second.bytes;
    it->second.bytes = now_bytes;
}

void
LeaFtl::touchGroup(uint32_t group_idx, bool dirty)
{
    auto it = resident_.find(group_idx);
    if (it != resident_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        it->second.dirty = it->second.dirty || dirty;
        refreshGroupBytes(group_idx);
        evictToBudget();
        return;
    }
    // Group miss: fetch its segments from the translation blocks via
    // the GMD (one flash read, §3.8). Freshly learned groups are born
    // in DRAM (dirty) without a fetch.
    if (!dirty) {
        ops_.chargeTransRead();
        group_fetches_++;
    }
    lru_.push_front(group_idx);
    Residency r;
    r.bytes = table_->groupBytes(group_idx);
    r.dirty = dirty;
    r.lru_it = lru_.begin();
    resident_bytes_ += r.bytes;
    resident_[group_idx] = r;
    evictToBudget();
}

void
LeaFtl::evictToBudget()
{
    while (resident_bytes_ > budget_bytes_ && lru_.size() > 1) {
        const uint32_t victim = lru_.back();
        auto it = resident_.find(victim);
        LEAFTL_ASSERT(it != resident_.end(), "LeaFTL LRU out of sync");
        if (it->second.dirty)
            ops_.chargeTransWrite();
        resident_bytes_ -= it->second.bytes;
        resident_.erase(it);
        lru_.pop_back();
    }
}

TranslateResult
LeaFtl::translate(Lpa lpa)
{
    auto res = table_->lookup(lpa);
    if (!res)
        return {};
    touchGroup(groupOf(lpa), /*dirty=*/false);
    if (res->ppa == kTombstonePpa && !res->approximate)
        return {}; // Trimmed.
    return {true, res->ppa, res->approximate};
}

void
LeaFtl::setShardPool(ShardPool *pool)
{
    pool_ = pool;
    table_->setShardPool(pool);
}

void
LeaFtl::trim(Lpa lpa)
{
    if (!table_->lookup(lpa))
        return; // Never mapped.
    // A tombstone is a single-point segment whose intercept is the
    // reserved kTombstonePpa; it shadows older mappings exactly like
    // any newer segment and costs the same 8 bytes a page-level entry
    // would.
    for (uint32_t group_idx : table_->learn({{lpa, kTombstonePpa}}))
        touchGroup(group_idx, /*dirty=*/true);
}

void
LeaFtl::recordMappings(const std::vector<std::pair<Lpa, Ppa>> &run)
{
    for (uint32_t group_idx : table_->learn(run))
        touchGroup(group_idx, /*dirty=*/true);
}

void
LeaFtl::recordMappingsGc(const std::vector<std::pair<Lpa, Ppa>> &run)
{
    // GC relearns in DRAM; no extra translation-page traffic beyond
    // the dirtied groups' eventual write-back (§3.6).
    for (uint32_t group_idx : table_->learn(run))
        touchGroup(group_idx, /*dirty=*/true);
}

void
LeaFtl::periodicMaintenance()
{
    table_->compact();
    // Compaction changes group sizes; refresh the resident accounting.
    for (auto &[idx, r] : resident_)
        refreshGroupBytes(idx);
    evictToBudget();
}

size_t
LeaFtl::residentMappingBytes() const
{
    return resident_bytes_;
}

size_t
LeaFtl::fullMappingBytes() const
{
    return table_->memoryBytes();
}

void
LeaFtl::setMappingBudget(uint64_t bytes)
{
    budget_bytes_ = bytes;
    evictToBudget();
}

std::vector<uint8_t>
LeaFtl::persist()
{
    std::vector<uint8_t> blob = table_->serialize();
    const uint64_t pages = ceilDiv(blob.size(), page_size_);
    for (uint64_t i = 0; i < pages; i++)
        ops_.chargeTransWrite();
    return blob;
}

void
LeaFtl::restore(const std::vector<uint8_t> &blob)
{
    restoreChain(blob, {});
}

void
LeaFtl::restoreChain(const std::vector<uint8_t> &base,
                     const std::vector<std::vector<uint8_t>> &deltas)
{
    auto table = LearnedTable::deserialize(base);
    for (const auto &delta : deltas) {
        const bool ok = table->applyDelta(delta);
        LEAFTL_ASSERT(ok, "corrupt snapshot delta");
    }
    table->setShardPool(pool_); // The new table inherits the workers.
    table_ = std::move(table);
    // DRAM residency is gone after a crash; groups reload on demand.
    lru_.clear();
    resident_.clear();
    resident_bytes_ = 0;
}

std::unique_ptr<Ftl>
makeFtl(const SsdConfig &cfg, FtlOps &ops)
{
    switch (cfg.ftl) {
      case FtlKind::DFTL:
        return std::make_unique<Dftl>(ops, cfg.geometry.page_size,
                                      cfg.dram_bytes);
      case FtlKind::SFTL:
        return std::make_unique<Sftl>(ops, cfg.geometry.page_size,
                                      cfg.dram_bytes);
      case FtlKind::LeaFTL:
        return std::make_unique<LeaFtl>(ops, cfg.gamma,
                                        cfg.geometry.page_size);
    }
    LEAFTL_PANIC("unknown FTL kind");
}

} // namespace leaftl
