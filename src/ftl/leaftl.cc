#include "ftl/leaftl.hh"

namespace leaftl
{

LeaFtl::LeaFtl(FtlOps &ops, uint32_t gamma)
    : Ftl(ops), table_(gamma)
{
}

void
LeaFtl::refreshGroupBytes(uint32_t group_idx, Residency &r)
{
    const size_t now_bytes = table_.groupBytes(group_idx);
    resident_bytes_ += now_bytes;
    resident_bytes_ -= r.bytes;
    r.bytes = now_bytes;
}

void
LeaFtl::touchGroup(uint32_t group_idx, bool dirty)
{
    auto [r, fresh] = resident_.insert(group_idx);
    // A resident group's cached size is current: every table mutation
    // re-touches its groups dirty (learn, trim), compaction refreshes
    // them all, and restoreChain drops residency. A clean touch of a
    // resident group is then only the LRU promotion insert just did.
    if (!fresh && !dirty)
        return;
    // Group miss: fetch its segments from the translation blocks via
    // the GMD (one flash read, §3.8). Freshly learned groups are born
    // in DRAM (dirty) without a fetch.
    if (fresh && !dirty) {
        ops_.chargeTransRead();
        group_fetches_++;
    }
    r.dirty = r.dirty || dirty;
    refreshGroupBytes(group_idx, r);
    evictToBudget();
}

void
LeaFtl::evictToBudget()
{
    while (resident_bytes_ > budget_bytes_ && resident_.size() > 1) {
        const Residency &victim = resident_.lruValue();
        if (victim.dirty)
            ops_.chargeTransWrite();
        resident_bytes_ -= victim.bytes;
        resident_.popLru();
    }
}

TranslateResult
LeaFtl::translate(Lpa lpa)
{
    auto res = table_.lookup(lpa);
    if (!res)
        return {};
    touchGroup(groupOf(lpa), /*dirty=*/false);
    if (res->ppa == kTombstonePpa && !res->approximate)
        return {}; // Trimmed.
    return {true, res->ppa, res->approximate};
}

TranslateResult
LeaFtl::peek(Lpa lpa) const
{
    const Group *group = table_.group(groupOf(lpa));
    if (!group)
        return {}; // Never mapped.
    const auto res = group->lookup(static_cast<uint8_t>(groupOffset(lpa)));
    if (!res || (res->ppa == kTombstonePpa && !res->approximate))
        return {}; // Never mapped, or trimmed.
    return {true, res->ppa, res->approximate};
}

void
LeaFtl::trim(Lpa lpa)
{
    if (!table_.lookup(lpa))
        return; // Never mapped.
    // A tombstone is a single-point segment whose intercept is the
    // reserved kTombstonePpa; it shadows older mappings exactly like
    // any newer segment and costs the same 8 bytes a page-level entry
    // would.
    for (uint32_t group_idx : table_.learn({{lpa, kTombstonePpa}}))
        touchGroup(group_idx, /*dirty=*/true);
}

void
LeaFtl::recordMappings(const std::vector<std::pair<Lpa, Ppa>> &run)
{
    for (uint32_t group_idx : table_.learn(run))
        touchGroup(group_idx, /*dirty=*/true);
}

void
LeaFtl::periodicMaintenance()
{
    table_.compact();
    // Compaction changes group sizes; refresh the resident accounting.
    resident_.forEach([this](uint32_t idx, Residency &r) {
        refreshGroupBytes(idx, r);
    });
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
    return table_.memoryBytes();
}

void
LeaFtl::setMappingBudget(uint64_t bytes)
{
    budget_bytes_ = bytes;
    evictToBudget();
}

void
LeaFtl::restoreChain(const std::vector<uint8_t> &base,
                     const std::vector<std::vector<uint8_t>> &deltas)
{
    // In place: the restore reuses the live table's storage.
    const bool ok = table_.restore(base);
    LEAFTL_ASSERT(ok, "corrupt mapping snapshot");
    for (const auto &delta : deltas) {
        const bool delta_ok = table_.applyDelta(delta);
        LEAFTL_ASSERT(delta_ok, "corrupt snapshot delta");
    }
    // DRAM residency is gone after a crash; groups reload on demand.
    resident_.clear();
    resident_bytes_ = 0;
}

} // namespace leaftl
