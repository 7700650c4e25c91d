#include "ftl/sftl.hh"

namespace leaftl
{

Sftl::Sftl(FtlOps &ops, uint32_t page_size, uint64_t budget_bytes)
    : Ftl(ops),
      entries_per_tpage_(page_size / kMapEntryBytes),
      budget_bytes_(budget_bytes)
{
    LEAFTL_ASSERT(entries_per_tpage_ > 0, "SFTL: page too small");
}

uint32_t
Sftl::countRuns(const std::vector<Ppa> &entries)
{
    uint32_t runs = 0;
    for (size_t i = 0; i < entries.size(); i++) {
        if (entries[i] == kInvalidPpa)
            continue;
        if (i == 0 || entries[i - 1] == kInvalidPpa ||
            entries[i] != entries[i - 1] + 1) {
            runs++;
        }
    }
    return runs;
}

bool
Sftl::getOrCreate(uint32_t tvpn)
{
    if (exists(tvpn))
        return true;
    if (tvpn >= tpages_.size())
        tpages_.resize(tvpn + 1);
    TPage &tp = tpages_[tvpn];
    tp.entries.assign(entries_per_tpage_, kInvalidPpa);
    // A fresh page already costs its run-boundary bitmap.
    full_bytes_ += compressedBytes(tp);
    return false;
}

bool
Sftl::makeResident(uint32_t tvpn, bool charge_read)
{
    if (!lru_.insert(tvpn).second)
        return true; // Promoted to MRU.
    if (charge_read)
        ops_.chargeTransRead();
    resident_bytes_ += compressedBytes(tpages_[tvpn]);
    evictToBudget();
    return false;
}

void
Sftl::evictToBudget()
{
    while (resident_bytes_ > budget_bytes_ && lru_.size() > 1) {
        if (lru_.lruValue())
            ops_.chargeTransWrite(); // Dirty victim.
        resident_bytes_ -= compressedBytes(tpages_[lru_.lruKey()]);
        lru_.popLru();
    }
}

void
Sftl::updateSlot(uint32_t tvpn, Lpa lpa, Ppa ppa, bool dirty)
{
    TPage &tp = tpages_[tvpn];
    const size_t old_compressed = compressedBytes(tp);
    full_bytes_ -= old_compressed;
    tp.entries[slotOf(lpa)] = ppa;
    tp.runs = countRuns(tp.entries);
    full_bytes_ += compressedBytes(tp);
    if (bool *resident_dirty = lru_.peek(tvpn)) {
        resident_bytes_ += compressedBytes(tp);
        resident_bytes_ -= old_compressed;
        *resident_dirty = dirty;
    }
}

TranslateResult
Sftl::translate(Lpa lpa)
{
    const uint32_t tvpn = tvpnOf(lpa);
    if (!exists(tvpn))
        return {};
    if (makeResident(tvpn, /*charge_read=*/true))
        hits_++;
    return peek(lpa);
}

TranslateResult
Sftl::peek(Lpa lpa) const
{
    const uint32_t tvpn = tvpnOf(lpa);
    if (!exists(tvpn))
        return {};
    const Ppa ppa = tpages_[tvpn].entries[slotOf(lpa)];
    if (ppa == kInvalidPpa)
        return {};
    return {true, ppa, false};
}

void
Sftl::trim(Lpa lpa)
{
    const uint32_t tvpn = tvpnOf(lpa);
    if (!exists(tvpn))
        return; // Never mapped.
    makeResident(tvpn, /*charge_read=*/true);
    updateSlot(tvpn, lpa, kInvalidPpa, /*dirty=*/true);
    evictToBudget();
}

void
Sftl::recordMappings(const std::vector<std::pair<Lpa, Ppa>> &run)
{
    for (const auto &[lpa, ppa] : run) {
        const uint32_t tvpn = tvpnOf(lpa);
        // Updating a page requires it resident (read when it already
        // lives on flash; fresh pages are born in DRAM).
        makeResident(tvpn, /*charge_read=*/getOrCreate(tvpn));
        updateSlot(tvpn, lpa, ppa, /*dirty=*/true);
        evictToBudget();
    }
}

void
Sftl::recordMappingsGc(const std::vector<std::pair<Lpa, Ppa>> &run)
{
    // Direct RMW per affected translation page, no residency change.
    // A resident copy is clean afterwards: flash just got it.
    uint32_t cur_tvpn = 0;
    bool have_tvpn = false;
    for (const auto &[lpa, ppa] : run) {
        const uint32_t tvpn = tvpnOf(lpa);
        const bool existed = getOrCreate(tvpn);
        if (!have_tvpn || tvpn != cur_tvpn) {
            if (existed)
                ops_.chargeTransRead();
            ops_.chargeTransWrite();
            cur_tvpn = tvpn;
            have_tvpn = true;
        }
        updateSlot(tvpn, lpa, ppa, /*dirty=*/false);
    }
    evictToBudget();
}

size_t
Sftl::residentMappingBytes() const
{
    return resident_bytes_;
}

size_t
Sftl::fullMappingBytes() const
{
    return full_bytes_;
}

void
Sftl::setMappingBudget(uint64_t bytes)
{
    budget_bytes_ = bytes;
    evictToBudget();
}

} // namespace leaftl
