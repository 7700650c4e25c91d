#include "ftl/dftl.hh"

namespace leaftl
{

Dftl::Dftl(FtlOps &ops, uint32_t page_size, uint64_t budget_bytes)
    : Ftl(ops),
      entries_per_tpage_(page_size / kMapEntryBytes),
      budget_bytes_(budget_bytes)
{
    LEAFTL_ASSERT(entries_per_tpage_ > 0, "DFTL: page too small");
}

TranslateResult
Dftl::translate(Lpa lpa)
{
    if (const Ppa *e = cmt_.touch(lpa)) {
        cmt_hits_++;
        if (*e == kInvalidPpa)
            return {}; // Trimmed.
        return {true, *e, false};
    }

    // CMT miss: consult the GTD. A missing translation page means the
    // LPA was never mapped (no flash access needed).
    const uint32_t tvpn = tvpnOf(lpa);
    if (!materialized(tvpn))
        return {};

    cmt_misses_++;
    ops_.chargeTransRead();
    const Ppa ppa = tpages_[tvpn][slotOf(lpa)];
    if (ppa == kNeverWritten)
        return {}; // Page exists but this slot was never written.

    upsertCmt(lpa, ppa, /*dirty=*/false);
    if (ppa == kInvalidPpa)
        return {}; // Trimmed tombstone.
    return {true, ppa, false};
}

TranslateResult
Dftl::peek(Lpa lpa) const
{
    Ppa ppa;
    if (const Ppa *e = cmt_.peek(lpa))
        ppa = *e;
    else if (materialized(tvpnOf(lpa)))
        ppa = tpages_[tvpnOf(lpa)][slotOf(lpa)];
    else
        return {};
    if (ppa == kInvalidPpa || ppa == kNeverWritten)
        return {}; // Trimmed, or never written.
    return {true, ppa, false};
}

void
Dftl::trim(Lpa lpa)
{
    // Record the unmapping as a dirty tombstone entry; the eventual
    // write-back persists it to the translation page.
    if (!materialized(tvpnOf(lpa)) && !cmt_.peek(lpa))
        return; // Never mapped: nothing to do.
    upsertCmt(lpa, kInvalidPpa, /*dirty=*/true);
}

void
Dftl::markDirty(Lpa lpa)
{
    const uint32_t tvpn = tvpnOf(lpa);
    if (tvpn >= dirty_.size())
        dirty_.resize(tvpn + 1);
    if (dirty_[tvpn].size() == 0)
        dirty_[tvpn].resize(entries_per_tpage_);
    dirty_[tvpn].set(slotOf(lpa));
}

void
Dftl::upsertCmt(Lpa lpa, Ppa ppa, bool dirty)
{
    auto [entry, fresh] = cmt_.insert(lpa);
    entry = ppa;
    if (dirty)
        markDirty(lpa);
    if (!fresh)
        return;
    const uint32_t tvpn = tvpnOf(lpa);
    if (!materialized(tvpn) || tpages_[tvpn][slotOf(lpa)] == kNeverWritten)
        mapped_++;
    evictToBudget();
}

void
Dftl::evictToBudget()
{
    const uint64_t max_entries = budget_bytes_ / kMapEntryBytes;
    while (cmt_.size() > max_entries) {
        if (isDirty(cmt_.lruKey())) {
            // Batch write-back: flush all dirty entries of the
            // victim's translation page in one read-modify-write.
            writebackTpage(tvpnOf(cmt_.lruKey()));
        }
        cmt_.popLru();
    }
}

std::vector<Ppa> &
Dftl::rmwTpage(uint32_t tvpn)
{
    if (materialized(tvpn))
        ops_.chargeTransRead(); // RMW: read the old page.
    ops_.chargeTransWrite();
    if (tvpn >= tpages_.size())
        tpages_.resize(tvpn + 1);
    if (tpages_[tvpn].empty())
        tpages_[tvpn].assign(entries_per_tpage_, kNeverWritten);
    return tpages_[tvpn];
}

void
Dftl::writebackTpage(uint32_t tvpn)
{
    std::vector<Ppa> &page = rmwTpage(tvpn);
    const Lpa first = tvpn * entries_per_tpage_;
    Bitmap &dirty = dirty_[tvpn];
    dirty.forEachSet([&](uint32_t i) {
        const Ppa *e = cmt_.peek(first + i);
        LEAFTL_ASSERT(e, "DFTL: dirty slot without a CMT entry");
        page[i] = *e;
    });
    dirty.clearAll();
}

void
Dftl::recordMappings(const std::vector<std::pair<Lpa, Ppa>> &run)
{
    for (const auto &[lpa, ppa] : run)
        upsertCmt(lpa, ppa, /*dirty=*/true);
}

void
Dftl::recordMappingsGc(const std::vector<std::pair<Lpa, Ppa>> &run)
{
    // Direct translation-page updates, one RMW per affected page.
    // Only rmwTpage grows tpages_, so the page reference stays valid
    // until the next page change.
    std::vector<Ppa> *page = nullptr;
    uint32_t cur_tvpn = 0;
    for (const auto &[lpa, ppa] : run) {
        const uint32_t tvpn = tvpnOf(lpa);
        if (!page || tvpn != cur_tvpn) {
            page = &rmwTpage(tvpn);
            cur_tvpn = tvpn;
        }
        Ppa &slot = (*page)[slotOf(lpa)];
        // Refresh any cached copy; it is now clean w.r.t. flash.
        if (Ppa *e = cmt_.peek(lpa)) {
            *e = ppa;
            if (isDirty(lpa))
                dirty_[tvpn].clear(slotOf(lpa));
        } else if (slot == kNeverWritten)
            mapped_++;
        slot = ppa;
    }
}

size_t
Dftl::residentMappingBytes() const
{
    return cmt_.size() * kMapEntryBytes;
}

size_t
Dftl::fullMappingBytes() const
{
    // Every mapped LPA costs one 8-byte entry. Entries that only live
    // in the CMT (dirty, not yet written back) still count once.
    return mapped_ * kMapEntryBytes;
}

void
Dftl::setMappingBudget(uint64_t bytes)
{
    budget_bytes_ = bytes;
    evictToBudget();
}

} // namespace leaftl
