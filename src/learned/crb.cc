#include "learned/crb.hh"

#include <algorithm>

namespace leaftl
{

Crb::Crb()
{
    clear();
}

void
Crb::clear()
{
    runs_.clear();
    free_.clear();
    std::fill(std::begin(owner_), std::end(owner_), kNoSeg);
    stored_offs_ = 0;
}

void
Crb::checkLive(SegId id) const
{
    LEAFTL_ASSERT(id < runs_.size() && runs_[id].any(), "stale CRB id");
}

Crb::SegId
Crb::allocate(const GroupMask &offs)
{
    SegId id = 0;
    if (free_.empty()) {
        id = static_cast<SegId>(runs_.size());
        runs_.push_back(offs);
        // free_ never outgrows runs_, so it never grows on its own.
        free_.reserve(runs_.capacity());
    } else {
        id = free_.back();
        free_.pop_back();
        runs_[id] = offs;
    }
    stored_offs_ += offs.count();
    offs.forEach([&](uint8_t off) { owner_[off] = id; });
    return id;
}

Crb::SegId
Crb::insertRun(const GroupMask &offs, std::vector<Emptied> &emptied)
{
    LEAFTL_ASSERT(offs.any(), "CRB run must be non-empty");

    // Deduplicate: steal ownership from older runs. Stealing comes
    // first, so the new run may reuse the slot of a run it emptied.
    offs.forEach([&](uint8_t off) {
        const SegId old = owner_[off];
        if (old == kNoSeg)
            return;
        GroupMask &run = runs_[old];
        run.reset(off);
        stored_offs_--;
        if (run.none()) {
            free_.push_back(old);
            emptied.push_back({old, off});
        }
    });
    return allocate(offs);
}

bool
Crb::removeOffsets(SegId id, const GroupMask &offs)
{
    checkLive(id);
    GroupMask &run = runs_[id];
    const GroupMask gone = run & offs;
    gone.forEach([&](uint8_t off) { owner_[off] = kNoSeg; });
    stored_offs_ -= gone.count();
    run = run & ~offs;
    if (run.any())
        return false;
    free_.push_back(id);
    return true;
}

void
Crb::removeRun(SegId id)
{
    checkLive(id);
    GroupMask &run = runs_[id];
    run.forEach([&](uint8_t off) { owner_[off] = kNoSeg; });
    stored_offs_ -= run.count();
    run = GroupMask();
    free_.push_back(id);
}

Crb::SegId
Crb::restoreRun(const GroupMask &offs)
{
    LEAFTL_ASSERT(offs.any(), "CRB run must be non-empty");
    offs.forEach([&](uint8_t off) {
        LEAFTL_ASSERT(owner_[off] == kNoSeg,
                      "restored CRB runs must be disjoint");
    });
    return allocate(offs);
}

void
Crb::checkInvariants() const
{
    LEAFTL_ASSERT(runs_.size() <= kGroupSpan, "CRB slots outnumber offsets");
    size_t offs = 0, live = 0;
    for (size_t slot = 0; slot < runs_.size(); slot++) {
        const SegId id = static_cast<SegId>(slot);
        const GroupMask &run = runs_[slot];
        offs += run.count();
        live += run.any() ? 1 : 0;
        run.forEach([&](uint8_t off) {
            LEAFTL_ASSERT(owner_[off] == id, "CRB owner index out of sync");
        });
    }
    // Every run bit names its owner, so equal counts mean owner_
    // claims no offset outside the runs: the two agree exactly.
    const size_t owned = static_cast<size_t>(
        std::count_if(std::begin(owner_), std::end(owner_),
                      [](SegId id) { return id != kNoSeg; }));
    LEAFTL_ASSERT(owned == offs, "CRB owner index out of sync");
    LEAFTL_ASSERT(offs == stored_offs_, "CRB size accounting out of sync");
    LEAFTL_ASSERT(live == numRuns(), "CRB free list out of sync");

    std::vector<SegId> freed = free_;
    std::sort(freed.begin(), freed.end());
    LEAFTL_ASSERT(std::adjacent_find(freed.begin(), freed.end()) ==
                      freed.end(),
                  "CRB slot freed twice");
    for (SegId id : freed) {
        LEAFTL_ASSERT(id < runs_.size() && runs_[id].none(),
                      "freed CRB slot holds offsets");
    }
}

} // namespace leaftl
