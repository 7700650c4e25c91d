#include "ssd/write_buffer.hh"

#include <algorithm>

namespace leaftl
{

WriteBuffer::WriteBuffer(uint32_t capacity_pages) : capacity_(capacity_pages)
{
    LEAFTL_ASSERT(capacity_pages > 0, "write buffer needs capacity");
    order_.reserve(capacity_pages);
}

bool
WriteBuffer::add(Lpa lpa)
{
    const bool fresh = set_.insert(lpa).second;
    if (fresh)
        order_.push_back(lpa);
    return fresh;
}

bool
WriteBuffer::remove(Lpa lpa)
{
    // The arrival-order list keeps a stale entry; drainFifo filters
    // against the set, so removal here is O(1).
    return set_.erase(lpa);
}

std::vector<Lpa>
WriteBuffer::drainSorted()
{
    std::vector<Lpa> lpas;
    lpas.reserve(set_.size());
    set_.forEach([&](uint32_t lpa, NoPayload) { lpas.push_back(lpa); });
    std::sort(lpas.begin(), lpas.end());
    set_.clear();
    order_.clear();
    return lpas;
}

std::vector<Lpa>
WriteBuffer::drainFifo()
{
    // Walk the arrival list, taking each LPA the first time it is
    // still live and erasing it as taken: trimmed LPAs fail the erase
    // and drop out, re-added duplicates were already consumed at
    // their first-arrival position. Same output as the old
    // set-membership + dedup-set filter, without the temporary set.
    std::vector<Lpa> lpas;
    lpas.reserve(set_.size());
    for (Lpa lpa : order_) {
        if (set_.erase(lpa))
            lpas.push_back(lpa);
    }
    order_.clear();
    set_.clear();
    return lpas;
}

} // namespace leaftl
