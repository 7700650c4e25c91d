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
    Lpa top = 0;
    set_.forEach([&](uint32_t lpa, NoPayload) {
        lpas.push_back(lpa);
        top = std::max(top, lpa);
    });
    set_.clear();

    // LSD radix sort, one byte per pass, skipping the bytes above the
    // largest key (a 64Ki-page working set needs two passes). One read
    // counts every pass's digits; each pass scatters into the other
    // buffer, the spare being order_, which the drain discards anyway.
    // The keys are distinct, so the result equals std::sort's.
    constexpr int kDigitBits = 8;
    constexpr size_t kRadix = size_t{1} << kDigitBits;
    int passes = 1;
    while (passes < 4 && (top >> (kDigitBits * passes)) != 0)
        passes++;
    size_t count[4][kRadix] = {};
    for (Lpa lpa : lpas) {
        for (int p = 0; p < passes; p++)
            count[p][(lpa >> (kDigitBits * p)) & (kRadix - 1)]++;
    }
    order_.resize(lpas.size());
    Lpa *from = lpas.data();
    Lpa *to = order_.data();
    for (int p = 0; p < passes; p++) {
        size_t at = 0;
        for (size_t &c : count[p]) {
            const size_t n = c;
            c = at;
            at += n;
        }
        for (size_t i = 0; i < lpas.size(); i++) {
            const Lpa lpa = from[i];
            to[count[p][(lpa >> (kDigitBits * p)) & (kRadix - 1)]++] = lpa;
        }
        std::swap(from, to);
    }
    if (from != lpas.data())
        std::copy(from, from + lpas.size(), lpas.data());
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
