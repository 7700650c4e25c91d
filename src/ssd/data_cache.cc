#include "ssd/data_cache.hh"

namespace leaftl
{

DataCache::DataCache(uint64_t capacity_pages) : capacity_(capacity_pages)
{
}

bool
DataCache::lookup(Lpa lpa)
{
    // A disabled cache can never hit; probing it would only pollute
    // the miss counter (and burn a hash probe per host read).
    if (capacity_ == 0)
        return false;
    if (lru_.touch(lpa)) {
        hits_++;
        return true;
    }
    misses_++;
    return false;
}

void
DataCache::insert(Lpa lpa)
{
    if (capacity_ == 0)
        return;
    if (!lru_.insert(lpa).second)
        return; // Present: FlatLru already promoted it to MRU.
    evictToCapacity();
}

void
DataCache::invalidate(Lpa lpa)
{
    lru_.erase(lpa);
}

void
DataCache::setCapacity(uint64_t capacity_pages)
{
    capacity_ = capacity_pages;
    evictToCapacity();
}

void
DataCache::evictToCapacity()
{
    while (lru_.size() > capacity_)
        lru_.popLru();
}

} // namespace leaftl
