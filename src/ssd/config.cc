#include "ssd/config.hh"

#include <cmath>

namespace leaftl
{

const char *
ftlKindName(FtlKind kind)
{
    switch (kind) {
      case FtlKind::DFTL:
        return "DFTL";
      case FtlKind::SFTL:
        return "SFTL";
      case FtlKind::LeaFTL:
        return "LeaFTL";
    }
    return "?";
}

uint64_t
SsdConfig::hostPages() const
{
    const double raw = static_cast<double>(geometry.totalPages());
    return static_cast<uint64_t>(std::floor(raw * (1.0 - kOverprovisioning)));
}

void
SsdConfig::validate() const
{
    geometry.validate();
    LEAFTL_ASSERT(write_buffer_bytes >=
                      static_cast<uint64_t>(geometry.pages_per_block) *
                          geometry.page_size,
                  "config: write buffer smaller than one flash block");
    LEAFTL_ASSERT(dram_bytes >= (64u << 10),
                  "config: DRAM budget unrealistically small");
    LEAFTL_ASSERT(compaction_interval > 0,
                  "config: compaction interval must be positive");
    LEAFTL_ASSERT(journal_threshold_bytes == 0 ||
                      journal_threshold_bytes >= 64,
                  "config: journal threshold below one record");
}

} // namespace leaftl
