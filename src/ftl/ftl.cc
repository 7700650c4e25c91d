#include "ftl/ftl.hh"

#include "ftl/dftl.hh"
#include "ftl/leaftl.hh"
#include "ftl/sftl.hh"
#include "ssd/config.hh"

namespace leaftl
{

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
        return std::make_unique<LeaFtl>(ops, cfg.gamma);
    }
    LEAFTL_PANIC("unknown FTL kind");
}

} // namespace leaftl
