/**
 * @file
 * The flash translation layer interface shared by DFTL, SFTL, and
 * LeaFTL, and the factory that instantiates them from an SsdConfig.
 *
 * The FTL owns only the address-mapping structures; flash data-path
 * costs live in the SSD device. Translation-metadata flash accesses
 * (translation-page reads/writes in DFTL/SFTL, mapping-table persists
 * in LeaFTL) are charged through the FtlOps callback the device
 * provides, so every FTL's metadata traffic lands in the same
 * counters and the same channel timeline.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/common.hh"

namespace leaftl
{

class LearnedTable;
struct SsdConfig;

/** Device-provided hooks for charging translation metadata I/O. */
class FtlOps
{
  public:
    virtual ~FtlOps() = default;
    /** One flash read of a translation page. */
    virtual void chargeTransRead() = 0;
    /** One flash write of a translation page. */
    virtual void chargeTransWrite() = 0;
};

/** Outcome of an LPA translation. */
struct TranslateResult
{
    bool found = false;
    Ppa ppa = kInvalidPpa;
    /**
     * True when the PPA came from an approximate learned segment and
     * may be off by up to gamma (the device then verifies via OOB,
     * §3.5). Always false for DFTL/SFTL.
     */
    bool approximate = false;
};

/** Abstract flash translation layer. */
class Ftl
{
  public:
    explicit Ftl(FtlOps &ops) : ops_(ops) {}
    virtual ~Ftl() = default;

    /** Translate one LPA (read or invalidation path). */
    virtual TranslateResult translate(Lpa lpa) = 0;

    /**
     * What translate() would return, without its side effects: no
     * metadata charge, no cache fill, promotion or eviction, and no
     * lookup statistics (the device's test oracle).
     */
    virtual TranslateResult peek(Lpa lpa) const = 0;

    /**
     * Record fresh mappings from a host buffer flush. @a run is sorted
     * by LPA with ascending PPAs (§3.3).
     */
    virtual void recordMappings(
        const std::vector<std::pair<Lpa, Ppa>> &run) = 0;

    /**
     * Record mappings moved by GC (§3.6). The default
     * treats them like a flush, which is what LeaFTL does: it relearns
     * segments in DRAM. DFTL/SFTL override it to update translation
     * pages directly (read-modify-write per page).
     */
    virtual void
    recordMappingsGc(const std::vector<std::pair<Lpa, Ppa>> &run)
    {
        recordMappings(run);
    }

    /**
     * Drop the mapping of a trimmed LPA. Subsequent translate() calls
     * return not-found until the LPA is rewritten.
     */
    virtual void trim(Lpa lpa) = 0;

    /** Periodic work (LeaFTL: segment compaction, §3.7). */
    virtual void periodicMaintenance() {}

    /** Bytes of mapping structures currently resident in DRAM. */
    virtual size_t residentMappingBytes() const = 0;

    /**
     * Bytes the full mapping of everything written so far would take
     * if fully cached (the paper's "mapping table size", Figs. 15/19).
     */
    virtual size_t fullMappingBytes() const = 0;

    /** Cap DRAM residency (cached FTLs evict to fit). */
    virtual void setMappingBudget(uint64_t) {}

    virtual const char *name() const = 0;

    /** LeaFTL-only access to the learned table (nullptr otherwise). */
    virtual LearnedTable *learnedTable() { return nullptr; }
    virtual const LearnedTable *learnedTable() const { return nullptr; }

  protected:
    FtlOps &ops_;
};

/** Instantiate the FTL selected by @a cfg. */
std::unique_ptr<Ftl> makeFtl(const SsdConfig &cfg, FtlOps &ops);

} // namespace leaftl
