/**
 * @file
 * Composable arrival-time shapers: decorators that wrap any
 * WorkloadSource and rewrite IoRequest::arrival so every generator and
 * trace gains an offered-load axis for open-loop replay.
 *
 * A shaper changes *when* requests arrive, never *what* they access:
 * op, LPA, and size pass through untouched, and name() forwards to the
 * wrapped source so sweep CSVs keep their workload column stable. Four
 * shapes cover standard storage-evaluation practice:
 *
 *   - as-recorded: identity (trace timestamps / generator gaps),
 *   - fixed-rate:  one request every 1/rate seconds,
 *   - poisson:     exponential inter-arrival gaps (seeded, portable),
 *   - burst:       on/off cycles; the mean rate is preserved but every
 *                  burst packs its requests into the duty fraction of
 *                  the cycle, so the instantaneous rate is rate/duty.
 *
 * All shapers are deterministic: same (spec, seed) -> same arrival
 * sequence, and reset() replays it from the start.
 */

#pragma once

#include <memory>
#include <string>

#include "util/rng.hh"
#include "workload/request.hh"

namespace leaftl
{

/** Arrival-process shapes. */
enum class ShaperKind : uint8_t
{
    AsRecorded, ///< Keep the source's own arrival timestamps.
    FixedRate,  ///< Constant gaps at rate_iops.
    Poisson,    ///< Exponential gaps with mean 1/rate_iops.
    Burst,      ///< On/off bursts, mean rate_iops, duty-cycle on-time.
};

/** Parameters of an arrival shaper. */
struct ShaperSpec
{
    ShaperKind kind = ShaperKind::AsRecorded;
    /** Offered load in requests/second (unused by as-recorded). */
    double rate_iops = 0.0;
    /** RNG seed (poisson). */
    uint64_t seed = 42;
    /** Fraction of each burst cycle that carries requests (burst). */
    double duty = 0.25;
};

/**
 * Base decorator: pulls from the wrapped source and lets the concrete
 * shaper overwrite the arrival tick. Owns the inner source.
 */
class ArrivalShaper : public WorkloadSource
{
  public:
    explicit ArrivalShaper(std::unique_ptr<WorkloadSource> inner)
        : inner_(std::move(inner))
    {
    }

    bool
    next(IoRequest &req) override
    {
        if (!inner_->next(req))
            return false;
        req.arrival = nextArrival(index_++, req.arrival);
        return true;
    }

    void
    reset() override
    {
        inner_->reset();
        index_ = 0;
        resetShape();
    }

    const std::string &name() const override { return inner_->name(); }

    WorkloadSource &inner() { return *inner_; }

  protected:
    /**
     * Arrival tick of request @a index (0-based, monotone in index).
     * @param recorded The source's own arrival timestamp.
     */
    virtual Tick nextArrival(uint64_t index, Tick recorded) = 0;

    /** Restore shaper-local state for a replay from the start. */
    virtual void resetShape() {}

  private:
    std::unique_ptr<WorkloadSource> inner_;
    uint64_t index_ = 0;
};

/** Identity shaper: keeps the recorded timestamps. */
class AsRecordedShaper : public ArrivalShaper
{
  public:
    using ArrivalShaper::ArrivalShaper;

  protected:
    Tick
    nextArrival(uint64_t, Tick recorded) override
    {
        return recorded;
    }
};

/** Constant-rate arrivals: request i arrives at i/rate seconds. */
class FixedRateShaper : public ArrivalShaper
{
  public:
    FixedRateShaper(std::unique_ptr<WorkloadSource> inner,
                    double rate_iops);

  protected:
    Tick nextArrival(uint64_t index, Tick recorded) override;

  private:
    double period_ns_;
};

/**
 * Poisson arrivals: i.i.d. exponential gaps with mean 1/rate. Uses the
 * repository Rng, so the sequence is identical across platforms and
 * fully determined by (rate, seed).
 */
class PoissonShaper : public ArrivalShaper
{
  public:
    PoissonShaper(std::unique_ptr<WorkloadSource> inner, double rate_iops,
                  uint64_t seed);

  protected:
    Tick nextArrival(uint64_t index, Tick recorded) override;
    void resetShape() override;

  private:
    double mean_gap_ns_;
    uint64_t seed_;
    Rng rng_;
    double clock_ns_ = 0.0;
};

/**
 * Bursty arrivals: cycles of kBurstLen requests. A cycle spans
 * kBurstLen/rate seconds (so the mean rate is exactly rate_iops), but
 * its requests arrive within the first @a duty fraction, followed by
 * silence -- the classic on/off overload shape.
 */
class BurstShaper : public ArrivalShaper
{
  public:
    /** Requests per burst cycle. */
    static constexpr uint32_t kBurstLen = 64;

    BurstShaper(std::unique_ptr<WorkloadSource> inner, double rate_iops,
                double duty);

  protected:
    Tick nextArrival(uint64_t index, Tick recorded) override;

  private:
    double cycle_ns_;
    double on_gap_ns_;
};

/** Build the shaper described by @a spec around @a inner. */
std::unique_ptr<WorkloadSource>
shapeArrivals(std::unique_ptr<WorkloadSource> inner,
              const ShaperSpec &spec);

} // namespace leaftl
