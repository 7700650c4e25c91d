/**
 * @file
 * perfbench: the repository's benchmark program.
 *
 * One process runs one named workload on the simulator, built through
 * the public API exactly as leaftl_sim builds a run (cli::makeConfig,
 * cli::makeWorkload, Runner::prefillMixed, Runner::replay), and reports
 * two clocks:
 *
 *   - host time: how fast the simulator replays the measured window
 *     (requests per host second), how long set-up takes, peak RSS;
 *   - simulated time: the modelled device's request latency and
 *     throughput, mapping-table size and write amplification, taken
 *     from the measured window only.
 *
 * A repetition ("rep") builds a fresh device, prefills it, runs the
 * warm-up requests until GC is in steady state (set-up), then replays
 * the measured window. Arrivals of the measured window are shifted
 * past the set-up backlog, so no request queues behind the prefill or
 * warm-up programming. Reps repeat until --seconds have passed; host
 * metrics come from the slowest rep (see hostTimes), simulated metrics
 * must repeat bit for bit in every rep.
 *
 * --trace 1 alternates untraced and traced reps and reports the
 * per-layer split instead. Tracing wraps the WorkloadSource handed to
 * Runner::replay: at queue depth 1 the host time between two next()
 * calls is exactly one request's processing, and the SsdStats counters
 * that request advanced say which layer did the work (recovery,
 * compaction, GC, buffer flush, read, buffered write). After the
 * measured window, LearnedTable and Ftl entry points are timed
 * directly on a deserialize(serialize()) copy or after every metric is
 * captured, so the measured state is never touched.
 *
 * The first rep of each seed checks the device against a shadow set
 * of written LPAs and the flash itself; any failed check, and any
 * simulated metric that does not repeat, makes the process exit 1.
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans FILE]
 * The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "cli/sim_cli.hh"
#include "ftl/dftl.hh"
#include "learned/learned_table.hh"
#include "sim/runner.hh"
#include "ssd/ssd.hh"
#include "util/host_clock.hh"
#include "util/rng.hh"

namespace
{

using namespace leaftl;

// ------------------------------------------------------------ workloads

/**
 * One benchmark workload: every one is queue depth 1, closed loop,
 * mixed prefill of 85% of the working set, the working-set-derived
 * ("auto") device, and gamma 4 where the FTL is LeaFTL. The run
 * lengths are part of the workload: LeaFTL's per-request host cost
 * grows with run length.
 */
struct Workload
{
    const char *name;
    FtlKind ftl;
    uint32_t gamma;
    const char *spec;
    double read_ratio; ///< < 0 keeps the generator's own.
    uint64_t ws_pages;
    uint64_t warmup_requests;   ///< Set-up: run until GC is steady.
    uint64_t measured_requests; ///< The measured window.
    uint64_t journal_threshold_bytes;
    uint64_t crash_every; ///< Crash + recover every N requests (0: none).
    bool gc_expected;     ///< The window must run GC (else: none at all).
    /** Traced request classes that must hold most of the host time. */
    std::vector<int> majority;
};

enum Cls : int
{
    kRecovery,
    kCompaction,
    kGc,
    kFlush,
    kRead,
    kWrite,
    kNumCls,
};

const char *const kClsName[kNumCls] = {"recovery", "compaction", "gc",
                                       "flush",    "read",       "write"};
const char *const kClsSpan[kNumCls] = {
    "request.recovery", "request.compaction", "request.gc",
    "request.flush",    "request.read",       "request.write"};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> list = {
        {"leaftl-rand-gc", FtlKind::LeaFTL, 4, "synthetic:rand", 0.2, 65536,
         100'000, 300'000, 0, 0, true, {kGc, kCompaction}},
        {"dftl-rand-gc", FtlKind::DFTL, 0, "synthetic:rand", 0.2, 65536,
         500'000, 3'000'000, 0, 0, true, {}},
        {"leaftl-zipf-read", FtlKind::LeaFTL, 4, "synthetic:zipf", 0.9,
         262144, 300'000, 1'500'000, 0, 0, false, {kRead, kCompaction}},
        {"leaftl-mix-crash", FtlKind::LeaFTL, 4, "synthetic:mix", -1.0,
         131072, 500'000, 1'000'000, 1ull << 20, 50'000, true, {}},
    };
    return list;
}

// ------------------------------------------------------------- counters

/** The SsdStats scalars the benchmark reads (never the histograms). */
#define PERFBENCH_SSD_COUNTERS(X)                                          \
    X(host_reads) X(host_writes) X(buffer_read_hits) X(unmapped_reads)     \
    X(unresolved_reads) X(data_reads) X(data_writes) X(gc_runs)            \
    X(gc_writes) X(wear_writes) X(trans_reads) X(trans_writes)             \
    X(mispredictions) X(mispredict_extra_reads) X(translations)            \
    X(compactions)

/** Counters kept outside SsdStats (data cache, block manager, DFTL). */
#define PERFBENCH_OTHER_COUNTERS(X)                                        \
    X(cache_hits) X(cache_misses) X(gc_pick_calls) X(gc_pick_scanned)      \
    X(cmt_hits) X(cmt_misses)

#define PERFBENCH_COUNTERS(X)                                              \
    PERFBENCH_SSD_COUNTERS(X) PERFBENCH_OTHER_COUNTERS(X)

/** A snapshot of the device's scalar counters. */
struct Counters
{
#define PERFBENCH_DECLARE(f) uint64_t f = 0;
    PERFBENCH_COUNTERS(PERFBENCH_DECLARE)
#undef PERFBENCH_DECLARE

    static Counters
    of(const Ssd &ssd)
    {
        const SsdStats &s = ssd.stats();
        Counters c;
#define PERFBENCH_COPY(f) c.f = s.f;
        PERFBENCH_SSD_COUNTERS(PERFBENCH_COPY)
#undef PERFBENCH_COPY
        c.cache_hits = ssd.dataCacheHits();
        c.cache_misses = ssd.dataCacheMisses();
        c.gc_pick_calls = ssd.blocks().gcPickCalls();
        c.gc_pick_scanned = ssd.blocks().gcPickScanned();
        if (const auto *d = dynamic_cast<const Dftl *>(&ssd.ftl())) {
            c.cmt_hits = d->cmtHits();
            c.cmt_misses = d->cmtMisses();
        }
        return c;
    }

    /** Flash programs of every kind (the WAF numerator). */
    uint64_t
    flashWrites() const
    {
        return data_writes + gc_writes + trans_writes + wear_writes;
    }

    Counters
    operator-(const Counters &o) const
    {
        Counters d;
#define PERFBENCH_SUB(f) d.f = f - o.f;
        PERFBENCH_COUNTERS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
        return d;
    }

    /** Append every counter to @a out (determinism fingerprints). */
    void
    appendTo(std::vector<double> &out) const
    {
#define PERFBENCH_APPEND(f) out.push_back(static_cast<double>(f));
        PERFBENCH_COUNTERS(PERFBENCH_APPEND)
#undef PERFBENCH_APPEND
    }
};

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
ratio(uint64_t num, uint64_t den)
{
    return ratio(static_cast<double>(num), static_cast<double>(den));
}

double
windowWaf(const Counters &d)
{
    return ratio(d.flashWrites(), d.host_writes);
}

// --------------------------------------------------------------- checks

/** Correctness/determinism checks feeding failed ÷ attempted. */
struct Checks
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** One check; a failure is reported on stderr. */
    void
    expect(bool ok, const std::string &what)
    {
        attempted++;
        if (!ok) {
            failed++;
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
        }
    }

    /** @a n checks of which @a bad failed (bulk per-LPA checks). */
    void
    bulk(uint64_t n, uint64_t bad, const std::string &what)
    {
        attempted += n;
        failed += bad;
        if (bad)
            std::fprintf(stderr, "perfbench: %" PRIu64 " of %" PRIu64
                                 " checks failed: %s\n",
                         bad, n, what.c_str());
    }
};

// -------------------------------------------------------------- tracing

/** One span: name, host start/end (ns), parent span index (-1: root). */
struct Span
{
    const char *name;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t parent;
};

/** Spans plus the per-class host-time split of one traced replay. */
struct Tracer
{
    struct ClassAcc
    {
        uint64_t ns = 0;
        uint64_t requests = 0;
        uint64_t events = 0; ///< Compactions / GC passes / flushes / ...
    };

    std::vector<Span> spans;
    ClassAcc cls[kNumCls];
    uint64_t gen_ns = 0; ///< Time inside the generator's next().

    int64_t
    open(const char *name, int64_t parent)
    {
        spans.push_back({name, hostNowNs(), 0, parent});
        return static_cast<int64_t>(spans.size()) - 1;
    }

    /** End span @a id. @return Its duration in ns. */
    double
    close(int64_t id)
    {
        Span &s = spans[static_cast<size_t>(id)];
        s.end_ns = hostNowNs();
        return static_cast<double>(s.end_ns - s.start_ns);
    }

    /** Chrome trace-event JSON (load in chrome://tracing or Perfetto). */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        const uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
        out << "{\"traceEvents\":[\n";
        for (size_t i = 0; i < spans.size(); i++) {
            const Span &s = spans[i];
            char line[256];
            std::snprintf(line, sizeof(line),
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                          "{\"id\":%zu,\"parent\":%" PRId64 "}}",
                          i ? ",\n" : "", s.name,
                          static_cast<double>(s.start_ns - t0) / 1e3,
                          static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                          i, s.parent);
            out << line;
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }
};

// ------------------------------------------------------- source adapter

/** Host LPAs written so far, and reads of LPAs never written. */
struct Shadow
{
    std::vector<uint8_t> written;
    uint64_t never_written_reads = 0;

    void
    observe(const IoRequest &req)
    {
        const uint64_t host_pages = written.size();
        for (uint32_t i = 0; i < req.npages; i++) {
            const uint64_t lpa = (req.lpa + i) % host_pages;
            if (req.op == Op::Write)
                written[lpa] = 1;
            else if (!written[lpa])
                never_written_reads++;
        }
    }
};

/**
 * The source handed to Runner::replay: passes through the next
 * @a limit requests of the generator, feeds the shadow set, and
 * optionally (measured window) shifts arrivals past the set-up
 * backlog, snapshots the counters at the window's midpoint, and
 * attributes each request's host time to a layer.
 */
class BenchSource final : public WorkloadSource
{
  public:
    BenchSource(WorkloadSource &inner, Ssd &ssd, Shadow &shadow,
                uint64_t limit)
        : inner_(inner), ssd_(ssd), shadow_(shadow), limit_(limit),
          learned_(ssd.ftl().learnedTable() != nullptr)
    {
    }

    /** Start the window when the device has drained its backlog. */
    void shiftPastBacklog() { shift_ = true; }

    /** Snapshot the counters before request @a index (WAF halves). */
    void midpointAt(uint64_t index) { mid_index_ = index; }

    /**
     * Sample the full mapping size before every @a n -th request. The
     * host time a sample takes (DFTL walks its whole CMT) is kept out
     * of the measured replay: see excludedNs().
     */
    void sampleMappingEvery(uint64_t n) { sample_every_ = n; }

    /**
     * Attribute host time per request into @a tracer; requests whose
     * index is in @a crash_points run a recovery first.
     */
    void
    traceInto(Tracer *tracer, int64_t parent,
              const std::vector<uint64_t> &crash_points)
    {
        tracer_ = tracer;
        parent_span_ = parent;
        crash_points_ = crash_points;
    }

    bool
    next(IoRequest &req) override
    {
        uint64_t t_in = 0;
        if (tracer_) {
            t_in = hostNowNs();
            if (returned_ > 0)
                retire(t_in);
        }
        const bool more = returned_ < limit_ && inner_.next(req);
        if (tracer_) {
            const uint64_t t_out = hostNowNs();
            tracer_->gen_ns += t_out - t_in;
            prev_exit_ = t_out;
        }
        if (!more)
            return false;
        if (sample_every_ && returned_ > 0 && returned_ % sample_every_ == 0) {
            const uint64_t t0 = hostNowNs();
            mapping_kib_.push_back(
                static_cast<double>(ssd_.ftl().fullMappingBytes()) / 1024.0);
            const uint64_t took = hostNowNs() - t0;
            excluded_ns_ += took;
            prev_exit_ += took; // Nor in this request's traced time.
        }
        if (shift_) {
            if (returned_ == 0) {
                const ChannelTimer &ch = ssd_.channels();
                Tick horizon = 0;
                for (uint32_t c = 0; c < ch.numChannels(); c++)
                    horizon = std::max(horizon, ch.busyUntil(c));
                window_start_ = horizon;
                first_arrival_ = req.arrival;
            }
            req.arrival = req.arrival - first_arrival_ + window_start_;
        }
        if (returned_ == mid_index_)
            mid_ = Counters::of(ssd_);
        shadow_.observe(req);
        if (tracer_) {
            prev_op_ = req.op;
            prev_mark_ = Mark::of(ssd_);
        }
        returned_++;
        return true;
    }

    void
    reset() override
    {
        inner_.reset();
        returned_ = 0;
    }

    const std::string &name() const override { return inner_.name(); }

    /** Simulated tick the measured window starts at. */
    Tick windowStart() const { return window_start_; }
    const Counters &midpoint() const { return mid_; }
    /** Full mapping sizes (KiB) sampled by sampleMappingEvery(). */
    const std::vector<double> &mappingKib() const { return mapping_kib_; }
    /** Host ns spent sampling, to subtract from the replay's time. */
    uint64_t excludedNs() const { return excluded_ns_; }

  private:
    /** The counters that classify a request (cheap to copy). */
    struct Mark
    {
        uint64_t compactions, gc_runs, data_writes;

        static Mark
        of(const Ssd &ssd)
        {
            const SsdStats &s = ssd.stats();
            return {s.compactions, s.gc_runs, s.data_writes};
        }
    };

    /** Close the previous request: its host time ends at @a t_in. */
    void
    retire(uint64_t t_in)
    {
        const uint64_t index = returned_ - 1;
        const Mark now = Mark::of(ssd_);
        int c;
        uint64_t events = 1;
        while (next_crash_ < crash_points_.size() &&
               crash_points_[next_crash_] < index)
            next_crash_++;
        if (next_crash_ < crash_points_.size() &&
            crash_points_[next_crash_] == index) {
            c = kRecovery;
        } else if (now.compactions != prev_mark_.compactions &&
                   learned_) {
            c = kCompaction;
            events = now.compactions - prev_mark_.compactions;
        } else if (now.gc_runs != prev_mark_.gc_runs) {
            c = kGc;
            events = now.gc_runs - prev_mark_.gc_runs;
        } else if (now.data_writes != prev_mark_.data_writes) {
            c = kFlush;
        } else {
            c = prev_op_ == Op::Read ? kRead : kWrite;
        }
        Tracer::ClassAcc &acc = tracer_->cls[c];
        acc.ns += t_in - prev_exit_;
        acc.requests++;
        acc.events += events;
        // Plain reads and buffered writes are millions of requests;
        // they are kept as per-class totals, not as spans.
        if (c != kRead && c != kWrite)
            tracer_->spans.push_back(
                {kClsSpan[c], prev_exit_, t_in, parent_span_});
    }

    WorkloadSource &inner_;
    Ssd &ssd_;
    Shadow &shadow_;
    uint64_t limit_;
    /** Compaction only does work in an FTL with a learned table. */
    bool learned_;
    uint64_t returned_ = 0;

    bool shift_ = false;
    Tick window_start_ = 0;
    Tick first_arrival_ = 0;

    uint64_t mid_index_ = UINT64_MAX;
    Counters mid_;
    uint64_t sample_every_ = 0;
    std::vector<double> mapping_kib_;
    uint64_t excluded_ns_ = 0;

    Tracer *tracer_ = nullptr;
    int64_t parent_span_ = -1;
    std::vector<uint64_t> crash_points_;
    size_t next_crash_ = 0;
    uint64_t prev_exit_ = 0;
    Op prev_op_ = Op::Read;
    Mark prev_mark_{};
};

// ---------------------------------------------------------- metric sets

/** A named metric value with its unit. */
struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

using Metrics = std::vector<Metric>;

/** Simulated results of one rep: must repeat bit for bit. */
struct SimResult
{
    double kiops = 0;
    double lat_mean_us = 0;
    double read_lat_mean_us = 0;
    double lat_p50_us = 0;
    double lat_p9999_us = 0;
    uint64_t p9999_beyond = 0; ///< Samples above the p99.99 rank.
    double mapping_kib = 0;     ///< Mean of kMappingSamples samples.
    double mapping_end_kib = 0; ///< At the end of the window.
    double waf = 0;
    double waf_first_half = 0;
    double waf_second_half = 0;
    uint64_t requests = 0;
    uint64_t recoveries = 0;
    RecoveryStats recovery;
    Counters window; ///< Counter deltas over the measured window.
    Counters total;  ///< Cumulative counters at the end.

    /** Every simulated quantity, for the bit-for-bit comparison. */
    std::vector<double>
    fingerprint() const
    {
        std::vector<double> f = {kiops,
                                 lat_mean_us,
                                 read_lat_mean_us,
                                 lat_p50_us,
                                 lat_p9999_us,
                                 static_cast<double>(p9999_beyond),
                                 mapping_kib,
                                 mapping_end_kib,
                                 waf,
                                 waf_first_half,
                                 waf_second_half,
                                 static_cast<double>(requests),
                                 static_cast<double>(recoveries),
                                 static_cast<double>(recovery.scanned_blocks),
                                 static_cast<double>(recovery.scanned_pages),
                                 static_cast<double>(
                                     recovery.replayed_journal_records),
                                 static_cast<double>(recovery.recovery_time)};
        window.appendTo(f);
        total.appendTo(f);
        return f;
    }
};

/** Everything one rep produced. */
struct Rep
{
    uint64_t seed = 0;
    bool traced = false;
    double setup_s = 0;  ///< Host time of the set-up.
    double replay_s = 0; ///< Host time of the measured replay.
    SimResult sim;
    Metrics layers; ///< Per-layer metrics (traced reps only).
};

/**
 * Count of samples strictly above the bucket a percentile landed in:
 * the number of requests beyond the reported value.
 */
uint64_t
samplesAbove(const LatencyHistogram &h, double value)
{
    uint64_t above = 0;
    for (const auto &[low, cum] : h.cdf()) {
        if (low <= value)
            above = h.count() - static_cast<uint64_t>(
                                    std::llround(cum * h.count()));
    }
    return above;
}

// ------------------------------------------------------ one repetition

struct RunContext
{
    const Workload &w;
    Checks &checks;
    Tracer *tracer = nullptr; ///< Non-null: traced rep.
    bool verify = false;      ///< Run the correctness checks.
    bool probe = false;       ///< Time the learned/ftl entry points.
};

config::ExperimentSpec
experimentFor(const Workload &w, uint64_t seed)
{
    config::ExperimentSpec spec;
    spec.working_set_pages = w.ws_pages;
    spec.read_ratio = w.read_ratio;
    spec.seed = seed;
    spec.requests = w.warmup_requests + w.measured_requests;
    spec.journal_threshold_bytes = w.journal_threshold_bytes;
    return spec;
}

std::vector<uint64_t>
crashSchedule(const Workload &w)
{
    std::vector<uint64_t> points;
    if (w.crash_every)
        for (uint64_t i = w.crash_every; i < w.measured_requests;
             i += w.crash_every)
            points.push_back(i);
    return points;
}

/**
 * Check the device against the flash and the shadow set:
 *   - every valid flash page's OOB LPA appears once;
 *   - the LPAs holding a valid page are exactly the LPAs ever written;
 *   - for each, oraclePpa finds that page and Ftl::translate predicts
 *     it exactly (or within gamma for an approximate segment);
 *   - no read went unresolved, and unmapped reads are exactly the
 *     reads of never-written LPAs.
 * Runs after every metric is captured: translate() mutates caches.
 * @return The written LPAs, ascending.
 */
std::vector<Lpa>
verifyDevice(Ssd &ssd, const Workload &w, const Shadow &shadow,
             Checks &checks)
{
    const uint64_t host_pages = ssd.config().hostPages();
    const uint64_t total_pages = ssd.config().geometry.totalPages();
    std::vector<Ppa> phys(host_pages, kInvalidPpa);
    uint64_t duplicates = 0, out_of_range = 0, valid_pages = 0;
    for (uint64_t p = 0; p < total_pages; p++) {
        const Ppa ppa = static_cast<Ppa>(p);
        if (!ssd.blocks().isValid(ppa))
            continue;
        valid_pages++;
        const Lpa lpa = ssd.flash().peekLpa(ppa);
        if (lpa >= host_pages) {
            out_of_range++;
            continue;
        }
        if (phys[lpa] != kInvalidPpa)
            duplicates++;
        phys[lpa] = ppa;
    }
    checks.bulk(valid_pages, duplicates + out_of_range,
                "valid flash pages carry distinct host LPAs");

    uint64_t set_mismatch = 0, oracle_bad = 0, translate_bad = 0;
    std::vector<Lpa> written;
    for (uint64_t lpa = 0; lpa < host_pages; lpa++) {
        const bool on_flash = phys[lpa] != kInvalidPpa;
        if (on_flash != (shadow.written[lpa] != 0))
            set_mismatch++;
        if (!shadow.written[lpa])
            continue;
        written.push_back(static_cast<Lpa>(lpa));
        const auto oracle = ssd.oraclePpa(static_cast<Lpa>(lpa));
        if (!oracle || *oracle != phys[lpa])
            oracle_bad++;
        const TranslateResult tr =
            ssd.ftl().translate(static_cast<Lpa>(lpa));
        const int64_t err = static_cast<int64_t>(tr.ppa) -
                            static_cast<int64_t>(phys[lpa]);
        const bool ok = tr.found && (tr.approximate
                                         ? std::llabs(err) <= w.gamma
                                         : err == 0);
        if (!ok)
            translate_bad++;
    }
    checks.bulk(host_pages, set_mismatch,
                "LPAs on flash == LPAs written (shadow set)");
    checks.bulk(written.size(), oracle_bad, "oraclePpa finds the flash page");
    checks.bulk(written.size(), translate_bad,
                "translate() predicts the flash page (within gamma)");

    const SsdStats &s = ssd.stats();
    checks.expect(s.unresolved_reads == 0, "unresolved_reads == 0");
    checks.expect(s.unmapped_reads == shadow.never_written_reads,
                  "unmapped_reads (" + std::to_string(s.unmapped_reads) +
                      ") == reads of never-written LPAs (" +
                      std::to_string(shadow.never_written_reads) + ")");
    return written;
}

/** Keeps the probe loops' results observable to the optimizer. */
volatile uint64_t g_probe_sink = 0;

/**
 * Time the learned-table and FTL entry points after the window:
 * serialize on the live table (const), everything mutating on
 * deserialized copies, Ftl::translate on the live FTL last (every
 * metric is captured by then).
 */
void
probeLayers(Ssd &ssd, const std::vector<Lpa> &written, uint64_t seed,
            Tracer &tracer, int64_t parent, Metrics &out)
{
    Rng rng(seed ^ 0x5bd1e995ull);
    const size_t n = std::min<size_t>(written.size(), 65536);
    std::vector<Lpa> sample(n);
    for (size_t i = 0; i < n; i++)
        sample[i] = written[rng.nextBounded(written.size())];

    double serialize_ms = 0, deserialize_ms = 0, lookup_ns = 0;
    double compact_ms = 0, learn_ns = 0;
    uint64_t sink = 0;
    if (const LearnedTable *table = ssd.ftl().learnedTable()) {
        int64_t id = tracer.open("probe.serialize", parent);
        const std::vector<uint8_t> blob = table->serialize();
        serialize_ms = tracer.close(id) / 1e6;

        id = tracer.open("probe.deserialize", parent);
        auto copy = LearnedTable::deserialize(blob);
        deserialize_ms = tracer.close(id) / 1e6;

        id = tracer.open("probe.lookup", parent);
        for (const Lpa lpa : sample)
            if (const auto hit = copy->lookup(lpa))
                sink += hit->ppa;
        lookup_ns = ratio(tracer.close(id), static_cast<double>(n));

        id = tracer.open("probe.compact", parent);
        copy->compact();
        compact_ms = tracer.close(id) / 1e6;

        // GC-shaped learn batches: sorted random LPAs, fresh PPAs.
        auto fresh = LearnedTable::deserialize(blob);
        std::vector<std::pair<Lpa, Ppa>> run;
        uint64_t mappings = 0;
        double learn_total_ns = 0;
        Ppa next_ppa = 0;
        for (size_t at = 0; at + 2048 <= n && at < 16 * 2048; at += 2048) {
            std::vector<Lpa> lpas(sample.begin() + at,
                                  sample.begin() + at + 2048);
            std::sort(lpas.begin(), lpas.end());
            lpas.erase(std::unique(lpas.begin(), lpas.end()), lpas.end());
            run.clear();
            for (const Lpa lpa : lpas)
                run.emplace_back(lpa, next_ppa++);
            id = tracer.open("probe.learn", parent);
            fresh->learn(run);
            learn_total_ns += tracer.close(id);
            mappings += run.size();
        }
        learn_ns = ratio(learn_total_ns, static_cast<double>(mappings));
    }

    const int64_t id = tracer.open("probe.translate", parent);
    for (const Lpa lpa : sample)
        sink += ssd.ftl().translate(lpa).ppa;
    const double translate_ns = ratio(tracer.close(id), static_cast<double>(n));
    g_probe_sink = sink;

    out.push_back({"learned.serialize_ms", "ms", serialize_ms});
    out.push_back({"learned.deserialize_ms", "ms", deserialize_ms});
    out.push_back({"learned.lookup_ns", "ns", lookup_ns});
    out.push_back({"learned.compact_ms", "ms", compact_ms});
    out.push_back({"learned.learn_ns_per_mapping", "ns", learn_ns});
    out.push_back({"ftl.translate_ns", "ns", translate_ns});
}

/** Per-layer metrics of a traced rep (host split + device counters). */
void
layerMetrics(const Ssd &ssd, const Tracer &tr, double replay_ns,
             const SimResult &sim, const LearnedTableStats *table_window,
             Metrics &out)
{
    const Counters &d = sim.window;
    auto share = [&](int c) {
        return ratio(static_cast<double>(tr.cls[c].ns), replay_ns);
    };
    auto perEvent = [&](int c) {
        return ratio(static_cast<double>(tr.cls[c].ns),
                     static_cast<double>(tr.cls[c].events));
    };
    auto perReq = [&](int c) {
        return ratio(static_cast<double>(tr.cls[c].ns),
                     static_cast<double>(tr.cls[c].requests));
    };
    out.push_back({"ssd.gc.share", "share", share(kGc)});
    out.push_back({"ssd.gc.ns_per_pass", "ns", perEvent(kGc)});
    out.push_back({"ssd.gc.passes", "count", static_cast<double>(d.gc_runs)});
    out.push_back({"ssd.compaction.share", "share", share(kCompaction)});
    out.push_back({"ssd.compaction.ns_per_call", "ns", perEvent(kCompaction)});
    out.push_back({"ssd.read.share", "share", share(kRead)});
    out.push_back({"ssd.read.ns_per_req", "ns", perReq(kRead)});
    out.push_back({"ssd.write.share", "share", share(kWrite)});
    out.push_back({"ssd.write.ns_per_req", "ns", perReq(kWrite)});
    out.push_back({"ssd.flush.share", "share", share(kFlush)});
    out.push_back({"ssd.flush.ns_per_call", "ns", perEvent(kFlush)});
    out.push_back({"ssd.recovery.share", "share", share(kRecovery)});
    out.push_back({"ssd.recovery.ns_per_call", "ns", perEvent(kRecovery)});
    out.push_back({"workload.share", "share",
                   ratio(static_cast<double>(tr.gen_ns), replay_ns)});
    out.push_back({"workload.next_ns", "ns",
                   ratio(static_cast<double>(tr.gen_ns),
                         static_cast<double>(sim.requests + 1))});

    out.push_back({"ssd.cache_hit_ratio", "ratio",
                   ratio(d.cache_hits, d.cache_hits + d.cache_misses)});
    out.push_back({"ssd.buffer_read_hit_ratio", "ratio",
                   ratio(d.buffer_read_hits, d.host_reads)});
    out.push_back({"ssd.trans_reads_per_req", "count/req",
                   ratio(d.trans_reads, sim.requests)});
    out.push_back({"ssd.trans_writes_per_req", "count/req",
                   ratio(d.trans_writes, sim.requests)});
    out.push_back({"ssd.gc_writes_per_host_write", "ratio",
                   ratio(d.gc_writes, d.host_writes)});
    out.push_back({"ftl.mispredict_ratio", "ratio",
                   ratio(d.mispredictions, d.translations)});
    out.push_back({"ftl.extra_reads_per_read", "ratio",
                   ratio(d.mispredict_extra_reads, d.host_reads)});
    out.push_back({"ftl.dftl_cmt_hit_ratio", "ratio",
                   ratio(d.cmt_hits, d.cmt_hits + d.cmt_misses)});
    out.push_back({"blocks.gc_pick_scanned_per_call", "ratio",
                   ratio(d.gc_pick_scanned, d.gc_pick_calls)});
    out.push_back({"blocks.free_fraction", "ratio",
                   ssd.blocks().freeFraction()});
    out.push_back({"flash.erase_spread", "count",
                   static_cast<double>(ssd.blocks().eraseSpread())});

    const LearnedTable *table = ssd.ftl().learnedTable();
    double levels_p50 = 0, levels_max = 0, crb_p50 = 0;
    if (table) {
        const SampleSet levels = table->levelsPerGroup();
        levels_p50 = levels.percentile(50.0);
        levels_max = levels.max();
        crb_p50 = table->crbSizes().percentile(50.0);
    }
    out.push_back({"learned.lookup_levels_mean", "count",
                   table_window ? ratio(table_window->lookup_levels_total,
                                        table_window->lookups)
                                : 0.0});
    out.push_back({"learned.lookup_cache_hit_ratio", "ratio",
                   table_window ? ratio(table_window->lookup_cache_hits,
                                        table_window->lookups)
                                : 0.0});
    out.push_back({"learned.levels_per_group_p50", "count", levels_p50});
    out.push_back({"learned.levels_per_group_max", "count", levels_max});
    out.push_back({"learned.segments", "count",
                   table ? static_cast<double>(table->numSegments()) : 0.0});
    out.push_back({"learned.approx_share", "ratio",
                   table ? ratio(static_cast<uint64_t>(table->numApproximate()),
                                 static_cast<uint64_t>(table->numSegments()))
                         : 0.0});
    out.push_back({"learned.crb_bytes_p50", "B", crb_p50});

    const double recoveries = static_cast<double>(sim.recoveries);
    out.push_back({"journal.recovery_sim_ms", "ms",
                   static_cast<double>(sim.recovery.recovery_time) / 1e6});
    out.push_back({"journal.scanned_pages_per_recovery", "count",
                   ratio(static_cast<double>(sim.recovery.scanned_pages),
                         recoveries)});
    out.push_back({"journal.records_per_recovery", "count",
                   ratio(static_cast<double>(
                             sim.recovery.replayed_journal_records),
                         recoveries)});
    out.push_back({"journal.snapshot_kib", "KiB",
                   static_cast<double>(ssd.snapshotBytes()) / 1024.0});
}

/** Workload properties the workload was chosen for. */
void
checkProperties(const Workload &w, const Ssd &ssd, const SimResult &sim,
                uint64_t seed, Checks &checks)
{
    const std::string at = std::string(w.name) + " seed " +
                           std::to_string(seed) + ": ";
    if (w.gc_expected) {
        checks.expect(sim.window.gc_runs > 0, at + "GC runs in the window");
        const double drift =
            std::fabs(sim.waf_first_half - sim.waf_second_half);
        checks.expect(drift <= 0.10 * sim.waf_second_half,
                      at + "GC steady: WAF of the window's halves " +
                          std::to_string(sim.waf_first_half) + " vs " +
                          std::to_string(sim.waf_second_half));
    } else {
        checks.expect(sim.total.gc_runs == 0, at + "no GC pass at all");
    }
    if (w.crash_every) {
        const uint64_t bound = ssd.recoveryScanBoundBlocks();
        checks.expect(sim.recoveries == crashSchedule(w).size(),
                      at + "recoveries match the crash schedule");
        checks.expect(sim.recovery.scanned_blocks <= sim.recoveries * bound,
                      at + "scanned blocks per recovery <= " +
                          std::to_string(bound));
    }
    if (w.ftl == FtlKind::DFTL)
        checks.expect(ssd.ftl().learnedTable() == nullptr,
                      at + "DFTL runs without a learned table");
}

/** Mapping-size samples across the measured window. */
constexpr uint64_t kMappingSamples = 64;

Rep
runRep(const RunContext &ctx, uint64_t seed)
{
    const Workload &w = ctx.w;
    Rep rep;
    rep.seed = seed;
    rep.traced = ctx.tracer != nullptr;
    Tracer *tracer = ctx.tracer;
    const int64_t rep_span = tracer ? tracer->open("rep", -1) : -1;

    // ---- set-up: device, prefill, warm-up until GC is steady.
    const config::ExperimentSpec spec = experimentFor(w, seed);
    std::string err;
    std::unique_ptr<WorkloadSource> gen = cli::makeWorkload(w.spec, spec, err);
    if (!gen) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        std::exit(2);
    }
    const int64_t setup_span = tracer ? tracer->open("setup", rep_span) : -1;
    const uint64_t setup_start = hostNowNs();
    auto ssd = std::make_unique<Ssd>(cli::makeConfig(w.ftl, w.gamma, spec));
    Runner::prefillMixed(
        *ssd, static_cast<uint64_t>(spec.prefill_frac * w.ws_pages), seed);
    const uint64_t prefill_ns = hostNowNs() - setup_start;

    // The shadow set starts as the LPAs the prefill left on flash.
    Shadow shadow;
    shadow.written.assign(ssd->config().hostPages(), 0);
    const uint64_t total_pages = ssd->config().geometry.totalPages();
    for (uint64_t p = 0; p < total_pages; p++) {
        const Ppa ppa = static_cast<Ppa>(p);
        if (ssd->blocks().isValid(ppa))
            shadow.written[ssd->flash().peekLpa(ppa) %
                           shadow.written.size()] = 1;
    }

    {
        BenchSource warm(*gen, *ssd, shadow, w.warmup_requests);
        RunOptions opts;
        opts.drain_at_end = false; // The window continues this stream.
        const uint64_t start = hostNowNs();
        Runner::replay(*ssd, warm, opts);
        rep.setup_s =
            static_cast<double>(prefill_ns + hostNowNs() - start) / 1e9;
    }
    if (tracer)
        tracer->close(setup_span);

    // ---- the measured window.
    const Counters before = Counters::of(*ssd);
    const LearnedTable *table_before = ssd->ftl().learnedTable();
    const LearnedTableStats stats_before =
        table_before ? table_before->stats() : LearnedTableStats{};
    BenchSource src(*gen, *ssd, shadow, w.measured_requests);
    src.shiftPastBacklog();
    src.midpointAt(w.measured_requests / 2);
    src.sampleMappingEvery(ceilDiv(w.measured_requests, kMappingSamples));
    RunOptions opts;
    opts.crash_points = crashSchedule(w);
    const int64_t replay_span = tracer ? tracer->open("replay", rep_span) : -1;
    if (tracer) {
        std::fill(std::begin(tracer->cls), std::end(tracer->cls),
                  Tracer::ClassAcc{});
        tracer->gen_ns = 0;
        src.traceInto(tracer, replay_span, opts.crash_points);
    }
    const uint64_t wall0 = hostNowNs();
    const RunResult res = Runner::replay(*ssd, src, opts);
    const uint64_t wall1 = hostNowNs();
    if (tracer)
        tracer->close(replay_span);
    rep.replay_s =
        static_cast<double>(wall1 - wall0 - src.excludedNs()) / 1e9;

    SimResult &sim = rep.sim;
    sim.requests = res.requests;
    sim.total = Counters::of(*ssd);
    sim.window = sim.total - before;
    const Tick window_ns = res.sim_time_ns - src.windowStart();
    sim.kiops = ratio(static_cast<double>(res.requests),
                      static_cast<double>(window_ns) / 1e9) / 1e3;
    sim.lat_mean_us = res.e2e_all.mean() / 1e3;
    sim.read_lat_mean_us = res.e2e_read.mean() / 1e3;
    sim.lat_p50_us = res.e2e_all.percentile(50.0) / 1e3;
    sim.lat_p9999_us = res.e2e_all.percentile(99.99) / 1e3;
    sim.p9999_beyond = samplesAbove(res.e2e_all, sim.lat_p9999_us * 1e3);
    // The mapping size swings between compactions (and recoveries),
    // so one instant depends on where the window ends; the mean over
    // the window (kMappingSamples points plus the end) does not.
    sim.mapping_end_kib =
        static_cast<double>(ssd->ftl().fullMappingBytes()) / 1024.0;
    std::vector<double> mapping = src.mappingKib();
    mapping.push_back(sim.mapping_end_kib);
    sim.mapping_kib = std::accumulate(mapping.begin(), mapping.end(), 0.0) /
                      static_cast<double>(mapping.size());
    sim.waf = windowWaf(sim.window);
    sim.waf_first_half = windowWaf(src.midpoint() - before);
    sim.waf_second_half = windowWaf(sim.total - src.midpoint());
    sim.recoveries = res.recoveries;
    sim.recovery = res.recovery;

    if (tracer) {
        // Table statistics over the window; a recovery replaces the
        // table, so crash workloads report the final table's own.
        const LearnedTable *table = ssd->ftl().learnedTable();
        LearnedTableStats window_stats;
        if (table) {
            window_stats = table->stats();
            if (table == table_before && res.recoveries == 0) {
                window_stats.lookups -= stats_before.lookups;
                window_stats.lookup_levels_total -=
                    stats_before.lookup_levels_total;
                window_stats.lookup_cache_hits -=
                    stats_before.lookup_cache_hits;
            }
        }
        layerMetrics(*ssd, *tracer,
                     rep.replay_s * 1e9, sim,
                     table ? &window_stats : nullptr, rep.layers);

        // The split the workload was chosen for must hold.
        if (!w.majority.empty()) {
            uint64_t ns = 0;
            std::string classes;
            for (const int c : w.majority) {
                ns += tracer->cls[c].ns;
                classes += std::string(classes.empty() ? "" : "+") +
                           kClsName[c];
            }
            const double share = ratio(static_cast<double>(ns),
                                       rep.replay_s * 1e9);
            ctx.checks.expect(share > 0.5,
                              std::string(w.name) + " seed " +
                                  std::to_string(seed) + ": " + classes +
                                  " hold most host time (" +
                                  std::to_string(share) + ")");
        }
    }

    checkProperties(w, *ssd, sim, seed, ctx.checks);
    if (ctx.verify) {
        const int64_t id = tracer ? tracer->open("verify", rep_span) : -1;
        const std::vector<Lpa> written =
            verifyDevice(*ssd, w, shadow, ctx.checks);
        if (tracer)
            tracer->close(id);
        if (ctx.probe)
            probeLayers(*ssd, written, seed, *tracer, rep_span, rep.layers);
    }
    if (tracer)
        tracer->close(rep_span);
    return rep;
}

// --------------------------------------------------------------- output

void
printJson(bool correct, const Checks &checks, const Metrics &metrics)
{
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(checks.attempted);
    line += ", \"failed\": " + std::to_string(checks.failed);
    line += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); i++) {
        const Metric &m = metrics[i];
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

void
printTable(const char *title, const Metrics &metrics)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

bool
sameSim(const SimResult &a, const SimResult &b)
{
    const std::vector<double> fa = a.fingerprint();
    const std::vector<double> fb = b.fingerprint();
    return fa.size() == fb.size() &&
           std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(double)) == 0;
}

/**
 * Host metrics of a run: its slowest rep among those @a pick keeps.
 * Reps of one seed do identical work. On a host shared with other
 * tenants, memory-bound code alternates between a contended speed
 * that recurs within nearly every run and faster phases whose level
 * varies from run to run; the slowest rep tracks the recurring one.
 * Over ten runs it spread 0.10-0.15 (quartile distance over median)
 * where the median rep spread 0.10-0.34.
 */
struct HostTimes
{
    double req_per_s = 0;
    double setup_s = 0;
};

template <typename Pick>
HostTimes
hostTimes(const std::vector<Rep> &reps, Pick pick)
{
    HostTimes h;
    double slowest_replay = 0;
    uint64_t requests = 0;
    for (const Rep &r : reps) {
        if (!pick(r))
            continue;
        slowest_replay = std::max(slowest_replay, r.replay_s);
        h.setup_s = std::max(h.setup_s, r.setup_s);
        requests = r.sim.requests;
    }
    h.req_per_s = ratio(static_cast<double>(requests), slowest_replay);
    return h;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name, spans_path;
    uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *value = argv[++i];
        if (arg == "--workload")
            name = value;
        else if (arg == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::strtod(value, nullptr);
        else if (arg == "--trace")
            trace = std::atoi(value);
        else if (arg == "--spans")
            spans_path = value;
        else
            return usage();
    }
    const Workload *wl = nullptr;
    for (const Workload &w : workloads())
        if (name == w.name)
            wl = &w;
    if (!wl || (trace != 0 && trace != 1) || seconds <= 0)
        return usage();
    const Workload &w = *wl;

    Checks checks;
    std::vector<Rep> reps;
    Tracer tracer;
    const uint64_t start = hostNowNs();
    auto elapsed = [&] {
        return static_cast<double>(hostNowNs() - start) / 1e9;
    };

    if (trace == 0) {
        // Untraced reps until the time is up (at least three, so every
        // host metric is a median). The first one is verified.
        while (reps.size() < 3 || elapsed() < seconds) {
            RunContext ctx{w, checks};
            ctx.verify = reps.empty();
            reps.push_back(runRep(ctx, seed));
        }
    } else {
        // Untraced/traced pairs until the time is up; the first traced
        // rep also times the layers' entry points. The property checks
        // then run once more, traced, on a second seed.
        while (reps.size() < 2 || reps.size() % 2 == 1 ||
               elapsed() < seconds) {
            RunContext ctx{w, checks};
            const bool traced = reps.size() % 2 == 1;
            ctx.tracer = traced ? &tracer : nullptr;
            ctx.verify = reps.size() < 2;
            ctx.probe = traced && reps.size() == 1;
            reps.push_back(runRep(ctx, seed));
        }
        RunContext ctx{w, checks};
        ctx.tracer = &tracer;
        ctx.verify = true;
        reps.push_back(runRep(ctx, seed + 1));
    }

    // Determinism: every rep of the seed repeats rep 0 bit for bit,
    // traced or not.
    for (const Rep &r : reps)
        if (r.seed == seed && &r != &reps.front())
            checks.expect(sameSim(r.sim, reps.front().sim),
                          std::string("simulated metrics repeat (") +
                              (r.traced ? "traced" : "untraced") + " rep)");

    for (const Rep &r : reps)
        std::printf("rep seed=%" PRIu64 " traced=%d setup_s=%.4f "
                    "replay_s=%.4f req/s=%.1f\n",
                    r.seed, r.traced ? 1 : 0, r.setup_s, r.replay_s,
                    ratio(static_cast<double>(r.sim.requests), r.replay_s));

    const SimResult &sim = reps.front().sim;
    std::printf("workload %s seed %" PRIu64 ": %" PRIu64
                " measured requests, qd 1, closed loop\n",
                w.name, seed, sim.requests);
    std::printf("latency percentiles come from a log histogram with 5%% "
                "buckets; p99.99 has %" PRIu64 " samples beyond it\n",
                sim.p9999_beyond);

    Metrics e2e;
    const HostTimes host = hostTimes(
        reps, [&](const Rep &r) { return !r.traced && r.seed == seed; });
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    e2e.push_back({"host_req_per_s", "1/s", host.req_per_s});
    e2e.push_back({"setup_s", "s", host.setup_s});
    e2e.push_back({"host_peak_rss_mib", "MiB",
                   static_cast<double>(ru.ru_maxrss) / 1024.0});
    e2e.push_back({"sim_kiops", "kIOPS", sim.kiops});
    e2e.push_back({"sim_lat_mean_us", "us", sim.lat_mean_us});
    e2e.push_back({"sim_read_lat_mean_us", "us", sim.read_lat_mean_us});
    e2e.push_back({"mapping_kib", "KiB", sim.mapping_kib});
    e2e.push_back({"waf", "ratio", sim.waf});
    // Printed, not in the JSON result: the percentiles are 5%-bucket
    // lower bounds that repeat exactly across seeds, and the failure
    // ratio is 0 on a correct run (the result's attempted/failed
    // fields carry it).
    Metrics extra;
    extra.push_back({"sim_lat_p50_us", "us", sim.lat_p50_us});
    extra.push_back({"sim_lat_p9999_us", "us", sim.lat_p9999_us});
    extra.push_back({"mapping_end_kib", "KiB", sim.mapping_end_kib});

    Metrics layers;
    if (trace == 1) {
        const HostTimes traced = hostTimes(
            reps, [&](const Rep &r) { return r.traced && r.seed == seed; });
        layers = reps[1].layers; // The first traced rep (it probed).
        layers.push_back({"trace.host_req_per_s", "1/s", traced.req_per_s});
        layers.push_back({"trace.overhead", "ratio",
                          ratio(host.req_per_s, traced.req_per_s)});
        if (!spans_path.empty() && !tracer.write(spans_path))
            checks.expect(false, "spans written to " + spans_path);
    }
    extra.push_back({"failed_op_ratio", "ratio",
                     ratio(checks.failed, checks.attempted)});

    printTable("end-to-end (host metrics: slowest untraced rep):", e2e);
    printTable("also reported:", extra);
    if (trace == 1)
        printTable("per-layer (first traced rep):", layers);
    const bool correct = checks.failed == 0;
    printJson(correct, checks, trace == 0 ? e2e : layers);
    return correct ? 0 : 1;
}
