/**
 * @file
 * Latency-vs-offered-load sweep (open-loop anchor, not a paper
 * figure): replays a read-heavy uniform workload against LeaFTL and
 * DFTL under open-loop admission with a Poisson arrival shaper, and
 * reports end-to-end latency percentiles per offered load as CSV. The
 * achieved-iops column flattens at the device's saturation point while
 * the tail percentiles diverge -- the classic hockey stick that
 * closed-loop replay (which back-pressures the arrival process) can
 * never show.
 *
 * Flags: the shared --requests/--ws/--qd/--gamma/--device/--fast set,
 * plus --rates=R1,R2,... (offered loads in requests/s). With
 * --config=FILE (e.g. configs/latency_load.conf) the FTL list, rate
 * grid, and read ratio come from the file's [experiment] section;
 * --rates= still wins over the file's rate axis.
 */

#include <cinttypes>
#include <sstream>

#include "bench_common.hh"
#include "sim/reporter.hh"
#include "workload/arrival.hh"
#include "workload/synthetic.hh"

namespace
{

leaftl::MixSpec
loadMixSpec(const leaftl::bench::BenchScale &s)
{
    leaftl::MixSpec spec;
    spec.name = "load-mix";
    spec.working_set_pages = s.working_set_pages;
    spec.num_requests = s.requests;
    // Read-dominated: the FTL-differentiating work (translation-page
    // reads under DRAM pressure, OOB misprediction reads) is on the
    // read path, while heavy write traffic saturates both FTLs
    // identically on flash programs. A config file's read-ratio key
    // overrides the bench's default.
    spec.read_ratio = s.spec.read_ratio >= 0.0 ? s.spec.read_ratio : 0.98;
    // Uniform point accesses (see fig_queue_depth): sequential runs
    // and zipf skew would concentrate on hot channels and measure
    // workload shape, not the saturation behavior of the device.
    spec.p_seq = 0.0;
    spec.p_stride = 0.0;
    spec.p_log = 0.0;
    spec.zipf_theta = 0.0;
    return spec;
}

std::vector<double>
parseRates(const std::string &arg, const leaftl::bench::BenchScale &s)
{
    std::vector<double> rates;
    if (arg.rfind("--rates=", 0) == 0) {
        std::istringstream in(arg.substr(8));
        std::string item;
        while (std::getline(in, item, ','))
            if (!item.empty())
                rates.push_back(std::stod(item));
    }
    if (rates.empty() && s.from_config) {
        // The config file's rate axis (zero means "no rate", the
        // spec's closed-loop placeholder).
        for (const double r : s.spec.rates)
            if (r > 0.0)
                rates.push_back(r);
    }
    if (rates.empty())
        rates = {25'000, 50'000, 100'000, 200'000, 400'000, 800'000};
    return rates;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace leaftl;
    using namespace leaftl::bench;

    std::string free_arg;
    // Each (ftl, rate) pair is a full replay: a smaller default scale.
    BenchScale s = parseScale(argc, argv, &free_arg,
                              {.requests = 40'000,
                               .working_set_pages = 16 * 1024});
    const std::vector<double> rates = parseRates(free_arg, s);
    const uint32_t qd = s.queue_depth > 1 ? s.queue_depth : 64;
    const std::vector<FtlKind> ftls =
        s.from_config ? s.spec.ftls
                      : std::vector<FtlKind>{FtlKind::LeaFTL, FtlKind::DFTL};

    // Banner and notes go to stderr so stdout is a pure CSV (CI
    // uploads it as an artifact; the other table-style benches print
    // everything to stdout, but here the CSV is the product).
    std::fprintf(stderr,
                 "=== fig_latency_load: end-to-end latency percentiles "
                 "vs. offered load (open-loop poisson arrivals) ===\n");

    std::printf("ftl,mode,rate_iops,offered_iops,achieved_iops,"
                "p50_us,p95_us,p99_us,p999_us,max_us,avg_wait_us\n");
    for (const FtlKind ftl : ftls) {
        for (const double rate : rates) {
            SsdConfig cfg = benchConfig(ftl, s);
            // A multi-MB write buffer turns every flush into a
            // ~25 ms all-channel program storm that dominates the
            // p95+ tail at every offered load and masks the per-FTL
            // saturation point; a small buffer keeps flush bursts
            // short so the sweep measures translation + queueing.
            cfg.write_buffer_bytes = 256ull * cfg.geometry.page_size;
            // Half the page-table size (the paper's mapping-pressure
            // regime): DFTL pays translation-page reads per cache
            // miss, which is exactly what separates the FTLs' knees.
            if (s.dram_bytes == 0) {
                cfg.dram_bytes = std::max<uint64_t>(
                    64ull << 10,
                    s.working_set_pages * kMapEntryBytes / 4);
            }
            Ssd ssd(cfg);
            ShaperSpec shape;
            shape.kind = ShaperKind::Poisson;
            shape.rate_iops = rate;
            auto wl = shapeArrivals(
                std::make_unique<MixWorkload>(loadMixSpec(s)), shape);
            RunOptions opts;
            opts.prefill_pages = s.working_set_pages;
            opts.mixed_prefill = true;
            opts.queue_depth = qd;
            opts.admission = Admission::Open;
            const RunResult res = Runner::replay(ssd, *wl, opts);

            std::printf(
                "%s,poisson,%.0f,%.0f,%.0f,%.1f,%.1f,%.1f,%.1f,%.1f,"
                "%.1f\n",
                ftlKindName(ftl), rate, res.offered_iops,
                res.achieved_iops, res.e2e_all.percentile(50.0) / 1e3,
                res.e2e_all.percentile(95.0) / 1e3,
                res.e2e_all.percentile(99.0) / 1e3,
                res.e2e_all.percentile(99.9) / 1e3,
                res.e2e_all.max() / 1e3, res.avg_queue_wait_us);
        }
    }
    std::fprintf(stderr,
                 "achieved_iops flattening while the percentiles "
                 "diverge marks the saturation knee;\nlatency is "
                 "end-to-end (wait + service) from the shaped arrival "
                 "tick at qd=%u.\n",
                 qd);
    return 0;
}
