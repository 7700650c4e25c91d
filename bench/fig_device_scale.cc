/**
 * @file
 * Device-scale anchor (memory/perf anchor for the sparse block-granular
 * flash store, not a paper figure): for every device preset (tiny,
 * paper, paper-2tb) it constructs the device, records the resident
 * footprint of the page-LPA store against the dense O(totalPages)
 * equivalent it replaced, replays a fixed workload, and reports
 * throughput plus the post-run residency. The paper-scale row is the
 * point of the exercise: a 2 TB device used to cost ~2 GB before the
 * first request; with the sparse store it costs megabytes and scales
 * with the blocks the workload actually touches.
 *
 * With --config=FILE the device axis comes from the file's
 * [experiment] section (named presets only) instead of every preset.
 */

#include <cinttypes>

#include "bench_common.hh"
#include "sim/reporter.hh"
#include "workload/synthetic.hh"

namespace
{

leaftl::MixSpec
scaleMixSpec(const leaftl::bench::BenchScale &s)
{
    leaftl::MixSpec spec;
    spec.name = "device-scale-mix";
    spec.working_set_pages = s.working_set_pages;
    spec.num_requests = s.requests;
    spec.read_ratio = 0.7;
    spec.p_seq = 0.2;
    spec.seq_len_mean = 32;
    spec.p_stride = 0.05;
    spec.p_log = 0.05;
    spec.zipf_theta = 0.9;
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace leaftl;
    using namespace leaftl::bench;

    // Three full replays (one per preset): a smaller default scale.
    BenchScale s = parseScale(argc, argv, nullptr,
                              {.requests = 60'000,
                               .working_set_pages = 32 * 1024});
    // The device axis: every preset by default, the config file's
    // device list with --config= (this bench measures the per-device
    // flash-store footprint, so "auto" geometry has no preset row).
    std::vector<const DevicePreset *> presets;
    if (s.from_config) {
        for (const std::string &name : s.spec.devices) {
            const DevicePreset *p = findDevicePreset(name);
            if (!p)
                LEAFTL_FATAL("fig_device_scale: device '" + name +
                             "' is not a named preset");
            presets.push_back(p);
        }
    } else {
        for (const DevicePreset &p : devicePresets())
            presets.push_back(&p);
    }

    banner("fig_device_scale",
           "resident flash-store footprint & throughput across device "
           "presets (leaftl)");

    TextTable table({"device", "raw_cap", "dense_store", "resident_fresh",
                     "resident_run", "live_blocks", "MB/s", "waf"});

    for (const DevicePreset *preset_p : presets) {
        const DevicePreset &preset = *preset_p;
        BenchScale run = s;
        run.device = preset.name;
        SsdConfig cfg = benchConfig(FtlKind::LeaFTL, run);

        // Keep one workload across presets; LPAs wrap modulo the host
        // capacity on smaller devices (Ssd::submit), so every preset
        // sees the same request stream.
        Ssd ssd(cfg);
        const uint64_t fresh_resident = ssd.flash().residentBytes();
        // What the dense per-page LPA vector this store replaced would
        // have allocated up front.
        const uint64_t dense_bytes =
            cfg.geometry.totalPages() * sizeof(Lpa);

        auto wl = std::make_unique<MixWorkload>(scaleMixSpec(run));
        RunOptions opts;
        opts.prefill_pages = std::min<uint64_t>(
            run.working_set_pages, cfg.hostPages() * 3 / 4);
        opts.mixed_prefill = true;
        opts.queue_depth = run.queue_depth;
        const RunResult res = Runner::replay(ssd, *wl, opts);

        const double sim_s = static_cast<double>(res.sim_time_ns) /
                             static_cast<double>(kSecond);
        const double mbps =
            sim_s > 0.0 ? static_cast<double>(res.pages_touched) *
                              cfg.geometry.page_size / sim_s / (1 << 20)
                        : 0.0;

        table.addRow({preset.name,
                      TextTable::fmtBytes(cfg.geometry.capacityBytes()),
                      TextTable::fmtBytes(dense_bytes),
                      TextTable::fmtBytes(fresh_resident),
                      TextTable::fmtBytes(ssd.flash().residentBytes()),
                      std::to_string(ssd.flash().residentBlocks()),
                      TextTable::fmt(mbps), TextTable::fmt(res.waf)});
    }
    table.print();
    std::printf("\ndense_store is the O(totalPages) LPA vector the sparse "
                "store replaced;\nresident_fresh/resident_run are the "
                "sparse store before and after the replay\n(same request "
                "stream on every preset, wrapped modulo host capacity).\n");
    return 0;
}
