/**
 * @file
 * Trace replay example: replay an MSR-Cambridge CSV trace (or, with
 * no file, one of the built-in workload models) against a chosen FTL
 * and print the run metrics.
 *
 *   ./trace_replay [--ftl=dftl|sftl|leaftl] [--gamma=N]
 *                  [--trace=/path/to/msr.csv | --model=MSR-hm]
 *
 * An unknown flag or FTL, or a gamma outside 0..4096, is an error:
 * exit status 2.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "config/experiment.hh"
#include "sim/runner.hh"
#include "util/parse.hh"
#include "workload/msr_models.hh"
#include "workload/trace.hh"

using namespace leaftl;

int
main(int argc, char **argv)
{
    std::string trace_path;
    std::string model = "MSR-hm";
    SsdConfig cfg;
    cfg.geometry.num_channels = 16;
    cfg.geometry.blocks_per_channel = 96;
    cfg.geometry.pages_per_block = 256;
    cfg.dram_bytes = 8ull << 20;

    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const std::string value = arg.substr(arg.find('=') + 1);
        std::string err;
        if (arg.rfind("--ftl=", 0) == 0) {
            if (!config::parseFtlName(value, cfg.ftl))
                err = "unknown ftl '" + value + "'";
        } else if (arg.rfind("--gamma=", 0) == 0) {
            uint64_t gamma = 0;
            if (!parseU64(value, gamma) || gamma > 4096)
                err = "bad gamma '" + value + "'";
            cfg.gamma = static_cast<uint32_t>(gamma);
        } else if (arg.rfind("--trace=", 0) == 0) {
            trace_path = value;
        } else if (arg.rfind("--model=", 0) == 0) {
            model = value;
        } else {
            err = "unknown flag '" + arg + "'";
        }
        if (!err.empty()) {
            std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
            return 2;
        }
    }

    Ssd ssd(cfg);

    std::unique_ptr<WorkloadSource> wl;
    if (!trace_path.empty()) {
        auto reqs = loadMsrTrace(trace_path, cfg.geometry.page_size,
                                 cfg.hostPages());
        std::printf("Loaded %zu requests from %s\n", reqs.size(),
                    trace_path.c_str());
        wl = std::make_unique<TraceWorkload>(trace_path, std::move(reqs));
    } else {
        std::printf("No trace given; using built-in model %s\n",
                    model.c_str());
        wl = makeMsrWorkload(model, cfg.hostPages() / 2, 200000);
    }

    Runner::prefill(ssd, cfg.hostPages() / 2);
    const RunResult res = Runner::replay(ssd, *wl);

    std::printf("\n=== %s on %s ===\n", res.ftl.c_str(),
                res.workload.c_str());
    std::printf("requests            : %llu (%llu pages)\n",
                static_cast<unsigned long long>(res.requests),
                static_cast<unsigned long long>(res.pages_touched));
    std::printf("avg read latency    : %.1f us (p99 %.1f us)\n",
                res.avg_read_latency_us, res.p99_read_latency_us);
    std::printf("avg request latency : %.1f us\n", res.avg_latency_us);
    std::printf("mapping table       : %.1f KiB (resident %.1f KiB)\n",
                res.mapping_bytes / 1024.0, res.resident_bytes / 1024.0);
    std::printf("data cache          : %llu pages, hit ratio %.1f%%\n",
                static_cast<unsigned long long>(res.data_cache_pages),
                100.0 * res.cache_hit_ratio);
    std::printf("WAF                 : %.3f\n", res.waf);
    std::printf("mispredict ratio    : %.2f%%\n",
                100.0 * res.mispredict_ratio);
    if (res.avg_lookup_levels > 0)
        std::printf("avg lookup levels   : %.2f\n", res.avg_lookup_levels);
    return 0;
}
