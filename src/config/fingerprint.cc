#include "config/fingerprint.hh"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "util/common.hh"

namespace leaftl
{
namespace config
{

namespace
{

/** Round-trip-exact double rendering (canonical, locale-free). */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::string
canonicalRunConfig(const ExperimentSpec &spec, const RunPoint &point)
{
    // Ten fixed keys plus at most seven optional ones. Reserving up
    // front also keeps GCC 12's -Warray-bounds quiet in Release.
    std::vector<std::pair<std::string, std::string>> kv;
    kv.reserve(17);
    kv.emplace_back("ftl", ftlKindName(point.ftl));
    kv.emplace_back("workload", point.workload);
    kv.emplace_back("qd", std::to_string(point.qd));
    kv.emplace_back("device", point.device);
    kv.emplace_back("mode", point.mode);
    kv.emplace_back("requests", std::to_string(spec.requests));
    kv.emplace_back("ws", std::to_string(spec.working_set_pages));
    kv.emplace_back("dram-bytes", std::to_string(spec.dram_bytes));
    kv.emplace_back("prefill", fmtDouble(spec.prefill_frac));
    kv.emplace_back("seed", std::to_string(spec.seed));
    // Result-irrelevant keys are dropped so equivalent runs collide:
    // the same dedupe rules the sweep applies (gamma only changes
    // LeaFTL, rate only the rate-driven modes, burst-duty only
    // burst), plus the optional overrides at their "unset" defaults.
    if (point.ftl == FtlKind::LeaFTL)
        kv.emplace_back("gamma", std::to_string(point.gamma));
    if (modeUsesRate(point.mode))
        kv.emplace_back("rate", fmtDouble(point.rate));
    if (point.mode == "burst")
        kv.emplace_back("burst-duty", fmtDouble(spec.burst_duty));
    if (spec.read_ratio >= 0.0)
        kv.emplace_back("read-ratio", fmtDouble(spec.read_ratio));
    if (spec.interarrival_us >= 0.0)
        kv.emplace_back("interarrival", fmtDouble(spec.interarrival_us));
    // The journal knob only perturbs LeaFTL runs, and only when set,
    // so every historical fingerprint is preserved at the default.
    if (point.ftl == FtlKind::LeaFTL && spec.journal_threshold_bytes > 0)
        kv.emplace_back("journal-threshold",
                        std::to_string(spec.journal_threshold_bytes));
    if (!spec.crash_points.empty()) {
        std::string pts;
        for (const uint64_t p : spec.crash_points) {
            if (!pts.empty())
                pts += ',';
            pts += std::to_string(p);
        }
        kv.emplace_back("crash-at", pts);
    }

    std::sort(kv.begin(), kv.end());
    std::string out;
    for (const auto &[key, value] : kv) {
        out += key;
        out += '=';
        out += value;
        out += '\n';
    }
    return out;
}

std::string
runFingerprint(const ExperimentSpec &spec, const RunPoint &point)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(canonicalRunConfig(spec, point))));
    return buf;
}

} // namespace config
} // namespace leaftl
