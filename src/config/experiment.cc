#include "config/experiment.hh"

#include <algorithm>

#include "flash/presets.hh"
#include "util/common.hh"
#include "util/parse.hh"

namespace leaftl
{
namespace config
{

namespace
{

/** Canonical key spelling: '_' and '-' are interchangeable. */
std::string
canonKey(const std::string &key)
{
    std::string out = key;
    std::replace(out.begin(), out.end(), '_', '-');
    return out;
}

/** Edit distance for "did you mean" suggestions. */
size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<size_t> prev(b.size() + 1);
    std::vector<size_t> cur(b.size() + 1);
    for (size_t j = 0; j <= b.size(); j++)
        prev[j] = j;
    for (size_t i = 1; i <= a.size(); i++) {
        cur[0] = i;
        for (size_t j = 1; j <= b.size(); j++) {
            const size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

} // namespace

bool
parseFtlName(const std::string &name, FtlKind &kind)
{
    if (name == "leaftl") {
        kind = FtlKind::LeaFTL;
    } else if (name == "dftl") {
        kind = FtlKind::DFTL;
    } else if (name == "sftl") {
        kind = FtlKind::SFTL;
    } else {
        return false;
    }
    return true;
}

std::vector<std::string>
knownModes()
{
    return {"closed", "open", "fixed", "poisson", "burst"};
}

bool
modeUsesRate(const std::string &mode)
{
    return mode == "fixed" || mode == "poisson" || mode == "burst";
}

bool
checkCrashSupport(const ExperimentSpec &spec, std::string &err)
{
    if (spec.crash_points.empty())
        return true;
    for (const FtlKind ftl : spec.ftls) {
        if (ftl != FtlKind::LeaFTL) {
            err = std::string("crash-at needs an FTL with a recovery "
                              "model (LeaFTL); ") +
                  ftlKindName(ftl) + " has none";
            return false;
        }
    }
    return true;
}

std::vector<std::string>
knownExperimentKeys()
{
    return {"ftl",     "workload",     "gamma",      "qd",
            "device",  "mode",         "rate",       "burst-duty",
            "trace-strict", "jobs",
            "requests", "ws",
            "dram-mb", "dram-bytes",   "prefill",    "read-ratio",
            "interarrival", "seed",
            "journal-threshold", "crash-at"};
}

std::string
nearestExperimentKey(const std::string &key)
{
    const std::string canon = canonKey(key);
    std::string best;
    size_t best_dist = SIZE_MAX;
    for (const std::string &known : knownExperimentKeys()) {
        const size_t d = editDistance(canon, known);
        if (d < best_dist) {
            best_dist = d;
            best = known;
        }
    }
    return best;
}

bool
applyExperimentKey(ExperimentSpec &spec, const std::string &raw_key,
                   const std::string &value, std::string &err)
{
    const std::string key = canonKey(raw_key);
    if (key == "ftl") {
        spec.ftls.clear();
        for (const auto &name : splitList(value)) {
            FtlKind kind;
            if (!parseFtlName(name, kind)) {
                err = "unknown FTL '" + name +
                      "' (expected leaftl, dftl, or sftl)";
                return false;
            }
            spec.ftls.push_back(kind);
        }
        if (spec.ftls.empty()) {
            err = "ftl list is empty";
            return false;
        }
        return true;
    }
    if (key == "workload") {
        spec.workloads = splitList(value);
        if (spec.workloads.empty()) {
            err = "workload list is empty";
            return false;
        }
        return true;
    }
    if (key == "gamma") {
        spec.gammas.clear();
        for (const auto &g : splitList(value)) {
            uint64_t v;
            if (!parseU64(g, v) || v > 4096) {
                err = "bad gamma '" + g + "'";
                return false;
            }
            spec.gammas.push_back(static_cast<uint32_t>(v));
        }
        if (spec.gammas.empty()) {
            err = "gamma list is empty";
            return false;
        }
        return true;
    }
    if (key == "qd") {
        spec.queue_depths.clear();
        for (const auto &q : splitList(value)) {
            uint64_t v;
            if (!parseU64(q, v) || v == 0 || v > 65536) {
                err = "bad queue depth '" + q + "'";
                return false;
            }
            spec.queue_depths.push_back(static_cast<uint32_t>(v));
        }
        if (spec.queue_depths.empty()) {
            err = "qd list is empty";
            return false;
        }
        return true;
    }
    if (key == "device") {
        spec.devices.clear();
        for (const auto &name : splitList(value)) {
            if (name != "auto" && !findDevicePreset(name)) {
                err = "unknown device '" + name +
                      "' (expected auto or a preset; see --list)";
                return false;
            }
            spec.devices.push_back(name);
        }
        if (spec.devices.empty()) {
            err = "device list is empty";
            return false;
        }
        return true;
    }
    if (key == "mode") {
        spec.modes.clear();
        const auto known = knownModes();
        for (const auto &name : splitList(value)) {
            if (std::find(known.begin(), known.end(), name) ==
                known.end()) {
                err = "unknown mode '" + name +
                      "' (expected closed, open, fixed, poisson, or "
                      "burst)";
                return false;
            }
            spec.modes.push_back(name);
        }
        if (spec.modes.empty()) {
            err = "mode list is empty";
            return false;
        }
        return true;
    }
    if (key == "rate") {
        spec.rates.clear();
        for (const auto &r : splitList(value)) {
            double v;
            if (!parseDouble(r, v) || v < 0.0) {
                err = "bad rate '" + r + "'";
                return false;
            }
            spec.rates.push_back(v);
        }
        if (spec.rates.empty()) {
            err = "rate list is empty";
            return false;
        }
        return true;
    }
    if (key == "burst-duty") {
        if (!parseDouble(value, spec.burst_duty) ||
            spec.burst_duty <= 0.0 || spec.burst_duty > 1.0) {
            err = "bad burst-duty '" + value + "'";
            return false;
        }
        return true;
    }
    if (key == "trace-strict") {
        if (!parseBool(value, spec.trace_strict)) {
            err = "bad trace-strict '" + value + "' (expected true/false)";
            return false;
        }
        return true;
    }
    if (key == "jobs") {
        uint64_t v;
        if (!parseU64(value, v) || v == 0 || v > 1024) {
            err = "bad jobs '" + value + "'";
            return false;
        }
        spec.jobs = static_cast<unsigned>(v);
        return true;
    }
    if (key == "requests") {
        if (!parseU64(value, spec.requests) || spec.requests == 0) {
            err = "bad requests '" + value + "'";
            return false;
        }
        return true;
    }
    if (key == "ws") {
        if (!parseU64(value, spec.working_set_pages) ||
            spec.working_set_pages == 0) {
            err = "bad ws '" + value + "'";
            return false;
        }
        return true;
    }
    if (key == "dram-mb") {
        uint64_t mb;
        if (!parseU64(value, mb)) {
            err = "bad dram-mb '" + value + "'";
            return false;
        }
        spec.dram_bytes = mb << 20;
        return true;
    }
    if (key == "dram-bytes") {
        uint64_t v;
        if (!parseU64(value, v) || (v != 0 && v < (64u << 10))) {
            err = "bad dram-bytes '" + value +
                  "' (expected 0 or >= 65536 bytes)";
            return false;
        }
        spec.dram_bytes = v;
        return true;
    }
    if (key == "prefill") {
        if (!parseDouble(value, spec.prefill_frac) ||
            spec.prefill_frac < 0.0 || spec.prefill_frac > 1.0) {
            err = "bad prefill '" + value + "'";
            return false;
        }
        return true;
    }
    if (key == "read-ratio") {
        if (!parseDouble(value, spec.read_ratio) || spec.read_ratio < 0.0 ||
            spec.read_ratio > 1.0) {
            err = "bad read-ratio '" + value + "'";
            return false;
        }
        return true;
    }
    if (key == "interarrival") {
        if (!parseDouble(value, spec.interarrival_us) ||
            spec.interarrival_us < 0.0) {
            err = "bad interarrival '" + value + "'";
            return false;
        }
        return true;
    }
    if (key == "seed") {
        if (!parseU64(value, spec.seed)) {
            err = "bad seed '" + value + "'";
            return false;
        }
        return true;
    }
    if (key == "journal-threshold") {
        uint64_t v;
        if (!parseU64(value, v) || (v != 0 && v < 64)) {
            err = "bad journal-threshold '" + value +
                  "' (expected 0 or >= 64 bytes)";
            return false;
        }
        spec.journal_threshold_bytes = v;
        return true;
    }
    if (key == "crash-at") {
        spec.crash_points.clear();
        for (const auto &p : splitList(value)) {
            uint64_t v;
            if (!parseU64(p, v)) {
                err = "bad crash-at '" + p + "'";
                return false;
            }
            spec.crash_points.push_back(v);
        }
        if (spec.crash_points.empty()) {
            err = "crash-at list is empty";
            return false;
        }
        std::sort(spec.crash_points.begin(), spec.crash_points.end());
        return true;
    }
    err = "unknown key '" + raw_key + "' (did you mean '" +
          nearestExperimentKey(raw_key) + "'?)";
    return false;
}

bool
loadExperiment(const ConfigFile &file, const std::string &section,
               ExperimentSpec &spec, std::string &err)
{
    std::vector<std::pair<std::string, std::string>> resolved;
    if (!file.resolve(section, resolved, err))
        return false;
    for (const auto &[key, value] : resolved) {
        if (!applyExperimentKey(spec, key, value, err)) {
            err = file.origin() + ": [" + section + "]: " + err;
            return false;
        }
    }
    return true;
}

bool
loadExperimentFile(const std::string &path, ExperimentSpec &spec,
                   std::string &err)
{
    ConfigFile file;
    if (!file.parseFile(path, err))
        return false;
    if (!file.hasSection("experiment")) {
        err = path + ": no [experiment] section";
        return false;
    }
    return loadExperiment(file, "experiment", spec, err);
}

ExperimentSpec
loadExperimentFileOrDie(const std::string &path)
{
    ExperimentSpec spec;
    std::string err;
    if (!loadExperimentFile(path, spec, err))
        LEAFTL_FATAL(err);
    return spec;
}

bool
loadCampaignFile(const std::string &path, CampaignSpec &campaign,
                 std::string &err)
{
    ConfigFile file;
    if (!file.parseFile(path, err))
        return false;
    if (!file.hasSection("experiment")) {
        err = path + ": no [experiment] section";
        return false;
    }
    if (!loadExperiment(file, "experiment", campaign.exp, err))
        return false;

    // Default name: the file's basename without extension.
    std::string stem = path;
    const auto slash = stem.find_last_of('/');
    if (slash != std::string::npos)
        stem = stem.substr(slash + 1);
    const auto dot = stem.find_last_of('.');
    if (dot != std::string::npos && dot > 0)
        stem = stem.substr(0, dot);
    campaign.name = stem;
    campaign.dir.clear();

    if (file.hasSection("campaign")) {
        std::vector<std::pair<std::string, std::string>> resolved;
        if (!file.resolve("campaign", resolved, err))
            return false;
        for (const auto &[key, value] : resolved) {
            if (key == "name") {
                campaign.name = value;
            } else if (key == "dir") {
                campaign.dir = value;
            } else {
                err = file.origin() + ": [campaign]: unknown key '" + key +
                      "' (expected name or dir)";
                return false;
            }
        }
    }
    if (campaign.name.empty()) {
        err = path + ": empty campaign name";
        return false;
    }
    if (campaign.dir.empty())
        campaign.dir = "campaigns/" + campaign.name;
    return true;
}

} // namespace config
} // namespace leaftl
