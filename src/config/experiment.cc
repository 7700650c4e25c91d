#include "config/experiment.hh"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <map>
#include <type_traits>

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

/** @a s without leading and trailing whitespace. */
std::string
trim(const std::string &s)
{
    const auto space = [](char c) {
        return std::isspace(static_cast<unsigned char>(c)) != 0;
    };
    const auto b = std::find_if_not(s.begin(), s.end(), space);
    const auto e = std::find_if_not(s.rbegin(), s.rend(), space).base();
    return b < e ? std::string(b, e) : std::string();
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

/** "a, b, or c" ("a or b" for two names). */
std::string
oneOf(const std::vector<std::string> &names)
{
    std::string out;
    for (size_t i = 0; i < names.size(); i++) {
        if (i > 0)
            out += names.size() > 2 ? ", " : " ";
        out += (i > 0 && i + 1 == names.size() ? "or " : "") + names[i];
    }
    return out;
}

/** The name of every row of @a table, in order. */
template <typename Table>
std::vector<std::string>
namesOf(const Table &table)
{
    std::vector<std::string> out;
    for (const auto &row : table)
        out.emplace_back(row.name);
    return out;
}

struct FtlName
{
    const char *name;
    FtlKind kind;
};

const FtlName kFtls[] = {
    {"leaftl", FtlKind::LeaFTL},
    {"dftl", FtlKind::DFTL},
    {"sftl", FtlKind::SFTL},
};

/** The replay modes, in presentation order; the first is the default. */
const ReplayMode kModes[] = {
    {"closed", std::nullopt, false},
    {"open", ShaperKind::AsRecorded, false},
    {"fixed", ShaperKind::FixedRate, true},
    {"poisson", ShaperKind::Poisson, true},
    {"burst", ShaperKind::Burst, true},
};

/**
 * Element parser for one value: a V (uint64_t, double or bool) that
 * @a ok accepts, stored in the element's type; otherwise "bad <what>
 * '<text>'<hint>", @a what defaulting to the key's name.
 */
template <typename V, typename Ok>
auto
checked(Ok ok, const char *hint = "", const char *what = nullptr)
{
    return [=](const std::string &key, const std::string &text, auto &out,
               std::string &err) {
        V v{};
        bool parsed;
        if constexpr (std::is_same_v<V, double>)
            parsed = parseDouble(text, v);
        else if constexpr (std::is_same_v<V, bool>)
            parsed = parseBool(text, v);
        else
            parsed = parseU64(text, v);
        if (!parsed || !ok(v)) {
            err = "bad " + (what ? std::string(what) : key) + " '" + text +
                  "'" + hint;
            return false;
        }
        out = static_cast<std::remove_reference_t<decltype(out)>>(v);
        return true;
    };
}

/**
 * Element parser for a name that @a known accepts: a string element
 * stores the name, any other one is set by known(name, out).
 * Otherwise "unknown <what> '<name>' (expected <expected>)", @a what
 * defaulting to the key's name.
 */
template <typename Known>
auto
named(const std::string &expected, Known known, const char *what = nullptr)
{
    return [=](const std::string &key, const std::string &name, auto &out,
               std::string &err) {
        bool ok;
        if constexpr (std::is_same_v<decltype(out), std::string &>) {
            out = name;
            ok = static_cast<bool>(known(name));
        } else {
            ok = known(name, out);
        }
        if (!ok)
            err = "unknown " + (what ? std::string(what) : key) + " '" +
                  name + "' (expected " + expected + ")";
        return ok;
    };
}

/** A range check: lo <= v <= hi. */
template <typename V>
auto
within(V lo, V hi)
{
    return [=](V v) { return v >= lo && v <= hi; };
}

constexpr auto kAny = [](const auto &) { return true; };
constexpr auto kNonNegative = [](double v) { return v >= 0.0; };

using Apply = decltype(ExperimentKey::apply);

/** A scalar key: the value is a V that @a ok accepts (see checked()). */
template <typename V, typename T, typename Ok>
Apply
scalar(T ExperimentSpec::*field, Ok ok, const char *hint = "")
{
    return [=](ExperimentSpec &spec, const std::string &key,
               const std::string &value, std::string &err) {
        return checked<V>(ok, hint)(key, value, spec.*field, err);
    };
}

/**
 * A list key: clear the list, split the value on commas, parse each
 * element with @a element, and reject an empty list.
 */
template <typename T, typename Element>
Apply
list(std::vector<T> ExperimentSpec::*field, Element element)
{
    return [=](ExperimentSpec &spec, const std::string &key,
               const std::string &value, std::string &err) {
        std::vector<T> &out = spec.*field;
        out.clear();
        for (const std::string &text : splitList(value)) {
            T v{};
            if (!element(key, text, v, err))
                return false;
            out.push_back(std::move(v));
        }
        if (out.empty()) {
            err = key + " list is empty";
            return false;
        }
        return true;
    };
}

} // namespace

bool
parseFtlName(const std::string &name, FtlKind &kind)
{
    for (const FtlName &ftl : kFtls) {
        if (name == ftl.name) {
            kind = ftl.kind;
            return true;
        }
    }
    return false;
}

const ReplayMode *
findMode(const std::string &name)
{
    for (const ReplayMode &m : kModes) {
        if (name == m.name)
            return &m;
    }
    return nullptr;
}

std::vector<std::string>
knownModes()
{
    return namesOf(kModes);
}

bool
modeUsesRate(const std::string &mode)
{
    const ReplayMode *m = findMode(mode);
    return m && m->uses_rate;
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

const std::vector<ExperimentKey> &
experimentKeys()
{
    using S = ExperimentSpec;
    using Str = const std::string;
    static const std::vector<ExperimentKey> keys = {
        {"ftl", "LIST",
         "comma list of FTLs: " + oneOf(namesOf(kFtls)) +
             " (default leaftl)",
         list(&S::ftls, named(oneOf(namesOf(kFtls)), parseFtlName, "FTL"))},
        {"workload", "LIST",
         "comma list of workload specs (default synthetic:zipf); --list "
         "prints the known ones",
         // Each spec is resolved (or rejected) when the sweep is validated.
         list(&S::workloads, named("", kAny))},
        {"gamma", "LIST",
         "comma list of LeaFTL error bounds, 0..4096 (default 0)",
         list(&S::gammas, checked<uint64_t>(within<uint64_t>(0, 4096)))},
        {"qd", "LIST",
         "comma list of queue depths: outstanding host requests per run, "
         "1..65536 (default 1)",
         list(&S::queue_depths, checked<uint64_t>(within<uint64_t>(1, 65536),
                                                  "", "queue depth"))},
        {"device", "LIST",
         "comma list of devices: auto (the default, derives the geometry "
         "from --ws) or a preset: " +
             oneOf(devicePresetNames()) + "; see --list",
         list(&S::devices, named("auto or a preset; see --list", [](Str &n) {
                  return n == "auto" || findDevicePreset(n);
              }))},
        {"mode", "LIST",
         "comma list of replay modes: " + oneOf(knownModes()) +
             ". The first (the default) admits closed-loop; the others "
             "replay open-loop (latency from each arrival), the rate-driven "
             "ones with arrivals shaped at each --rate",
         list(&S::modes, named(oneOf(knownModes()), findMode))},
        {"rate", "LIST",
         "comma list of offered loads in requests/s for the rate-driven "
         "modes",
         list(&S::rates, checked<double>(kNonNegative))},
        {"burst-duty", "F",
         "on-fraction of each burst cycle, in (0, 1] (default 0.25)",
         scalar<double>(&S::burst_duty,
                        [](double v) { return v > 0.0 && v <= 1.0; })},
        {"trace-strict", "[BOOL]",
         "fail on malformed trace lines instead of skipping them",
         scalar<bool>(&S::trace_strict, kAny, " (expected true/false)"),
         "true"},
        {"jobs", "N",
         "sweep worker threads, 1..1024 (default: hardware concurrency; "
         "rows stay in sweep order)",
         scalar<uint64_t>(&S::jobs, within<uint64_t>(1, 1024))},
        {"requests", "N", "requests per run (default 100000)",
         scalar<uint64_t>(&S::requests, within<uint64_t>(1, UINT64_MAX))},
        {"ws", "PAGES", "working-set pages (default 65536)",
         scalar<uint64_t>(&S::working_set_pages,
                          within<uint64_t>(1, UINT64_MAX))},
        {"dram-mb", "MB",
         "DRAM budget in MiB; 0 derives it from the working set or the "
         "device preset (default)",
         [](S &spec, Str &key, Str &value, std::string &err) {
             uint64_t mb = 0;
             if (!checked<uint64_t>(within<uint64_t>(0, UINT64_MAX >> 20))(
                     key, value, mb, err))
                 return false;
             spec.dram_bytes = mb << 20;
             return true;
         }},
        {"dram-bytes", "B", "DRAM budget in bytes, 0 or >= 65536",
         scalar<uint64_t>(
             &S::dram_bytes, [](uint64_t v) { return v == 0 || v >= 65536; },
             " (expected 0 or >= 65536 bytes)")},
        {"prefill", "FRAC",
         "prefilled fraction of the working set (default 0.85)",
         scalar<double>(&S::prefill_frac, within(0.0, 1.0))},
        {"read-ratio", "R", "override the workload read ratio, in [0, 1]",
         scalar<double>(&S::read_ratio, within(0.0, 1.0))},
        {"interarrival", "U",
         "override the mean request inter-arrival gap in us "
         "(synthetic/model workloads)",
         scalar<double>(&S::interarrival_us, kNonNegative)},
        {"seed", "N", "workload RNG seed (default 42)",
         scalar<uint64_t>(&S::seed, kAny)},
        {"journal-threshold", "B",
         "learn-journal bytes that trigger an incremental snapshot, 0 or "
         ">= 64 (default 0 = no journal)",
         scalar<uint64_t>(
             &S::journal_threshold_bytes,
             [](uint64_t v) { return v == 0 || v >= 64; },
             " (expected 0 or >= 64 bytes)")},
        {"crash-at", "LIST",
         "comma list of request indices where the replay crashes and "
         "recovers the device (LeaFTL only; DFTL/SFTL are rejected)",
         [](S &spec, Str &key, Str &value, std::string &err) {
             if (!list(&S::crash_points, checked<uint64_t>(kAny))(spec, key,
                                                                  value, err))
                 return false;
             std::sort(spec.crash_points.begin(), spec.crash_points.end());
             return true;
         }},
    };
    return keys;
}

const ExperimentKey *
findExperimentKey(const std::string &key)
{
    const std::string canon = canonKey(key);
    for (const ExperimentKey &k : experimentKeys()) {
        if (canon == k.name)
            return &k;
    }
    return nullptr;
}

std::vector<std::string>
knownExperimentKeys()
{
    return namesOf(experimentKeys());
}

std::string
nearestExperimentKey(const std::string &key)
{
    const std::string canon = canonKey(key);
    std::string best;
    size_t best_dist = SIZE_MAX;
    for (const ExperimentKey &known : experimentKeys()) {
        const size_t d = editDistance(canon, known.name);
        if (d < best_dist) {
            best_dist = d;
            best = known.name;
        }
    }
    return best;
}

bool
applyExperimentKey(ExperimentSpec &spec, const std::string &key,
                   const std::string &value, std::string &err)
{
    if (const ExperimentKey *k = findExperimentKey(key))
        return k->apply(spec, k->name, value, err);
    err = "unknown key '" + key + "' (did you mean '" +
          nearestExperimentKey(key) + "'?)";
    return false;
}

bool
loadExperimentFile(const std::string &path, ExperimentSpec &spec,
                   std::string &err)
{
    std::ifstream in(path);
    if (!in.good()) {
        err = "cannot open config file '" + path + "'";
        return false;
    }
    std::map<std::string, int> first_line; // By canonKey() spelling.
    std::string raw;
    for (int lineno = 1; std::getline(in, raw); lineno++) {
        const std::string where = path + ":" + std::to_string(lineno) + ": ";
        // '#' starts a comment anywhere on the line.
        const std::string line = trim(raw.substr(0, raw.find('#')));
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (line.front() == '[' || eq == std::string::npos) {
            err = where + "expected 'key = value', got '" + line + "'" +
                  (line.front() == '[' ? " (a config file has no sections)"
                                       : "");
            return false;
        }
        const std::string key = trim(line.substr(0, eq));
        const bool named =
            !key.empty() && std::all_of(key.begin(), key.end(), [](char c) {
                return std::isalnum(static_cast<unsigned char>(c)) ||
                       c == '-' || c == '_';
            });
        if (!named) {
            err = where + "bad key '" + key + "'";
            return false;
        }
        const auto [first, fresh] = first_line.emplace(canonKey(key), lineno);
        if (!fresh) {
            err = where + "duplicate key '" + key + "' (first set on line " +
                  std::to_string(first->second) + ")";
            return false;
        }
        if (!applyExperimentKey(spec, key, trim(line.substr(eq + 1)), err)) {
            err = where + err;
            return false;
        }
    }
    return true;
}

} // namespace config
} // namespace leaftl
