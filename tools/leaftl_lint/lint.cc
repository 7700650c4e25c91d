/**
 * @file
 * The lint engine: a lightweight scanner (comment/string-aware, so
 * rules only ever see code tokens) plus the rule registry. Rules are
 * heuristic by design -- this is a discipline checker for one
 * codebase, not a C++ front end -- and every heuristic is pinned by a
 * positive and a negative fixture in tests/test_lint.cc.
 */

#include "leaftl_lint/lint.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

namespace leaftl
{
namespace lint
{

namespace
{

// ------------------------------------------------------------ scanner

/**
 * One file after the scanner pass: per-line code with comments
 * removed and string/char-literal contents blanked (quotes are kept
 * as token separators), the raw string literals per line (only the
 * float-format rule looks inside literals), and the suppressions
 * harvested from comments.
 */
struct ScannedFile
{
    std::vector<std::string> code;
    /** String-literal bodies (no quotes), per 1-based start line. */
    std::vector<std::vector<std::string>> literals;
    /** Rules allowed per line (already widened: a comment on line L
     *  suppresses findings on L and L+1). */
    std::vector<std::set<std::string>> allow;
    std::set<std::string> allow_file;

    int lineCount() const { return static_cast<int>(code.size()); }
    const std::string &codeAt(int line) const { return code[line - 1]; }
};

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Parse "leaftl-lint: allow(a,b)" / "allow-file(a)" out of a comment. */
void
harvestSuppression(const std::string &comment, int line, ScannedFile &out)
{
    const std::string tag = "leaftl-lint:";
    size_t pos = comment.find(tag);
    if (pos == std::string::npos)
        return;
    pos += tag.size();
    while (pos < comment.size() && comment[pos] == ' ')
        pos++;
    bool file_wide = false;
    if (comment.compare(pos, 10, "allow-file") == 0) {
        file_wide = true;
        pos += 10;
    } else if (comment.compare(pos, 5, "allow") == 0) {
        pos += 5;
    } else {
        return;
    }
    const size_t open = comment.find('(', pos);
    const size_t close = comment.find(')', pos);
    if (open == std::string::npos || close == std::string::npos ||
        close < open)
        return;
    std::string names = comment.substr(open + 1, close - open - 1);
    std::stringstream ss(names);
    std::string name;
    while (std::getline(ss, name, ',')) {
        name.erase(std::remove(name.begin(), name.end(), ' '), name.end());
        if (name.empty())
            continue;
        if (file_wide) {
            out.allow_file.insert(name);
        } else {
            out.allow[line - 1].insert(name);
            if (static_cast<size_t>(line) < out.allow.size())
                out.allow[line].insert(name);
        }
    }
}

/** Comment/string/char-literal aware pass over the raw content. */
ScannedFile
scan(const std::string &content)
{
    // Pre-split into raw lines so the suppression vector is sized.
    size_t n_lines = 1 + static_cast<size_t>(std::count(
                             content.begin(), content.end(), '\n'));
    ScannedFile out;
    out.code.resize(n_lines);
    out.literals.resize(n_lines);
    out.allow.resize(n_lines + 1); // +1: last-line comments widen past.

    enum class State
    {
        Normal,
        LineComment,
        BlockComment,
        Str,
        Chr,
        RawStr
    };
    State st = State::Normal;
    size_t line = 0; // 0-based index into out.code.
    std::string comment;     // Current comment text (for suppressions).
    int comment_line = 1;    // Line the current comment started on.
    std::string literal;     // Current string-literal body.
    size_t literal_line = 0; // Line the current literal started on.
    std::string raw_delim;   // ")delim\"" terminator of a raw string.

    auto flushComment = [&]() {
        harvestSuppression(comment, comment_line, out);
        comment.clear();
    };

    const size_t n = content.size();
    for (size_t i = 0; i < n; i++) {
        const char c = content[i];
        const char next = i + 1 < n ? content[i + 1] : '\0';
        if (c == '\n')
            line++;
        switch (st) {
        case State::Normal:
            if (c == '/' && next == '/') {
                st = State::LineComment;
                comment_line = static_cast<int>(line) + 1;
                i++;
            } else if (c == '/' && next == '*') {
                st = State::BlockComment;
                comment_line = static_cast<int>(line) + 1;
                i++;
            } else if (c == '"' && i > 0 && content[i - 1] == 'R') {
                // Raw string R"delim( ... )delim".
                size_t j = i + 1;
                std::string delim;
                while (j < n && content[j] != '(')
                    delim += content[j++];
                raw_delim = ")" + delim + "\"";
                out.code[line] += "\"\"";
                literal.clear();
                literal_line = line;
                st = State::RawStr;
                // Raw-string prefix/delim never contains newlines.
                i = j; // Skip past the '('.
            } else if (c == '"') {
                st = State::Str;
                out.code[line] += '"';
                literal.clear();
                literal_line = line;
            } else if (c == '\'' && !(i > 0 && isIdentChar(content[i - 1]))) {
                // Skip digit separators (1'000): only a quote NOT
                // glued to an identifier/number opens a char literal.
                st = State::Chr;
                out.code[line] += '\'';
            } else if (c != '\n') {
                out.code[line] += c;
            }
            break;
        case State::LineComment:
            if (c == '\n') {
                flushComment();
                st = State::Normal;
            } else {
                comment += c;
            }
            break;
        case State::BlockComment:
            if (c == '*' && next == '/') {
                flushComment();
                st = State::Normal;
                i++;
            } else {
                comment += c;
            }
            break;
        case State::Str:
            if (c == '\\' && i + 1 < n) {
                literal += c;
                literal += next;
                i++;
                if (next == '\n')
                    line++;
            } else if (c == '"') {
                out.literals[literal_line].push_back(literal);
                out.code[line] += '"';
                st = State::Normal;
            } else {
                literal += c;
            }
            break;
        case State::Chr:
            if (c == '\\' && i + 1 < n) {
                i++;
            } else if (c == '\'') {
                out.code[line] += '\'';
                st = State::Normal;
            }
            break;
        case State::RawStr:
            if (c == ')' && content.compare(i, raw_delim.size(),
                                            raw_delim) == 0) {
                out.literals[literal_line].push_back(literal);
                i += raw_delim.size() - 1;
                st = State::Normal;
            } else {
                literal += c;
            }
            break;
        }
    }
    if (st == State::LineComment || st == State::BlockComment)
        flushComment();
    return out;
}

// ------------------------------------------------------ token helpers

/** @a id appears in @a s as a whole identifier starting at @a pos? */
bool
identAt(const std::string &s, size_t pos, const std::string &id)
{
    if (s.compare(pos, id.size(), id) != 0)
        return false;
    if (pos > 0 && isIdentChar(s[pos - 1]))
        return false;
    const size_t end = pos + id.size();
    return end >= s.size() || !isIdentChar(s[end]);
}

/** First whole-identifier occurrence of @a id, or npos. */
size_t
findIdent(const std::string &s, const std::string &id, size_t from = 0)
{
    for (size_t pos = s.find(id, from); pos != std::string::npos;
         pos = s.find(id, pos + 1)) {
        if (identAt(s, pos, id))
            return pos;
    }
    return std::string::npos;
}

bool
hasIdent(const std::string &s, const std::string &id)
{
    return findIdent(s, id) != std::string::npos;
}

/** Whole identifier immediately followed by '(' (spaces allowed). */
bool
hasCall(const std::string &s, const std::string &id)
{
    for (size_t pos = findIdent(s, id); pos != std::string::npos;
         pos = findIdent(s, id, pos + 1)) {
        size_t j = pos + id.size();
        while (j < s.size() && s[j] == ' ')
            j++;
        if (j < s.size() && s[j] == '(')
            return true;
    }
    return false;
}

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

// ------------------------------------------------------------- paths

/** What the rules need to know about a file's location. */
struct PathInfo
{
    std::string path; ///< Repo-relative, forward slashes.
    bool header = false;
    bool in_src = false;
    bool in_bench = false;
    bool in_examples = false;
};

PathInfo
classify(const std::string &path)
{
    PathInfo info;
    info.path = path;
    std::replace(info.path.begin(), info.path.end(), '\\', '/');
    const size_t dot = info.path.rfind('.');
    const std::string ext =
        dot == std::string::npos ? "" : info.path.substr(dot);
    info.header = ext == ".hh" || ext == ".h" || ext == ".hpp";
    info.in_src = startsWith(info.path, "src/");
    info.in_bench = startsWith(info.path, "bench/");
    info.in_examples = startsWith(info.path, "examples/");
    return info;
}

/** Simulated-result code: determinism rules apply here. */
bool
simulationScope(const PathInfo &p)
{
    return p.in_src || p.in_bench || p.in_examples;
}

// -------------------------------------------------------------- rules

using Findings = std::vector<Finding>;

void
add(Findings &out, const PathInfo &p, int line, const char *rule,
    const std::string &msg)
{
    out.push_back({p.path, line, rule, msg});
}

/**
 * determinism/wall-clock: simulated results must never read host
 * time. All host-clock access (benchmark wall_ns columns, perf
 * stopwatches) goes through src/util/host_clock.hh, which is the one
 * exempt file; everything else reading a clock is either dead timing
 * code or a reproducibility bug.
 */
void
ruleWallClock(const PathInfo &p, const ScannedFile &f, Findings &out)
{
    if (!simulationScope(p) || p.path == "src/util/host_clock.hh")
        return;
    static const char *idents[] = {"chrono", "steady_clock", "system_clock",
                                   "high_resolution_clock"};
    static const char *calls[] = {"time",        "clock",    "gettimeofday",
                                  "clock_gettime", "localtime", "gmtime"};
    for (int line = 1; line <= f.lineCount(); line++) {
        const std::string &code = f.codeAt(line);
        for (const char *id : idents) {
            if (hasIdent(code, id)) {
                add(out, p, line, "wall-clock",
                    std::string("host clock token '") + id +
                        "' outside src/util/host_clock.hh; route host "
                        "timing through hostNowNs()/HostTimer");
                break;
            }
        }
        for (const char *id : calls) {
            if (hasCall(code, id)) {
                add(out, p, line, "wall-clock",
                    std::string("host clock call '") + id +
                        "()' outside src/util/host_clock.hh");
                break;
            }
        }
    }
}

/**
 * determinism/raw-rng: all randomness must flow from the seeded
 * leaftl::Rng (src/util/rng.hh) so a (workload, seed) pair replays
 * the exact request stream on every platform. Unseeded or
 * libc/libstdc++ generators vary by implementation.
 */
void
ruleRawRng(const PathInfo &p, const ScannedFile &f, Findings &out)
{
    if (!simulationScope(p) || startsWith(p.path, "src/util/rng"))
        return;
    static const char *idents[] = {"random_device", "mt19937", "mt19937_64",
                                   "default_random_engine"};
    static const char *calls[] = {"rand", "srand", "drand48", "random"};
    for (int line = 1; line <= f.lineCount(); line++) {
        const std::string &code = f.codeAt(line);
        for (const char *id : idents) {
            if (hasIdent(code, id)) {
                add(out, p, line, "raw-rng",
                    std::string("non-deterministic generator '") + id +
                        "'; use the seeded leaftl::Rng");
                break;
            }
        }
        for (const char *id : calls) {
            if (hasCall(code, id)) {
                add(out, p, line, "raw-rng",
                    std::string("libc randomness '") + id +
                        "()'; use the seeded leaftl::Rng");
                break;
            }
        }
    }
}

/**
 * determinism/unordered-serialize: serialize()/fingerprint/CSV
 * emitters define the repo's byte-identity guarantees; iterating a
 * hash container there makes output depend on hash seeding and
 * insertion order. (LearnedTable::serialize is canonical precisely
 * because GroupDirectory iterates in ascending index order.)
 *
 * Heuristic: collect every variable declared with an
 * unordered_{map,set} type anywhere in the file, then flag for-loops
 * that touch one (or any inline unordered_* expression) inside a
 * function whose name contains serialize/fingerprint/csv.
 */
void
ruleUnorderedSerialize(const PathInfo &p, const ScannedFile &f, Findings &out)
{
    if (!p.in_src && !startsWith(p.path, "tools/"))
        return;

    // Pass 1: names declared as unordered containers, file-wide.
    std::set<std::string> unordered_vars;
    for (int line = 1; line <= f.lineCount(); line++) {
        const std::string &code = f.codeAt(line);
        for (const char *type : {"unordered_map", "unordered_set"}) {
            size_t pos = findIdent(code, type);
            if (pos == std::string::npos)
                continue;
            // Skip the template argument list, then read the name.
            size_t j = pos + std::string(type).size();
            int angle = 0;
            for (; j < code.size(); j++) {
                if (code[j] == '<')
                    angle++;
                else if (code[j] == '>' && --angle == 0) {
                    j++;
                    break;
                }
            }
            while (j < code.size() && (code[j] == ' ' || code[j] == '&' ||
                                       code[j] == '*'))
                j++;
            std::string name;
            while (j < code.size() && isIdentChar(code[j]))
                name += code[j++];
            if (!name.empty())
                unordered_vars.insert(name);
        }
    }

    // Pass 2: walk the file tracking { } depth and the enclosing
    // function name (last identifier before a '(' whose statement
    // then opens a brace -- good enough for this codebase's style).
    std::vector<std::pair<std::string, int>> fn_stack; // (name, depth)
    int depth = 0;
    std::string candidate;
    auto currentFn = [&]() -> std::string {
        for (auto it = fn_stack.rbegin(); it != fn_stack.rend(); ++it)
            if (!it->first.empty())
                return it->first;
        return "";
    };
    for (int line = 1; line <= f.lineCount(); line++) {
        const std::string &code = f.codeAt(line);
        const std::string fn_before = currentFn();
        for (size_t i = 0; i < code.size(); i++) {
            const char c = code[i];
            if (isIdentChar(c)) {
                size_t j = i;
                while (j < code.size() && isIdentChar(code[j]))
                    j++;
                const std::string word = code.substr(i, j - i);
                size_t k = j;
                while (k < code.size() && code[k] == ' ')
                    k++;
                if (k < code.size() && code[k] == '(' && word != "for" &&
                    word != "if" && word != "while" && word != "switch" &&
                    word != "return" && word != "sizeof")
                    candidate = word;
                i = j - 1;
                continue;
            }
            if (c == '{') {
                // Braces nested inside a named function (if-bodies,
                // loops, lambdas) open anonymous scopes so a call in
                // a condition never shadows the enclosing function.
                fn_stack.emplace_back(
                    currentFn().empty() ? candidate : "", depth);
                candidate.clear();
                depth++;
            } else if (c == '}') {
                depth--;
                while (!fn_stack.empty() && fn_stack.back().second >= depth)
                    fn_stack.pop_back();
            } else if (c == ';') {
                candidate.clear();
            }
        }
        const std::string fn_name =
            currentFn().empty() ? fn_before : currentFn();
        const std::string fn = lower(fn_name);
        const bool canonical_fn = fn.find("serialize") != std::string::npos ||
                                  fn.find("fingerprint") != std::string::npos ||
                                  fn.find("csv") != std::string::npos;
        if (!canonical_fn)
            continue;
        if (hasIdent(code, "for")) {
            bool hit = hasIdent(code, "unordered_map") ||
                       hasIdent(code, "unordered_set");
            std::string which = hit ? "an unordered container" : "";
            if (!hit) {
                for (const std::string &var : unordered_vars) {
                    if (hasIdent(code, var)) {
                        hit = true;
                        which = "'" + var + "' (unordered)";
                        break;
                    }
                }
            }
            if (hit)
                add(out, p, line, "unordered-serialize",
                    "iteration over " + which + " in canonical emitter '" +
                        fn_name +
                        "'; hash order is not stable across layouts");
        }
    }
}

/**
 * determinism/float-format: CSV cells and report numbers printed
 * with a precision-less %f/%g/%e vary with future format-string
 * edits silently; every float conversion must pin its precision
 * (e.g. %.4f) so emitted bytes are part of the frozen-CSV contract.
 */
void
ruleFloatFormat(const PathInfo &p, const ScannedFile &f, Findings &out)
{
    static const char *printf_family[] = {
        "printf",  "fprintf",  "sprintf",  "snprintf",
        "vprintf", "vfprintf", "vsprintf", "vsnprintf"};
    for (int line = 1; line <= f.lineCount(); line++) {
        bool has_printf = false;
        for (int back = 0; back <= 2 && line - back >= 1; back++) {
            for (const char *id : printf_family)
                has_printf |= hasCall(f.codeAt(line - back), id);
        }
        if (!has_printf)
            continue;
        for (const std::string &lit : f.literals[line - 1]) {
            for (size_t i = 0; i + 1 < lit.size(); i++) {
                if (lit[i] != '%')
                    continue;
                size_t j = i + 1;
                if (lit[j] == '%') {
                    i = j;
                    continue;
                }
                bool has_precision = false;
                while (j < lit.size() &&
                       (std::isdigit(static_cast<unsigned char>(lit[j])) ||
                        lit[j] == '-' || lit[j] == '+' || lit[j] == ' ' ||
                        lit[j] == '#' || lit[j] == '*' || lit[j] == '.' ||
                        lit[j] == 'l' || lit[j] == 'L' || lit[j] == 'h' ||
                        lit[j] == 'z' || lit[j] == 'j')) {
                    if (lit[j] == '.')
                        has_precision = true;
                    j++;
                }
                if (j < lit.size() && !has_precision &&
                    std::string("fFeEgGaA").find(lit[j]) !=
                        std::string::npos) {
                    add(out, p, line, "float-format",
                        std::string("float conversion '%") + lit[j] +
                            "' without explicit precision; pin it "
                            "(e.g. %.4f) to freeze emitted bytes");
                }
                i = j;
            }
        }
    }
}

/**
 * concurrency/hot-path-std-function: the PR 4 learn-path overhaul
 * removed std::function from the per-mapping path (template visitors
 * instead); these headers are the translation/replay hot path where
 * a type-erased callable re-introduces an allocation + indirect call
 * per use. Keep std::function (and <functional>) out of them.
 */
void
ruleHotPathStdFunction(const PathInfo &p, const ScannedFile &f, Findings &out)
{
    if (!startsWith(p.path, "src/learned/") || !p.header)
        return;
    for (int line = 1; line <= f.lineCount(); line++) {
        const std::string &code = f.codeAt(line);
        if (code.find("std::function") != std::string::npos)
            add(out, p, line, "hot-path-std-function",
                "std::function in a hot-path header; use a template "
                "visitor or a raw function pointer + context");
        else if (code.find("#include") != std::string::npos &&
                 code.find("<functional>") != std::string::npos)
            add(out, p, line, "hot-path-std-function",
                "<functional> included from a hot-path header");
    }
}

/**
 * hygiene/pragma-once: every header uses #pragma once (the repo
 * converged on it over include guards: no guard-name collisions,
 * nothing to keep in sync when files move).
 */
void
rulePragmaOnce(const PathInfo &p, const ScannedFile &f, Findings &out)
{
    if (!p.header)
        return;
    for (int line = 1; line <= f.lineCount(); line++) {
        const std::string &code = f.codeAt(line);
        const size_t hash = code.find('#');
        if (hash == std::string::npos)
            continue;
        const size_t pragma = code.find("pragma", hash);
        if (pragma != std::string::npos &&
            code.find("once", pragma) != std::string::npos)
            return;
    }
    add(out, p, 1, "pragma-once", "header without #pragma once");
}

/** hygiene/using-namespace-header: classic include-pollution ban. */
void
ruleUsingNamespaceHeader(const PathInfo &p, const ScannedFile &f,
                         Findings &out)
{
    if (!p.header)
        return;
    for (int line = 1; line <= f.lineCount(); line++) {
        const std::string &code = f.codeAt(line);
        const size_t pos = findIdent(code, "using");
        if (pos == std::string::npos)
            continue;
        size_t j = pos + 5;
        while (j < code.size() && code[j] == ' ')
            j++;
        if (identAt(code, j, "namespace"))
            add(out, p, line, "using-namespace-header",
                "'using namespace' in a header leaks into every "
                "includer");
    }
}

/**
 * hygiene/iostream-core: the learned-table and flash layers are the
 * simulation core -- no terminal I/O (and no iostream static-init
 * weight) belongs there; reporting lives in sim/ and the CLIs.
 */
void
ruleIostreamCore(const PathInfo &p, const ScannedFile &f, Findings &out)
{
    if (!startsWith(p.path, "src/learned/") &&
        !startsWith(p.path, "src/flash/"))
        return;
    for (int line = 1; line <= f.lineCount(); line++) {
        const std::string &code = f.codeAt(line);
        if (code.find("#include") != std::string::npos &&
            code.find("<iostream>") != std::string::npos)
            add(out, p, line, "iostream-core",
                "<iostream> in the simulation core (src/learned, "
                "src/flash); report through sim/ instead");
    }
}

/**
 * hygiene/assert-side-effect: LEAFTL_ASSERT/assert bodies compile
 * away under NDEBUG; a side effect inside one makes release and
 * debug runs diverge -- the exact class of bug this repo's parity
 * tests exist to prevent.
 */
void
ruleAssertSideEffect(const PathInfo &p, const ScannedFile &f, Findings &out)
{
    for (int line = 1; line <= f.lineCount(); line++) {
        const std::string &code = f.codeAt(line);
        for (const char *macro : {"assert", "LEAFTL_ASSERT"}) {
            size_t pos = findIdent(code, macro);
            if (pos == std::string::npos)
                continue;
            size_t i = code.find('(', pos);
            if (i == std::string::npos)
                continue;
            int depth = 0;
            for (; i < code.size(); i++) {
                const char c = code[i];
                if (c == '(')
                    depth++;
                else if (c == ')' && --depth == 0)
                    break;
                const char prev = i > 0 ? code[i - 1] : '\0';
                const char next = i + 1 < code.size() ? code[i + 1] : '\0';
                const bool incdec = (c == '+' && next == '+') ||
                                    (c == '-' && next == '-');
                const bool compound =
                    std::strchr("+-*/%&|^", c) != nullptr && next == '=' &&
                    prev != c; // `==`-adjacent ops already excluded.
                const bool assign =
                    c == '=' && next != '=' && prev != '=' && prev != '!' &&
                    prev != '<' && prev != '>';
                if (incdec || compound ||
                    (assign && prev != '\0' &&
                     (isIdentChar(prev) || prev == ' ' || prev == ']' ||
                      prev == ')'))) {
                    add(out, p, line, "assert-side-effect",
                        std::string("side effect inside ") + macro +
                            "(); NDEBUG builds would change behavior");
                    break;
                }
            }
        }
    }
}

/**
 * perf/hot-path-node-containers: the device hot-path overhaul replaced
 * every per-IO node-based container in src/ssd/ (std::list LRU,
 * unordered hash buckets) with flat structures (util/flat_lru.hh,
 * intrusive index lists), src/learned/ dropped its last node map
 * (Crb's per-run std::map -> sorted vector), and the FTL caches in
 * src/ftl/ (DFTL's CMT, SFTL's resident pages, LeaFTL's resident
 * groups) moved onto util/flat_lru.hh with per-tvpn vectors for the
 * on-flash tables. One allocation or pointer-chase per host IO is
 * exactly the regression class this rule pins shut: declaring a
 * node-based standard container in those directories needs an
 * explicit justification (inline allow).
 */
void
ruleHotPathNodeContainers(const PathInfo &p, const ScannedFile &f,
                          Findings &out)
{
    if (!startsWith(p.path, "src/ssd/") &&
        !startsWith(p.path, "src/learned/") &&
        !startsWith(p.path, "src/ftl/"))
        return;
    static const char *types[] = {
        "list",          "map",           "multimap",
        "multiset",      "unordered_map", "unordered_set",
        "unordered_multimap", "unordered_multiset"};
    for (int line = 1; line <= f.lineCount(); line++) {
        const std::string &code = f.codeAt(line);
        for (const char *type : types) {
            // Only the std:: spelling: a bare `map` identifier is too
            // common (member names, parameters) to flag reliably.
            for (size_t pos = findIdent(code, type); pos != std::string::npos;
                 pos = findIdent(code, type, pos + 1)) {
                if (pos < 5 || code.compare(pos - 5, 5, "std::") != 0)
                    continue;
                add(out, p, line, "hot-path-node-containers",
                    std::string("node-based container 'std::") + type +
                        "' in the device/FTL/learned hot path; use a flat "
                        "structure (util/flat_lru.hh, sorted vector, "
                        "intrusive index lists)");
                break;
            }
        }
    }
}

struct Rule
{
    RuleInfo info;
    void (*fn)(const PathInfo &, const ScannedFile &, Findings &);
};

const std::vector<Rule> &
rules()
{
    static const std::vector<Rule> kRules = {
        {{"wall-clock", "determinism",
          "no host-clock reads outside src/util/host_clock.hh"},
         ruleWallClock},
        {{"raw-rng", "determinism",
          "no unseeded/libc randomness; use the seeded leaftl::Rng"},
         ruleRawRng},
        {{"unordered-serialize", "determinism",
          "no hash-container iteration in serialize/fingerprint/CSV "
          "emitters"},
         ruleUnorderedSerialize},
        {{"float-format", "determinism",
          "printf-family float conversions must pin their precision"},
         ruleFloatFormat},
        {{"hot-path-std-function", "concurrency",
          "no std::function in hot-path headers (src/learned/*.hh)"},
         ruleHotPathStdFunction},
        {{"hot-path-node-containers", "perf",
          "no node-based standard containers (std::list/map/unordered_*) "
          "in src/ssd/, src/ftl/ or src/learned/"},
         ruleHotPathNodeContainers},
        {{"pragma-once", "hygiene", "every header uses #pragma once"},
         rulePragmaOnce},
        {{"using-namespace-header", "hygiene",
          "no 'using namespace' in headers"},
         ruleUsingNamespaceHeader},
        {{"iostream-core", "hygiene",
          "no <iostream> in src/learned or src/flash"},
         ruleIostreamCore},
        {{"assert-side-effect", "hygiene",
          "no side effects inside assert()/LEAFTL_ASSERT()"},
         ruleAssertSideEffect},
    };
    return kRules;
}

} // namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> kCatalog = [] {
        std::vector<RuleInfo> infos;
        for (const Rule &r : rules())
            infos.push_back(r.info);
        return infos;
    }();
    return kCatalog;
}

std::vector<Finding>
lintContent(const std::string &path, const std::string &content,
            const std::vector<std::string> &only_rules)
{
    const PathInfo info = classify(path);
    const ScannedFile scanned = scan(content);
    Findings raw;
    for (const Rule &rule : rules()) {
        if (!only_rules.empty() &&
            std::find(only_rules.begin(), only_rules.end(),
                      rule.info.name) == only_rules.end())
            continue;
        rule.fn(info, scanned, raw);
    }
    Findings out;
    for (Finding &fi : raw) {
        if (scanned.allow_file.count(fi.rule))
            continue;
        const size_t idx = static_cast<size_t>(fi.line - 1);
        if (idx < scanned.allow.size() && scanned.allow[idx].count(fi.rule))
            continue;
        out.push_back(std::move(fi));
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Finding &a, const Finding &b) {
                         return a.line < b.line;
                     });
    return out;
}

bool
lintFile(const std::string &root, const std::string &rel_path,
         std::vector<Finding> &findings, std::string &err,
         const std::vector<std::string> &only_rules)
{
    const std::filesystem::path full =
        std::filesystem::path(root) / rel_path;
    std::ifstream in(full, std::ios::binary);
    if (!in) {
        err = rel_path + ": cannot open";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::vector<Finding> file_findings =
        lintContent(rel_path, buf.str(), only_rules);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
    return true;
}

bool
collectSources(const std::string &root,
               const std::vector<std::string> &paths,
               std::vector<std::string> &rel_out, std::string &err)
{
    namespace fs = std::filesystem;
    auto lintable = [](const fs::path &p) {
        const std::string ext = p.extension().string();
        return ext == ".hh" || ext == ".h" || ext == ".hpp" ||
               ext == ".cc" || ext == ".cpp" || ext == ".cxx";
    };
    const fs::path rootp(root);
    for (const std::string &p : paths) {
        const fs::path full = rootp / p;
        std::error_code ec;
        if (fs::is_regular_file(full, ec)) {
            rel_out.push_back(p);
        } else if (fs::is_directory(full, ec)) {
            for (auto it = fs::recursive_directory_iterator(full, ec);
                 it != fs::recursive_directory_iterator();
                 it.increment(ec)) {
                const std::string name = it->path().filename().string();
                if (it->is_directory() &&
                    (startsWith(name, "build") || startsWith(name, "."))) {
                    it.disable_recursion_pending();
                    continue;
                }
                if (it->is_regular_file() && lintable(it->path()))
                    rel_out.push_back(
                        fs::relative(it->path(), rootp).generic_string());
            }
        } else {
            err = p + ": no such file or directory under " + root;
            return false;
        }
    }
    std::sort(rel_out.begin(), rel_out.end());
    rel_out.erase(std::unique(rel_out.begin(), rel_out.end()),
                  rel_out.end());
    return true;
}

std::string
renderText(const std::vector<Finding> &findings)
{
    std::ostringstream out;
    for (const Finding &f : findings)
        out << f.file << ":" << f.line << ": [" << f.rule << "] "
            << f.message << "\n";
    return out.str();
}

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
renderJson(const std::vector<Finding> &findings, size_t files_scanned)
{
    std::ostringstream out;
    out << "{\n  \"tool\": \"leaftl_lint\",\n  \"version\": 1,\n"
        << "  \"files_scanned\": " << files_scanned << ",\n"
        << "  \"count\": " << findings.size() << ",\n"
        << "  \"findings\": [";
    for (size_t i = 0; i < findings.size(); i++) {
        const Finding &f = findings[i];
        out << (i ? "," : "") << "\n    {\"file\": \"" << jsonEscape(f.file)
            << "\", \"line\": " << f.line << ", \"rule\": \""
            << jsonEscape(f.rule) << "\", \"message\": \""
            << jsonEscape(f.message) << "\"}";
    }
    out << (findings.empty() ? "" : "\n  ") << "]\n}\n";
    return out.str();
}

} // namespace lint
} // namespace leaftl
