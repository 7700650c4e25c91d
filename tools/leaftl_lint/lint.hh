/**
 * @file
 * leaftl_lint: an in-repo static-analysis pass that machine-checks
 * the project's determinism and concurrency disciplines.
 *
 * The repo's headline guarantee -- byte-identical sweep CSVs across
 * --jobs values and config layouts -- is an invariant of the
 * *source*, not of any one test run: a single stray wall-clock read,
 * unseeded random draw or unordered-map iteration in a serializer
 * silently breaks reproducibility. This pass tokenizes every source
 * file (comments and literal contents stripped, so prose never
 * triggers rules) and enforces the invariants as named rules, in the
 * src/config diagnostic idiom:
 * every finding is "origin:line: ..." located, and intentional
 * exceptions are suppressed in place with
 *
 *     // leaftl-lint: allow(<rule>[,<rule>...])   (this + next line)
 *     // leaftl-lint: allow-file(<rule>)          (whole file)
 *
 * and should carry a reason in the surrounding comment. The rule
 * catalog (name, category, rationale) is ruleCatalog(); the README
 * "Correctness tooling" section documents each rule.
 */

#pragma once

#include <string>
#include <vector>

namespace leaftl
{
namespace lint
{

/** One rule violation, located like a compiler diagnostic. */
struct Finding
{
    std::string file; ///< Repo-relative path (forward slashes).
    int line = 0;     ///< 1-based.
    std::string rule;
    std::string message;
};

/** Catalog entry for one named rule. */
struct RuleInfo
{
    std::string name;        ///< Suppression token, e.g. "wall-clock".
    std::string category;    ///< determinism | concurrency | hygiene.
    std::string description; ///< One-line rationale.
};

/** Every rule the pass knows, in stable (report) order. */
const std::vector<RuleInfo> &ruleCatalog();

/**
 * Lint one file's content. @a path is the repo-relative path with
 * forward slashes; rules decide applicability from it (e.g. the
 * wall-clock rule exempts src/util/host_clock.hh). Findings come
 * back sorted by line. @a only_rules, when non-empty, restricts the
 * run to those rule names.
 */
std::vector<Finding>
lintContent(const std::string &path, const std::string &content,
            const std::vector<std::string> &only_rules = {});

/**
 * Read and lint @a root / @a rel_path.
 * @return false with a message in @a err when the file is unreadable
 *         (findings are then untouched).
 */
bool lintFile(const std::string &root, const std::string &rel_path,
              std::vector<Finding> &findings, std::string &err,
              const std::vector<std::string> &only_rules = {});

/**
 * Expand @a paths (files or directories, relative to @a root) into
 * the sorted list of lintable sources (.h/.hh/.cc/.cpp/.cxx),
 * recursing into directories. Paths under build trees ("build*") are
 * skipped. @return false with a message in @a err on a nonexistent
 * path.
 */
bool collectSources(const std::string &root,
                    const std::vector<std::string> &paths,
                    std::vector<std::string> &rel_out, std::string &err);

/** "file:line: [rule] message" lines, one per finding. */
std::string renderText(const std::vector<Finding> &findings);

/** Stable JSON report (schema asserted by tests/test_lint.cc). */
std::string renderJson(const std::vector<Finding> &findings,
                       size_t files_scanned);

} // namespace lint
} // namespace leaftl
