/**
 * @file
 * The lint engine's own suite: every rule is pinned by at least one
 * positive (failing) and one negative fixture, plus scanner edge
 * cases (comments, string literals, raw strings, digit separators),
 * suppression-comment handling, rule filtering, and the JSON report
 * schema the CI artifact consumers rely on.
 */

#include "leaftl_lint/lint.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using leaftl::lint::Finding;
using leaftl::lint::lintContent;
using leaftl::lint::renderJson;
using leaftl::lint::renderText;
using leaftl::lint::ruleCatalog;
using leaftl::lint::RuleInfo;

namespace
{

/** Rule names hit when linting @a src as file @a path. */
std::vector<std::string>
rulesHit(const std::string &path, const std::string &src)
{
    std::vector<std::string> names;
    for (const Finding &f : lintContent(path, src))
        names.push_back(f.rule);
    return names;
}

bool
hits(const std::string &path, const std::string &src,
     const std::string &rule)
{
    const auto names = rulesHit(path, src);
    return std::find(names.begin(), names.end(), rule) != names.end();
}

} // namespace

// ----------------------------------------------------------- catalog

TEST(LintCatalog, AtLeastTenDistinctRules)
{
    const auto &catalog = ruleCatalog();
    EXPECT_GE(catalog.size(), 10u);
    std::vector<std::string> names;
    for (const RuleInfo &r : catalog) {
        names.push_back(r.name);
        EXPECT_TRUE(r.category == "determinism" ||
                    r.category == "concurrency" ||
                    r.category == "hygiene" || r.category == "perf")
            << r.name << " has category " << r.category;
        EXPECT_FALSE(r.description.empty()) << r.name;
    }
    std::sort(names.begin(), names.end());
    EXPECT_TRUE(std::unique(names.begin(), names.end()) == names.end())
        << "duplicate rule names";
}

// -------------------------------------------------------- wall-clock

TEST(LintWallClock, FlagsChronoInclude)
{
    EXPECT_TRUE(hits("src/sim/foo.cc", "#include <chrono>\n", "wall-clock"));
}

TEST(LintWallClock, FlagsTimeCall)
{
    EXPECT_TRUE(hits("src/workload/foo.cc",
                     "uint64_t t = time(nullptr);\n", "wall-clock"));
    EXPECT_TRUE(hits("bench/foo.cc",
                     "auto now = std::chrono::steady_clock::now();\n",
                     "wall-clock"));
}

TEST(LintWallClock, HostClockHeaderIsExempt)
{
    EXPECT_FALSE(hits("src/util/host_clock.hh",
                      "#include <chrono>\nauto t = "
                      "std::chrono::steady_clock::now();\n",
                      "wall-clock"));
}

TEST(LintWallClock, IgnoresCommentsAndSubstrings)
{
    EXPECT_FALSE(hits("src/sim/foo.cc",
                      "// std::chrono is banned here\n"
                      "uint64_t sim_time_ns = 5; // not a time() call\n",
                      "wall-clock"));
    // Identifier containing "time" is not the libc call.
    EXPECT_FALSE(
        hits("src/sim/foo.cc", "peek_time(queue);\n", "wall-clock"));
    // tests/ and tools/ measure the harness itself; out of scope.
    EXPECT_FALSE(
        hits("tests/test_foo.cc", "#include <chrono>\n", "wall-clock"));
}

// ----------------------------------------------------------- raw-rng

TEST(LintRawRng, FlagsRandAndRandomDevice)
{
    EXPECT_TRUE(
        hits("src/workload/foo.cc", "int x = rand();\n", "raw-rng"));
    EXPECT_TRUE(hits("src/workload/foo.cc", "std::random_device rd;\n",
                     "raw-rng"));
    EXPECT_TRUE(
        hits("examples/demo.cpp", "std::mt19937 gen(42);\n", "raw-rng"));
}

TEST(LintRawRng, RngImplementationAndMethodNamesAreExempt)
{
    EXPECT_FALSE(hits("src/util/rng.cc", "int x = rand();\n", "raw-rng"));
    // randomLpa is one identifier, not the libc call.
    EXPECT_FALSE(
        hits("src/workload/foo.cc", "Lpa l = randomLpa();\n", "raw-rng"));
}

TEST(LintRawRng, DigitSeparatorsDoNotHideCode)
{
    // A naive char-literal scanner would treat 1'000'000 as opening a
    // literal and blank the rand() call behind it.
    EXPECT_TRUE(hits("src/workload/foo.cc",
                     "int big = 1'000'000; int x = rand();\n", "raw-rng"));
}

TEST(LintRawRng, StringAndCommentMentionsAreClean)
{
    EXPECT_FALSE(hits("src/workload/foo.cc",
                      "const char *s = \"rand()\"; // rand() banned\n",
                      "raw-rng"));
    EXPECT_FALSE(hits("src/workload/foo.cc",
                      "const char *r = R\"(std::random_device)\";\n",
                      "raw-rng"));
}

// ----------------------------------------- unordered-serialize

TEST(LintUnorderedSerialize, FlagsHashIterationInSerialize)
{
    const std::string src = "std::unordered_map<int, int> m_;\n"
                            "std::vector<uint8_t>\n"
                            "serialize()\n"
                            "{\n"
                            "    std::vector<uint8_t> out;\n"
                            "    for (auto &kv : m_) {\n"
                            "        out.push_back(kv.second);\n"
                            "    }\n"
                            "    return out;\n"
                            "}\n";
    const auto findings = lintContent("src/ftl/foo.cc", src);
    ASSERT_EQ(1u, findings.size());
    EXPECT_EQ("unordered-serialize", findings[0].rule);
    EXPECT_EQ(6, findings[0].line);
}

TEST(LintUnorderedSerialize, FlagsCsvAndFingerprintEmitters)
{
    const std::string csv = "std::unordered_set<uint32_t> seen_;\n"
                            "void writeCsvRow()\n"
                            "{\n"
                            "    for (uint32_t v : seen_)\n"
                            "        emit(v);\n"
                            "}\n";
    EXPECT_TRUE(hits("src/cli/foo.cc", csv, "unordered-serialize"));
}

TEST(LintUnorderedSerialize, OrderedContainersAndOtherFunctionsClean)
{
    const std::string ordered = "std::map<int, int> m_;\n"
                                "void serialize()\n"
                                "{\n"
                                "    for (auto &kv : m_)\n"
                                "        emit(kv);\n"
                                "}\n";
    EXPECT_FALSE(hits("src/ftl/foo.cc", ordered, "unordered-serialize"));
    const std::string lookup = "std::unordered_map<int, int> m_;\n"
                               "void rebuildIndex()\n"
                               "{\n"
                               "    for (auto &kv : m_)\n"
                               "        touch(kv);\n"
                               "}\n";
    EXPECT_FALSE(hits("src/ftl/foo.cc", lookup, "unordered-serialize"));
}

TEST(LintUnorderedSerialize, NestedBlocksStayAttributed)
{
    // The for sits inside an if inside serialize(); the condition's
    // call must not shadow the enclosing function name.
    const std::string src = "std::unordered_map<int, int> m_;\n"
                            "void serialize()\n"
                            "{\n"
                            "    if (shouldEmit(m_)) {\n"
                            "        for (auto &kv : m_)\n"
                            "            emit(kv);\n"
                            "    }\n"
                            "}\n";
    EXPECT_TRUE(hits("src/ftl/foo.cc", src, "unordered-serialize"));
}

// ------------------------------------------------------ float-format

TEST(LintFloatFormat, FlagsBareFloatConversion)
{
    EXPECT_TRUE(hits("src/cli/foo.cc",
                     "std::snprintf(buf, sizeof(buf), \"%f\", v);\n",
                     "float-format"));
    EXPECT_TRUE(hits("src/sim/foo.cc",
                     "std::printf(\"rate %-8g iops\\n\", rate);\n",
                     "float-format"));
}

TEST(LintFloatFormat, PinnedPrecisionAndNonFloatsClean)
{
    EXPECT_FALSE(hits("src/cli/foo.cc",
                      "std::snprintf(buf, sizeof(buf), \"%.4f\", v);\n",
                      "float-format"));
    EXPECT_FALSE(hits("src/cli/foo.cc",
                      "std::snprintf(buf, sizeof(buf), \"%10.2f %s\", v, "
                      "s);\n",
                      "float-format"));
    EXPECT_FALSE(hits("src/cli/foo.cc",
                      "std::snprintf(buf, sizeof(buf), \"%d %llu %%\", a, "
                      "b);\n",
                      "float-format"));
    // A %f literal with no printf-family call nearby (e.g. a usage
    // string) is not a format call.
    EXPECT_FALSE(hits("src/cli/foo.cc",
                      "usage += \"  --scale %f takes a float\\n\";\n",
                      "float-format"));
}

// ------------------------------------------------- parallel-mutation

TEST(LintParallelMutation, FlagsTableMutationInWorkerBody)
{
    const std::string src =
        "void process(ShardPool *pool, LearnedTable *table)\n"
        "{\n"
        "    pool->parallelFor(n, [&](size_t b, size_t e, uint32_t) {\n"
        "        for (size_t i = b; i < e; i++)\n"
        "            table->learn(runs[i]);\n"
        "    });\n"
        "}\n";
    const auto findings = lintContent("src/sim/runner.cc", src);
    ASSERT_EQ(1u, findings.size());
    EXPECT_EQ("parallel-mutation", findings[0].rule);
    EXPECT_EQ(5, findings[0].line);
}

TEST(LintParallelMutation, RawProbesAndSerialCodeClean)
{
    // Read-only accessors that advance no cache or statistics may run
    // in a worker body.
    const std::string reads =
        "pool->parallelFor(n, [&](size_t b, size_t e, uint32_t) {\n"
        "    for (size_t i = b; i < e; i++)\n"
        "        bytes[i] = table->groupBytes(groups[i]);\n"
        "});\n";
    EXPECT_FALSE(hits("src/sim/runner.cc", reads, "parallel-mutation"));
    // The same mutation outside any parallelFor window is the normal
    // serial path.
    EXPECT_FALSE(hits("src/sim/runner.cc", "table->learn(run);\n",
                      "parallel-mutation"));
    // learned_table.cc owns the disjoint per-group fan-out.
    const std::string fanout =
        "pool_->parallelFor(n, [&](size_t b, size_t e, uint32_t w) {\n"
        "    groups[b]->compact(scratch);\n"
        "});\n";
    EXPECT_FALSE(hits("src/learned/learned_table.cc", fanout,
                      "parallel-mutation"));
}

// -------------------------------------------- hot-path-std-function

TEST(LintHotPathStdFunction, FlagsStdFunctionInHotHeaders)
{
    EXPECT_TRUE(hits("src/learned/foo.hh", "std::function<void()> cb_;\n",
                     "hot-path-std-function"));
    EXPECT_TRUE(hits("src/sim/shard_runner.hh", "#include <functional>\n",
                     "hot-path-std-function"));
}

TEST(LintHotPathStdFunction, ColdHeadersAndSourcesClean)
{
    EXPECT_FALSE(hits("src/sim/metrics.hh", "std::function<void()> cb_;\n",
                      "hot-path-std-function"));
    EXPECT_FALSE(hits("src/learned/plr.cc", "std::function<void()> cb;\n",
                      "hot-path-std-function"));
}

// ------------------------------------------------------- pragma-once

TEST(LintPragmaOnce, FlagsHeaderWithoutPragma)
{
    const auto findings =
        lintContent("src/util/foo.hh", "int answer();\n");
    ASSERT_EQ(1u, findings.size());
    EXPECT_EQ("pragma-once", findings[0].rule);
    EXPECT_EQ(1, findings[0].line);
}

TEST(LintPragmaOnce, PragmaAndNonHeadersClean)
{
    EXPECT_FALSE(hits("src/util/foo.hh", "#pragma once\nint answer();\n",
                      "pragma-once"));
    EXPECT_FALSE(hits("src/util/foo.cc", "int answer() { return 42; }\n",
                      "pragma-once"));
}

// -------------------------------------------- using-namespace-header

TEST(LintUsingNamespace, FlagsUsingNamespaceInHeader)
{
    EXPECT_TRUE(hits("src/util/foo.hh",
                     "#pragma once\nusing namespace std;\n",
                     "using-namespace-header"));
}

TEST(LintUsingNamespace, DeclarationsAndSourcesClean)
{
    EXPECT_FALSE(hits("src/util/foo.hh",
                      "#pragma once\nusing std::vector;\n",
                      "using-namespace-header"));
    EXPECT_FALSE(hits("src/util/foo.cc", "using namespace std;\n",
                      "using-namespace-header"));
}

// ----------------------------------------------------- iostream-core

TEST(LintIostreamCore, FlagsIostreamInCore)
{
    EXPECT_TRUE(hits("src/learned/debug.cc", "#include <iostream>\n",
                     "iostream-core"));
    EXPECT_TRUE(hits("src/flash/foo.cc", "#include <iostream>\n",
                     "iostream-core"));
}

TEST(LintIostreamCore, ReportingLayersMayStream)
{
    EXPECT_FALSE(hits("src/sim/reporter.cc", "#include <iostream>\n",
                      "iostream-core"));
    EXPECT_FALSE(hits("src/learned/plr.cc", "#include <ostream>\n",
                      "iostream-core"));
}

// ---------------------------------------- hot-path-node-containers

TEST(LintNodeContainers, FlagsNodeContainersInDeviceAndLearned)
{
    EXPECT_TRUE(hits("src/ssd/foo.hh",
                     "#pragma once\nstd::list<Lpa> lru_;\n",
                     "hot-path-node-containers"));
    EXPECT_TRUE(hits("src/ssd/foo.cc",
                     "std::unordered_map<Lpa, int> map_;\n",
                     "hot-path-node-containers"));
    EXPECT_TRUE(hits("src/learned/foo.hh",
                     "#pragma once\nstd::map<SegId, Run> runs_;\n",
                     "hot-path-node-containers"));
    EXPECT_TRUE(hits("src/learned/foo.cc",
                     "std::unordered_multiset<uint32_t> s;\n",
                     "hot-path-node-containers"));
}

TEST(LintNodeContainers, FlatAndOutOfScopeContainersClean)
{
    // Flat/contiguous containers are the point of the rule.
    EXPECT_FALSE(hits("src/ssd/foo.hh",
                      "#pragma once\nstd::vector<Lpa> v_;\nstd::deque<uint32_t> q_;\n",
                      "hot-path-node-containers"));
    // A bare identifier (member named `map`, comment text) is not a
    // declaration of the std type.
    EXPECT_FALSE(hits("src/ssd/foo.cc", "auto x = group.map(fn);\n",
                      "hot-path-node-containers"));
    // Other layers (FTL baselines, CLIs, bench references) may keep
    // node containers.
    EXPECT_FALSE(hits("src/ftl/dftl.hh",
                      "#pragma once\nstd::list<Lpa> lru_;\n",
                      "hot-path-node-containers"));
    EXPECT_FALSE(hits("bench/device_reference.hh",
                      "#pragma once\nstd::list<Lpa> lru_;\n",
                      "hot-path-node-containers"));
}

TEST(LintNodeContainers, InlineAllowSuppresses)
{
    EXPECT_FALSE(hits("src/ssd/foo.hh",
                      "#pragma once\n"
                      "// leaftl-lint: allow(hot-path-node-containers)\n"
                      "std::list<Lpa> cold_;\n",
                      "hot-path-node-containers"));
}

// ----------------------------------------------- assert-side-effect

TEST(LintAssertSideEffect, FlagsMutationsInAsserts)
{
    EXPECT_TRUE(hits("src/ssd/foo.cc", "assert(x++ > 0);\n",
                     "assert-side-effect"));
    EXPECT_TRUE(hits("src/ssd/foo.cc", "LEAFTL_ASSERT(n = 5, \"oops\");\n",
                     "assert-side-effect"));
    EXPECT_TRUE(hits("src/ssd/foo.cc", "assert(total += delta);\n",
                     "assert-side-effect"));
}

TEST(LintAssertSideEffect, ComparisonsClean)
{
    EXPECT_FALSE(hits("src/ssd/foo.cc",
                      "LEAFTL_ASSERT(n == 5, \"n must be 5\");\n",
                      "assert-side-effect"));
    EXPECT_FALSE(hits("src/ssd/foo.cc", "assert(a >= b && b != c);\n",
                      "assert-side-effect"));
}

// ------------------------------------------------------ suppressions

TEST(LintSuppression, SameLineAllow)
{
    EXPECT_FALSE(hits("src/workload/foo.cc",
                      "int x = rand(); // leaftl-lint: allow(raw-rng)\n",
                      "raw-rng"));
}

TEST(LintSuppression, PrecedingLineAllow)
{
    EXPECT_FALSE(hits("src/workload/foo.cc",
                      "// intentional: host entropy for the demo\n"
                      "// leaftl-lint: allow(raw-rng)\n"
                      "int x = rand();\n",
                      "raw-rng"));
}

TEST(LintSuppression, WrongRuleNameDoesNotSuppress)
{
    EXPECT_TRUE(hits("src/workload/foo.cc",
                     "int x = rand(); // leaftl-lint: allow(wall-clock)\n",
                     "raw-rng"));
}

TEST(LintSuppression, AllowListAndAllowFile)
{
    EXPECT_FALSE(hits("src/workload/foo.cc",
                      "int x = rand(); "
                      "// leaftl-lint: allow(wall-clock, raw-rng)\n",
                      "raw-rng"));
    EXPECT_FALSE(hits("src/workload/foo.cc",
                      "// leaftl-lint: allow-file(raw-rng)\n"
                      "int a;\n"
                      "int x = rand();\n"
                      "int y = rand();\n",
                      "raw-rng"));
}

TEST(LintSuppression, AllowDoesNotLeakPastNextLine)
{
    EXPECT_TRUE(hits("src/workload/foo.cc",
                     "// leaftl-lint: allow(raw-rng)\n"
                     "int a;\n"
                     "int x = rand();\n",
                     "raw-rng"));
}

// ------------------------------------------------------ rule filter

TEST(LintFilter, OnlyRulesRestrictsTheRun)
{
    const std::string src = "#include <chrono>\nint x = rand();\n";
    const auto all = lintContent("src/sim/foo.cc", src);
    EXPECT_EQ(2u, all.size());
    const auto only =
        lintContent("src/sim/foo.cc", src, {"raw-rng"});
    ASSERT_EQ(1u, only.size());
    EXPECT_EQ("raw-rng", only[0].rule);
}

// ---------------------------------------------------------- reports

TEST(LintReport, TextFormatIsOriginLineLocated)
{
    const auto findings =
        lintContent("src/workload/foo.cc", "int a;\nint x = rand();\n");
    ASSERT_EQ(1u, findings.size());
    const std::string text = renderText(findings);
    EXPECT_NE(std::string::npos,
              text.find("src/workload/foo.cc:2: [raw-rng]"));
}

TEST(LintReport, JsonSchema)
{
    const auto findings =
        lintContent("src/workload/foo.cc", "int x = rand();\n");
    const std::string json = renderJson(findings, 3);
    EXPECT_NE(std::string::npos, json.find("\"tool\": \"leaftl_lint\""));
    EXPECT_NE(std::string::npos, json.find("\"version\": 1"));
    EXPECT_NE(std::string::npos, json.find("\"files_scanned\": 3"));
    EXPECT_NE(std::string::npos, json.find("\"count\": 1"));
    EXPECT_NE(std::string::npos,
              json.find("\"file\": \"src/workload/foo.cc\""));
    EXPECT_NE(std::string::npos, json.find("\"line\": 1"));
    EXPECT_NE(std::string::npos, json.find("\"rule\": \"raw-rng\""));
}

TEST(LintReport, JsonEmptyFindingsIsCleanArray)
{
    const std::string json = renderJson({}, 7);
    EXPECT_NE(std::string::npos, json.find("\"count\": 0"));
    EXPECT_NE(std::string::npos, json.find("\"findings\": []"));
}

TEST(LintReport, JsonEscapesSpecials)
{
    std::vector<Finding> findings = {
        {"src/a\"b.cc", 1, "raw-rng", "says \"hi\"\tand\\more"}};
    const std::string json = renderJson(findings, 1);
    EXPECT_NE(std::string::npos, json.find("src/a\\\"b.cc"));
    EXPECT_NE(std::string::npos, json.find("\\\"hi\\\"\\tand\\\\more"));
}

// ------------------------------------------------- scanner edge cases

TEST(LintScanner, BlockCommentsSpanLines)
{
    EXPECT_FALSE(hits("src/sim/foo.cc",
                      "/* this block mentions\n"
                      "   std::chrono and time(nullptr)\n"
                      "   across lines */\n"
                      "int x;\n",
                      "wall-clock"));
}

TEST(LintScanner, RawStringsAreOpaque)
{
    EXPECT_FALSE(hits("src/sim/foo.cc",
                      "const char *fixture = R\"(\n"
                      "#include <chrono>\n"
                      "int x = rand();\n"
                      ")\";\n",
                      "wall-clock"));
}

TEST(LintScanner, CodeAfterStringLiteralStillScanned)
{
    EXPECT_TRUE(hits("src/sim/foo.cc",
                     "log(\"benign\"); int x = rand();\n", "raw-rng"));
}
