/**
 * Unit tests for the project linter (src/lint). Each rule is
 * exercised positively (fixture violations are reported at the right
 * lines) and negatively (suppression comments, exempt paths, and
 * near-miss tokens stay silent). The fixtures live in
 * tests/fixtures/lint with non-.cpp extensions so the tree-level lint
 * run never scans them.
 */
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lint.h"

#include "scratch_dir.h"

namespace {

using paqoc::lint::Finding;
using paqoc::lint::lintFile;
using paqoc::lint::lintTree;

std::string
fixture(const std::string &name)
{
    const std::string path = std::string(LINT_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<int>
linesOf(const std::vector<Finding> &findings, const std::string &rule)
{
    std::vector<int> lines;
    for (const Finding &f : findings)
        if (f.rule == rule)
            lines.push_back(f.line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

TEST(Lint, RuleCatalogueHasThirteenStableRules)
{
    const std::vector<std::string> names = paqoc::lint::ruleNames();
    EXPECT_EQ(paqoc::lint::ruleCount(), 13);
    const std::vector<std::string> expected = {
        "determinism-taint",      "float-numerics",
        "header-guard",           "lock-order-cycle",
        "matrix-product-in-loop", "naked-mutex",
        "printf-output",          "process-control",
        "raw-io",                 "unguarded-checked-io",
        "unordered-iteration",    "unseeded-random",
        "untested-failpoint"};
    EXPECT_EQ(names, expected);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    for (const std::string &name : names)
        EXPECT_FALSE(paqoc::lint::ruleDescription(name).empty())
            << name;
}

TEST(Lint, MatrixProductInLoopFlaggedInHotPathsOnly)
{
    const auto f = lintFile("src/qoc/fixture.cpp",
                            fixture("bad_matrix_loop.cc"));
    EXPECT_EQ(linesOf(f, "matrix-product-in-loop"),
              (std::vector<int>{12, 14, 18}));

    const auto sim = lintFile("src/sim/fixture.cpp",
                              fixture("bad_matrix_loop.cc"));
    EXPECT_EQ(linesOf(sim, "matrix-product-in-loop"),
              (std::vector<int>{12, 14, 18}));

    // Cold layers (and non-library code) may trade allocations for
    // clarity; the rule only polices the QOC/simulator hot paths.
    const auto cold = lintFile("src/circuit/fixture.cpp",
                               fixture("bad_matrix_loop.cc"));
    EXPECT_TRUE(linesOf(cold, "matrix-product-in-loop").empty());
    const auto bench = lintFile("bench/fixture.cpp",
                                fixture("bad_matrix_loop.cc"));
    EXPECT_TRUE(linesOf(bench, "matrix-product-in-loop").empty());
}

TEST(Lint, MatrixProductIgnoresElementAccessAndScalars)
{
    const std::string content =
        "#include \"linalg/matrix.h\"\n"
        "double f(const paqoc::Matrix &u, const double *in, int n)\n"
        "{\n"
        "    double acc = 0.0;\n"
        "    for (int c = 0; c < n; ++c)\n"
        "        acc += u(0, c).real() * in[c];\n"
        "    for (int c = 0; c < n; ++c)\n"
        "        acc += 2.0 * acc;\n"
        "    return acc;\n"
        "}\n";
    const auto f = lintFile("src/sim/fixture.cpp", content);
    EXPECT_TRUE(linesOf(f, "matrix-product-in-loop").empty());
}

TEST(Lint, UnseededRandomFlaggedAndSuppressed)
{
    const auto f =
        lintFile("src/qoc/fixture.cpp", fixture("bad_random.cc"));
    EXPECT_EQ(linesOf(f, "unseeded-random"),
              (std::vector<int>{8, 9, 10}));
}

TEST(Lint, UnseededRandomExemptInRngHeader)
{
    const auto f =
        lintFile("src/common/rng.h", "static int x = rand();\n");
    EXPECT_TRUE(linesOf(f, "unseeded-random").empty());
}

TEST(Lint, UnorderedIterationFlaggedOrderedAndSuppressedSilent)
{
    const auto f =
        lintFile("src/service/fixture.cpp", fixture("bad_unordered.cc"));
    EXPECT_EQ(linesOf(f, "unordered-iteration"),
              (std::vector<int>{13, 17}));
}

TEST(Lint, UnorderedIterationNeedsAnOutputProducingFile)
{
    // Same shape, but nothing in the file suggests serialized output:
    // hash-order iteration is a local concern there, not a wire one.
    const std::string content = "#include <unordered_map>\n"
                                "int count(std::unordered_map<int,int> "
                                "m) {\n"
                                "    int n = 0;\n"
                                "    for (const auto &kv : m)\n"
                                "        n += kv.second;\n"
                                "    return n;\n"
                                "}\n";
    const auto f = lintFile("src/circuit/fixture.cpp", content);
    EXPECT_TRUE(linesOf(f, "unordered-iteration").empty());
}

TEST(Lint, NakedMutexFlaggedAndSuppressed)
{
    const auto f =
        lintFile("src/common/fixture.cpp", fixture("bad_mutex.cc"));
    EXPECT_EQ(linesOf(f, "naked-mutex"), (std::vector<int>{7, 8}));
}

TEST(Lint, NakedMutexExemptInWrapperHeader)
{
    const auto f = lintFile("src/common/thread_annotations.h",
                            "std::mutex raw_;\n");
    EXPECT_TRUE(linesOf(f, "naked-mutex").empty());
}

TEST(Lint, PrintfFlaggedInLibrarySuppressedAndAllowedInTools)
{
    const auto lib =
        lintFile("src/qoc/fixture.cpp", fixture("bad_printf.cc"));
    EXPECT_EQ(linesOf(lib, "printf-output"), (std::vector<int>{7, 8}));

    // The same content is fine outside src/: tools own their streams.
    const auto tool =
        lintFile("tools/fixture.cpp", fixture("bad_printf.cc"));
    EXPECT_TRUE(linesOf(tool, "printf-output").empty());
}

TEST(Lint, HeaderGuardMismatchNamesTheCanonicalGuard)
{
    const auto f =
        lintFile("src/qoc/bad_guard.h", fixture("bad_guard.hh"));
    const auto lines = linesOf(f, "header-guard");
    ASSERT_EQ(lines.size(), 1u);
    bool mentioned = false;
    for (const Finding &x : f)
        if (x.rule == "header-guard"
            && x.message.find("PAQOC_QOC_BAD_GUARD_H_")
                != std::string::npos)
            mentioned = true;
    EXPECT_TRUE(mentioned);
}

TEST(Lint, HeaderGuardAcceptsCanonicalAndPragmaOnce)
{
    const std::string good = "#ifndef PAQOC_QOC_GOOD_H_\n"
                             "#define PAQOC_QOC_GOOD_H_\n"
                             "#endif\n";
    EXPECT_TRUE(
        linesOf(lintFile("src/qoc/good.h", good), "header-guard")
            .empty());
    EXPECT_TRUE(linesOf(lintFile("src/qoc/good.h", "#pragma once\n"),
                        "header-guard")
                    .empty());
    // bench/ keeps its directory in the guard.
    const std::string bench = "#ifndef PAQOC_BENCH_HARNESS_H_\n"
                              "#define PAQOC_BENCH_HARNESS_H_\n"
                              "#endif\n";
    EXPECT_TRUE(
        linesOf(lintFile("bench/harness.h", bench), "header-guard")
            .empty());
}

TEST(Lint, HeaderGuardMismatchedDefineIsFlagged)
{
    const std::string bad = "#ifndef PAQOC_QOC_GOOD_H_\n"
                            "#define PAQOC_QOC_TYPO_H_\n"
                            "#endif\n";
    EXPECT_EQ(
        linesOf(lintFile("src/qoc/good.h", bad), "header-guard").size(),
        1u);
}

TEST(Lint, FloatFlaggedInNumericsOnly)
{
    const auto f =
        lintFile("src/qoc/fixture.cpp", fixture("bad_float.cc"));
    EXPECT_EQ(linesOf(f, "float-numerics"), (std::vector<int>{6}));

    // Non-numeric subsystems may use float (e.g. for UI/throughput).
    const auto other =
        lintFile("src/circuit/fixture.cpp", fixture("bad_float.cc"));
    EXPECT_TRUE(linesOf(other, "float-numerics").empty());
}

TEST(Lint, RawIoFlagsTheWholeSyscallFamily)
{
    // write/send plus the spellings that bypassed the old rule:
    // pwrite, writev, sendmsg, sendto -- each proven by its own
    // fixture line.
    const auto store =
        lintFile("src/store/fixture.cpp", fixture("bad_rawio.cc"));
    EXPECT_EQ(linesOf(store, "raw-io"),
              (std::vector<int>{9, 10, 11, 13, 15, 16}));

    const auto service =
        lintFile("src/service/fixture.cpp", fixture("bad_rawio.cc"));
    EXPECT_EQ(linesOf(service, "raw-io"),
              (std::vector<int>{9, 10, 11, 13, 15, 16}));

    // Other layers are exempt -- the wrappers themselves (in
    // src/common) must make the real syscalls somewhere.
    const auto common =
        lintFile("src/common/failpoint.cpp", fixture("bad_rawio.cc"));
    EXPECT_TRUE(linesOf(common, "raw-io").empty());
    const auto tool =
        lintFile("tools/fixture.cpp", fixture("bad_rawio.cc"));
    EXPECT_TRUE(linesOf(tool, "raw-io").empty());
}

TEST(Lint, RawIoAllowlistsTheFdPassingShim)
{
    // SCM_RIGHTS handoffs have no checked* spelling; the allowlist
    // lives in the rule (not in a source comment), scoped to exactly
    // this one file. Any other fleet file still gets flagged.
    const auto shim =
        lintFile("src/fleet/fdpass.cpp", fixture("bad_rawio.cc"));
    EXPECT_TRUE(linesOf(shim, "raw-io").empty());
    // ...and it is exactly that path, not the fleet layer at large or
    // the fdpass.cpp basename elsewhere.
    const auto fleet =
        lintFile("src/fleet/router.cpp", fixture("bad_rawio.cc"));
    EXPECT_FALSE(linesOf(fleet, "raw-io").empty());
    const auto store =
        lintFile("src/store/fdpass.cpp", fixture("bad_rawio.cc"));
    EXPECT_FALSE(linesOf(store, "raw-io").empty());
}

TEST(Lint, ProcessControlFlaggedEverywhereButTheSupervisor)
{
    // The rule is tree-wide: library, tool, and test code all have to
    // delegate child-process lifetime to runSupervised.
    const auto lib =
        lintFile("src/service/fixture.cpp", fixture("bad_process.cc"));
    EXPECT_EQ(linesOf(lib, "process-control"),
              (std::vector<int>{10, 11, 12, 13}));
    const auto tool =
        lintFile("tools/fixture.cpp", fixture("bad_process.cc"));
    EXPECT_EQ(linesOf(tool, "process-control"),
              (std::vector<int>{10, 11, 12, 13}));

    // The supervisor itself (header and implementation) is the one
    // audited home for these syscalls.
    const auto sup_cpp = lintFile("src/service/supervisor.cpp",
                                  fixture("bad_process.cc"));
    EXPECT_TRUE(linesOf(sup_cpp, "process-control").empty());
    const auto sup_h = lintFile("src/service/supervisor.h",
                                fixture("bad_process.cc"));
    EXPECT_TRUE(linesOf(sup_h, "process-control").empty());
}

TEST(Lint, StringAndCommentTokensNeverTrip)
{
    const std::string content =
        "// std::mutex rand() float unordered_map in a comment\n"
        "const char *s = \"std::mutex rand() float\";\n"
        "const char *r = R\"(std::lock_guard rand())\";\n";
    const auto f = lintFile("src/qoc/fixture.cpp", content);
    EXPECT_TRUE(f.empty());
}

TEST(Lint, TreeWalkUsesCompanionHeaderDeclsAndSortsFindings)
{
    namespace fs = std::filesystem;
    const fs::path root = paqoc::test_support::scratchDir("lint_tree");
    fs::create_directories(root / "src/demo");
    {
        std::ofstream h(root / "src/demo/thing.h");
        h << "#ifndef PAQOC_DEMO_THING_H_\n"
             "#define PAQOC_DEMO_THING_H_\n"
             "#include <unordered_map>\n"
             "struct Thing {\n"
             "    std::unordered_map<int, int> table_;\n"
             "};\n"
             "#endif\n";
        std::ofstream c(root / "src/demo/thing.cpp");
        // `struct Json;` marks the file as output-producing for the
        // unordered-iteration rule (include paths are string literals
        // and get stripped before the heuristic runs).
        c << "#include \"demo/thing.h\"\n"
             "struct Json;\n"
             "void emit(const Thing &t, Json *) {\n"
             "    for (const auto &kv : t.table_)\n"
             "        (void)kv;\n"
             "}\n";
        // Ignored: wrong extension.
        std::ofstream x(root / "src/demo/notes.txt");
        x << "for (auto &kv : table_)\n";
    }
    const auto findings = lintTree(root.string(), {"src"});
    EXPECT_EQ(linesOf(findings, "unordered-iteration"),
              (std::vector<int>{4}));
    for (const Finding &f : findings)
        EXPECT_EQ(f.file, "src/demo/thing.cpp") << f.rule;
    EXPECT_TRUE(std::is_sorted(
        findings.begin(), findings.end(),
        [](const Finding &a, const Finding &b) {
            return std::tie(a.file, a.line) < std::tie(b.file, b.line);
        }));
    fs::remove_all(root);
}

TEST(Lint, JsonReportIsMachineReadable)
{
    std::vector<Finding> findings = {
        {"naked-mutex", "src/a.cpp", 3, "raw mutex"}};
    const std::string report =
        paqoc::lint::findingsToJson(findings).dump();
    EXPECT_NE(report.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(report.find("\"rule\":\"naked-mutex\""),
              std::string::npos);
    EXPECT_NE(report.find("\"line\":3"), std::string::npos);

    const std::string clean =
        paqoc::lint::findingsToJson({}).dump();
    EXPECT_NE(clean.find("\"ok\":true"), std::string::npos);
    EXPECT_NE(clean.find("\"checked_rules\":13"), std::string::npos);
}

TEST(Lint, RealTreeIsClean)
{
    // The repository itself must lint clean (also registered as the
    // ctest-level paqoc_lint run; this keeps the guarantee inside the
    // unit suite where a debugger is close at hand).
    const auto findings =
        lintTree(PAQOC_SOURCE_DIR, {"src", "tools", "tests", "bench"});
    for (const Finding &f : findings)
        ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule
                      << "] " << f.message;
}

} // namespace
