/**
 * Unit tests for the whole-program analyzer (src/lint: index, passes,
 * analyzer, sarif). Fixtures with non-.cpp extensions keep the
 * tree-level run from scanning them; synthetic indexes and temp trees
 * cover the graph algorithms and the incremental cache.
 */
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/analyzer.h"
#include "lint/index.h"
#include "lint/passes.h"
#include "lint/sarif.h"

#include "scratch_dir.h"

namespace {

using paqoc::lint::AnalyzeOptions;
using paqoc::lint::AnalyzeResult;
using paqoc::lint::FileIndex;
using paqoc::lint::Finding;
using paqoc::lint::FunctionInfo;
using paqoc::lint::LockEdge;
using paqoc::lint::ProgramIndex;

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

const FunctionInfo *
functionNamed(const FileIndex &idx, const std::string &name)
{
    for (const FunctionInfo &fn : idx.functions)
        if (fn.name == name)
            return &fn;
    return nullptr;
}

// ---- Per-file index ----

TEST(Index, MethodsLocksAndHeldCallsAreExtracted)
{
    const FileIndex idx = paqoc::lint::indexFile(
        "src/qoc/lock_cycle_a.cpp", fixture("lock_cycle_a.cc"), "");
    const FunctionInfo *grab = functionNamed(idx, "Alpha::grab");
    ASSERT_NE(grab, nullptr);
    EXPECT_EQ(grab->klass, "Alpha");
    ASSERT_EQ(grab->locks.size(), 1u);
    EXPECT_EQ(grab->locks[0].lockId, "Alpha::mutex_");
    // The Beta::fill call is made while Alpha::mutex_ is held.
    bool sawCall = false;
    for (const auto &cs : grab->calls)
        if (cs.callee == "fill" && cs.hint == "Beta") {
            sawCall = true;
            ASSERT_EQ(cs.heldLocks.size(), 1u);
            EXPECT_EQ(cs.heldLocks[0], "Alpha::mutex_");
        }
    EXPECT_TRUE(sawCall);
    EXPECT_NE(functionNamed(idx, "Alpha::refill"), nullptr);
}

TEST(Index, JsonRoundTripIsLossless)
{
    const FileIndex idx = paqoc::lint::indexFile(
        "src/service/fixture.cpp", fixture("bad_taint.cc"), "");
    const FileIndex back = FileIndex::fromJson(idx.toJson());
    EXPECT_EQ(idx.toJson().dump(), back.toJson().dump());
    EXPECT_EQ(back.path, idx.path);
    EXPECT_EQ(back.functions.size(), idx.functions.size());
}

TEST(Index, ShellArmingSpecsAreParsed)
{
    const auto armed = paqoc::lint::armedInShell(
        "#!/bin/sh\n"
        "PAQOC_FAILPOINTS=\"store.journal.write=return-error:1\" run\n"
        "echo not.a.spec\n");
    ASSERT_EQ(armed.size(), 1u);
    EXPECT_EQ(armed[0].name, "store.journal.write");
    EXPECT_EQ(armed[0].line, 2);
}

// ---- Lock-order graph ----

TEST(LockGraph, DirectNestingMakesAnEdge)
{
    const std::string content =
        "#include \"common/thread_annotations.h\"\n"
        "namespace paqoc {\n"
        "struct Pair { Mutex a_; Mutex b_; void both(); };\n"
        "void Pair::both() {\n"
        "    MutexLock la(a_);\n"
        "    MutexLock lb(b_);\n"
        "}\n"
        "} // namespace paqoc\n";
    ProgramIndex program;
    program.files.push_back(
        paqoc::lint::indexFile("src/common/pair.cpp", content, ""));
    const auto graph = paqoc::lint::buildLockOrderGraph(program);
    ASSERT_EQ(graph.size(), 1u);
    EXPECT_EQ(graph[0].from, "Pair::a_");
    EXPECT_EQ(graph[0].to, "Pair::b_");
    EXPECT_EQ(graph[0].via, ""); // direct, not through a call
    EXPECT_EQ(graph[0].line, 6);
    // One ordered nesting is not a cycle.
    EXPECT_TRUE(
        paqoc::lint::lockOrderCycles(program, graph).empty());
}

TEST(LockGraph, CrossFileCycleIsDetectedWithWitnessPath)
{
    ProgramIndex program;
    program.files.push_back(paqoc::lint::indexFile(
        "src/qoc/lock_cycle_a.cpp", fixture("lock_cycle_a.cc"), ""));
    program.files.push_back(paqoc::lint::indexFile(
        "src/qoc/lock_cycle_b.cpp", fixture("lock_cycle_b.cc"), ""));
    const auto graph = paqoc::lint::buildLockOrderGraph(program);

    bool ab = false, ba = false;
    for (const LockEdge &e : graph) {
        if (e.from == "Alpha::mutex_" && e.to == "Beta::mutex_") {
            ab = true;
            EXPECT_EQ(e.via, "Beta::fill");
            EXPECT_EQ(e.file, "src/qoc/lock_cycle_a.cpp");
        }
        if (e.from == "Beta::mutex_" && e.to == "Alpha::mutex_") {
            ba = true;
            EXPECT_EQ(e.via, "Alpha::refill");
            EXPECT_EQ(e.file, "src/qoc/lock_cycle_b.cpp");
        }
    }
    EXPECT_TRUE(ab);
    EXPECT_TRUE(ba);

    const auto cycles = paqoc::lint::lockOrderCycles(program, graph);
    ASSERT_EQ(cycles.size(), 1u);
    EXPECT_EQ(cycles[0].rule, "lock-order-cycle");
    EXPECT_NE(cycles[0].message.find("Alpha::mutex_"),
              std::string::npos);
    EXPECT_NE(cycles[0].message.find("Beta::mutex_"),
              std::string::npos);
}

TEST(LockGraph, AmbiguousCalleesContributeNothing)
{
    // `poke` is defined in two files; linking the caller to either
    // would fabricate an edge, so the resolver must refuse.
    const std::string amb =
        "#include \"common/thread_annotations.h\"\n"
        "namespace paqoc {\n"
        "namespace {\n"
        "Mutex gate;\n"
        "void poke() { MutexLock l(gate); }\n"
        "} // namespace\n"
        "} // namespace paqoc\n";
    const std::string caller =
        "#include \"common/thread_annotations.h\"\n"
        "namespace paqoc {\n"
        "struct Caller { Mutex mu_; void go(); };\n"
        "void Caller::go() {\n"
        "    MutexLock l(mu_);\n"
        "    poke();\n"
        "}\n"
        "} // namespace paqoc\n";
    ProgramIndex program;
    program.files.push_back(
        paqoc::lint::indexFile("src/qoc/amb1.cpp", amb, ""));
    program.files.push_back(
        paqoc::lint::indexFile("src/qoc/amb2.cpp", amb, ""));
    program.files.push_back(
        paqoc::lint::indexFile("src/qoc/caller.cpp", caller, ""));
    for (const LockEdge &e : paqoc::lint::buildLockOrderGraph(program))
        EXPECT_NE(e.from, "Caller::mu_") << e.to;
}

// ---- Failpoint coverage ----

TEST(FailpointCoverage, UntestedAndUnguardedAreReported)
{
    ProgramIndex program;
    program.files.push_back(paqoc::lint::indexFile(
        "src/store/fixture.cpp", fixture("bad_checked_io.cc"), ""));
    const auto findings = paqoc::lint::failpointCoverage(program);
    // The untraceable point argument in spill()...
    EXPECT_EQ(linesOf(findings, "unguarded-checked-io"),
              (std::vector<int>{15}));
    // ...and store.journal.write registered but never armed; the
    // witness is the literal the point traced to.
    EXPECT_EQ(linesOf(findings, "untested-failpoint"),
              (std::vector<int>{27}));
}

TEST(FailpointCoverage, ArmingFromTestsOrShellClearsTheAudit)
{
    ProgramIndex program;
    program.files.push_back(paqoc::lint::indexFile(
        "src/store/fixture.cpp", fixture("bad_checked_io.cc"), ""));
    FileIndex sh;
    sh.path = "tests/fake_chaos.sh";
    sh.failpointsArmed = paqoc::lint::armedInShell(
        "PAQOC_FAILPOINTS=\"store.journal.write=enospc\" run\n");
    program.files.push_back(sh);
    const auto findings = paqoc::lint::failpointCoverage(program);
    EXPECT_TRUE(linesOf(findings, "untested-failpoint").empty());
    // The unguarded point is a property of the source, not of the
    // test suite: still reported.
    EXPECT_EQ(linesOf(findings, "unguarded-checked-io"),
              (std::vector<int>{15}));

    // A spec literal in a C++ test arms just the same.
    ProgramIndex viaCpp;
    viaCpp.files.push_back(paqoc::lint::indexFile(
        "src/store/fixture.cpp", fixture("bad_checked_io.cc"), ""));
    viaCpp.files.push_back(paqoc::lint::indexFile(
        "tests/test_fake.cpp",
        "const char *spec = \"store.journal.write=return-error\";\n",
        ""));
    EXPECT_TRUE(linesOf(paqoc::lint::failpointCoverage(viaCpp),
                        "untested-failpoint")
                    .empty());
}

// ---- Determinism taint ----

TEST(DeterminismTaint, SourcesReachingSinksAreFlagged)
{
    ProgramIndex program;
    program.files.push_back(paqoc::lint::indexFile(
        "src/service/fixture.cpp", fixture("bad_taint.cc"), ""));
    const auto findings = paqoc::lint::determinismTaint(program);
    // 13: clock + dump in the same function; 23: clock whose caller
    // dumps; 49: pointer-to-int cast next to writeFrame. measureOnly
    // (local timing, no sink) and the suppressed read stay silent.
    EXPECT_EQ(linesOf(findings, "determinism-taint"),
              (std::vector<int>{13, 23, 49}));
}

// ---- Analyzer orchestration: cache + report ----

class TempTree : public ::testing::Test
{
protected:
    void SetUp() override
    {
        root_ = paqoc::test_support::scratchDir("analyzer_tree");
        std::filesystem::create_directories(root_ / "src/demo");
        write("src/demo/thing.h",
              "#ifndef PAQOC_DEMO_THING_H_\n"
              "#define PAQOC_DEMO_THING_H_\n"
              "struct Thing { int x; };\n"
              "#endif\n");
        write("src/demo/thing.cpp",
              "#include \"demo/thing.h\"\n"
              "int touch(Thing t) { return t.x; }\n");
    }
    void TearDown() override { std::filesystem::remove_all(root_); }

    void write(const std::string &rel, const std::string &content)
    {
        std::ofstream out(root_ / rel,
                          std::ios::binary | std::ios::trunc);
        out << content;
    }

    std::filesystem::path root_;
};

TEST_F(TempTree, WarmCacheReusesEverythingAndTracksChanges)
{
    AnalyzeOptions opts;
    opts.cachePath = (root_ / "cache.json").string();

    const AnalyzeResult cold =
        paqoc::lint::analyzeTree(root_.string(), {"src"}, opts);
    EXPECT_FALSE(cold.cache.loaded);
    EXPECT_EQ(cold.cache.files, 2);
    EXPECT_EQ(cold.cache.reindexed, 2);
    EXPECT_TRUE(cold.findings.empty());

    const AnalyzeResult warm =
        paqoc::lint::analyzeTree(root_.string(), {"src"}, opts);
    EXPECT_TRUE(warm.cache.loaded);
    EXPECT_EQ(warm.cache.reused, 2);
    EXPECT_EQ(warm.cache.reindexed, 0);

    // Touching the .cpp re-lints only the .cpp.
    write("src/demo/thing.cpp",
          "#include \"demo/thing.h\"\n"
          "int touch(Thing t) { return t.x + 1; }\n");
    const AnalyzeResult cpp =
        paqoc::lint::analyzeTree(root_.string(), {"src"}, opts);
    EXPECT_EQ(cpp.cache.reused, 1);
    EXPECT_EQ(cpp.cache.reindexed, 1);

    // Touching the header re-lints the header AND its companion .cpp
    // (whose index depends on the header's declarations).
    write("src/demo/thing.h",
          "#ifndef PAQOC_DEMO_THING_H_\n"
          "#define PAQOC_DEMO_THING_H_\n"
          "struct Thing { int x; int y; };\n"
          "#endif\n");
    const AnalyzeResult hdr =
        paqoc::lint::analyzeTree(root_.string(), {"src"}, opts);
    EXPECT_EQ(hdr.cache.reused, 0);
    EXPECT_EQ(hdr.cache.reindexed, 2);
}

TEST_F(TempTree, CorruptCacheIsAColdStartNotAnError)
{
    AnalyzeOptions opts;
    opts.cachePath = (root_ / "cache.json").string();
    write("cache.json", "{not json");
    const AnalyzeResult r =
        paqoc::lint::analyzeTree(root_.string(), {"src"}, opts);
    EXPECT_FALSE(r.cache.loaded);
    EXPECT_EQ(r.cache.reindexed, 2);
    // And the bad file was replaced with a usable one.
    const AnalyzeResult warm =
        paqoc::lint::analyzeTree(root_.string(), {"src"}, opts);
    EXPECT_TRUE(warm.cache.loaded);
    EXPECT_EQ(warm.cache.reused, 2);
}

TEST_F(TempTree, ReportJsonCarriesGraphAndCacheStats)
{
    AnalyzeOptions opts;
    const AnalyzeResult r =
        paqoc::lint::analyzeTree(root_.string(), {"src"}, opts);
    const std::string doc =
        paqoc::lint::analyzeReportJson(r).dump();
    EXPECT_NE(doc.find("\"lock_order_graph\""), std::string::npos);
    EXPECT_NE(doc.find("\"cache\""), std::string::npos);
    EXPECT_NE(doc.find("\"reindexed\":2"), std::string::npos);
    EXPECT_NE(doc.find("\"checked_rules\":13"), std::string::npos);
}

// ---- Header-guard autofix ----

TEST(FixHeaderGuard, RenamesWrapsAndStaysIdempotent)
{
    // Wrong guard: renamed at #ifndef/#define/#endif alike.
    const std::string wrong = "#ifndef WRONG_GUARD_H\n"
                              "#define WRONG_GUARD_H\n"
                              "struct S;\n"
                              "#endif // WRONG_GUARD_H\n";
    const std::string fixed = paqoc::lint::fixHeaderGuardContent(
        "src/qoc/widget.h", wrong);
    EXPECT_NE(fixed.find("#ifndef PAQOC_QOC_WIDGET_H_"),
              std::string::npos);
    EXPECT_NE(fixed.find("#define PAQOC_QOC_WIDGET_H_"),
              std::string::npos);
    EXPECT_NE(fixed.find("#endif // PAQOC_QOC_WIDGET_H_"),
              std::string::npos);
    EXPECT_EQ(fixed.find("WRONG_GUARD_H"), std::string::npos);

    // Missing guard: wrapped whole.
    const std::string bare = "struct S;\n";
    const std::string wrapped = paqoc::lint::fixHeaderGuardContent(
        "src/qoc/widget.h", bare);
    EXPECT_NE(wrapped.find("#ifndef PAQOC_QOC_WIDGET_H_\n"
                           "#define PAQOC_QOC_WIDGET_H_"),
              std::string::npos);
    EXPECT_NE(wrapped.find("struct S;"), std::string::npos);

    // pragma once is a valid spelling: untouched.
    const std::string pragma = "#pragma once\nstruct S;\n";
    EXPECT_EQ(paqoc::lint::fixHeaderGuardContent("src/qoc/widget.h",
                                                 pragma),
              pragma);

    // Idempotence: a second pass is a no-op, and the linter agrees.
    for (const std::string &once : {fixed, wrapped}) {
        EXPECT_EQ(paqoc::lint::fixHeaderGuardContent("src/qoc/widget.h",
                                                     once),
                  once);
        EXPECT_TRUE(linesOf(paqoc::lint::lintFile("src/qoc/widget.h",
                                                  once),
                            "header-guard")
                        .empty());
    }
}

TEST_F(TempTree, FixHeaderGuardsRewritesInPlace)
{
    write("src/demo/loose.h", "struct Loose;\n");
    const auto fixed =
        paqoc::lint::fixHeaderGuards(root_.string(), {"src"});
    EXPECT_EQ(fixed, (std::vector<std::string>{"src/demo/loose.h"}));
    std::ifstream in(root_ / "src/demo/loose.h");
    std::ostringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("#ifndef PAQOC_DEMO_LOOSE_H_"),
              std::string::npos);
    // Second run: nothing left to fix.
    EXPECT_TRUE(
        paqoc::lint::fixHeaderGuards(root_.string(), {"src"}).empty());
}

// ---- SARIF export ----

TEST(Sarif, ReportCarriesTheRequiredSarif210Shape)
{
    const std::vector<Finding> findings = {
        {"naked-mutex", "src/a.cpp", 3, "raw mutex"},
        {"lock-order-cycle", "src/b.cpp", 7, "A -> B -> A"}};
    const std::string doc =
        paqoc::lint::sarifReport(findings).dump();
    EXPECT_NE(doc.find("\"version\":\"2.1.0\""), std::string::npos);
    EXPECT_NE(doc.find("sarif-schema-2.1.0.json"),
              std::string::npos); // $schema
    EXPECT_NE(doc.find("\"runs\":"), std::string::npos);
    EXPECT_NE(doc.find("\"driver\":"), std::string::npos);
    EXPECT_NE(doc.find("\"ruleId\":\"naked-mutex\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"ruleId\":\"lock-order-cycle\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"uri\":\"src/a.cpp\""), std::string::npos);
    EXPECT_NE(doc.find("\"startLine\":3"), std::string::npos);

    // The rule catalogue rides along in full, in ruleNames() order,
    // so ruleIndex is stable across runs.
    for (const std::string &rule : paqoc::lint::ruleNames())
        EXPECT_NE(doc.find("\"id\":\"" + rule + "\""),
                  std::string::npos)
            << rule;

    // An all-clean run is still a valid document.
    const std::string clean = paqoc::lint::sarifReport({}).dump();
    EXPECT_NE(clean.find("\"results\":[]"), std::string::npos);
}

} // namespace
