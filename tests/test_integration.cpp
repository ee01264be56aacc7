/**
 * @file
 * End-to-end integration tests: full pipeline (generate -> decompose
 * -> route -> lower -> mine -> merge -> pulses) on real benchmarks,
 * with semantic verification on small registers, latency-cap
 * invariants, and cross-compiler comparisons.
 */

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "circuit/contract.h"
#include "circuit/schedule.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/kernels.h"
#include "linalg/unitary_util.h"
#include "paqoc/compiler.h"
#include "paqoc/latency_oracle.h"
#include "qoc/pulse_generator.h"
#include "sim/pulse_simulator.h"
#include "transpile/decompose.h"
#include "transpile/sabre.h"
#include "workloads/benchmarks.h"

namespace paqoc {
namespace {

namespace wl = workloads;

/** Full pipeline on a benchmark routed to a compact topology. */
CompileReport
pipeline(const std::string &name, const std::string &method)
{
    const auto &spec = wl::benchmarkSpec(name);
    const Topology topo = wl::compactTopology(spec.qubits);
    const Circuit physical = wl::makePhysical(name, topo);
    SpectralPulseGenerator gen;
    if (method == "accqoc")
        return compileAccqoc(physical, gen, AccqocOptions{3, 3});
    PaqocOptions opts;
    opts.apaM = method == "paqoc_inf" ? -1 : 0;
    return compilePaqoc(physical, gen, opts);
}

TEST(Integration, SimonPipelinePreservesSemantics)
{
    const auto &spec = wl::benchmarkSpec("simon");
    const Topology topo = wl::compactTopology(spec.qubits);
    const Circuit physical = wl::makePhysical("simon", topo);
    SpectralPulseGenerator gen;
    const CompileReport r = compilePaqoc(physical, gen, PaqocOptions{});
    EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(physical),
                                     circuitUnitary(r.circuit)));
    EXPECT_EQ(r.circuit.absorbedTotal(),
              static_cast<int>(physical.size()));
}

class PipelineBenchmarks
    : public ::testing::TestWithParam<const char *> {};

TEST_P(PipelineBenchmarks, PaqocNoWorseThanAccqocBaseline)
{
    const CompileReport acc = pipeline(GetParam(), "accqoc");
    const CompileReport paq = pipeline(GetParam(), "paqoc");
    EXPECT_LE(paq.latency, acc.latency * 1.05 + 1e-9) << GetParam();
    EXPECT_GE(paq.esp, acc.esp * 0.98 - 1e-9) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(SmallBenchmarks, PipelineBenchmarks,
                         ::testing::Values("rd32", "decod24", "simon",
                                           "bb84"));

TEST(Integration, LatencyCapsHonoredInFinalSchedule)
{
    // Every merged gate's committed latency must respect its cap.
    const Circuit physical = wl::makePhysical(
        "rd32", wl::compactTopology(5));
    SpectralPulseGenerator gen;
    const CompileReport r = compilePaqoc(physical, gen, PaqocOptions{});
    LatencyOracle oracle(gen);
    for (const Gate &g : r.circuit.gates()) {
        if (!g.isCustom())
            continue;
        EXPECT_LE(oracle(g), g.latencyCap() + 1e-9);
    }
}

TEST(Integration, MergedCircuitLatencyBelowUnmergedSchedule)
{
    // The compiled circuit must beat (or match) scheduling the raw
    // physical circuit gate by gate.
    const Circuit physical = wl::makePhysical(
        "decod24", wl::compactTopology(5));
    SpectralPulseGenerator gen;
    LatencyOracle oracle(gen);
    const double raw = computeSchedule(physical, [&](const Gate &g) {
        return oracle(g);
    }).makespan;
    SpectralPulseGenerator gen2;
    const CompileReport r =
        compilePaqoc(physical, gen2, PaqocOptions{});
    EXPECT_LE(r.latency, raw + 1e-9);
}

TEST(Integration, ApaModesNeverBeatRawScheduleUpward)
{
    // Section V-C guarantee surfaces end to end: APA substitution plus
    // merging never yields a slower circuit than the raw schedule.
    const Circuit physical = wl::makePhysical(
        "simon", wl::compactTopology(6));
    SpectralPulseGenerator gen;
    LatencyOracle oracle(gen);
    const double raw = computeSchedule(physical, [&](const Gate &g) {
        return oracle(g);
    }).makespan;
    for (int m : {0, 2, -1}) {
        SpectralPulseGenerator g2;
        PaqocOptions opts;
        opts.apaM = m;
        const CompileReport r = compilePaqoc(physical, g2, opts);
        EXPECT_LE(r.latency, raw + 1e-9) << "M=" << m;
    }
}

TEST(Integration, SimQualityOrderingMatchesLatency)
{
    // Shorter compiled schedules must not simulate worse.
    const auto &spec = wl::benchmarkSpec("rd32");
    const Topology topo = wl::compactTopology(spec.qubits);
    const Circuit physical = wl::makePhysical("rd32", topo);

    SimOptions sim;
    sim.coherenceTimeDt = 2.0e4;

    SpectralPulseGenerator ga, gp, sa, sp;
    const CompileReport acc =
        compileAccqoc(physical, ga, AccqocOptions{3, 3});
    const CompileReport paq = compilePaqoc(physical, gp, PaqocOptions{});
    const SimResult s_acc = simulateCircuitPulses(acc.circuit, sa, sim);
    const SimResult s_paq = simulateCircuitPulses(paq.circuit, sp, sim);
    EXPECT_LE(paq.latency, acc.latency + 1e-9);
    EXPECT_GE(s_paq.quality, s_acc.quality - 1e-6);
}

TEST(Contract, MembersByIdAndTopologicalOrder)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.t(1);
    const Dag dag = buildDag(c);
    GroupContraction gc(c, dag);
    ASSERT_TRUE(gc.tryMerge({0, 1}));
    const auto order = gc.topologicalOrder();
    ASSERT_EQ(order.size(), 2u);
    // First group in order holds gates {0, 1}; second holds {2}.
    const auto first = gc.members(order[0]);
    const auto second = gc.members(order[1]);
    EXPECT_EQ(std::vector<int>(first.begin(), first.end()),
              (std::vector<int>{0, 1}));
    EXPECT_EQ(std::vector<int>(second.begin(), second.end()),
              (std::vector<int>{2}));
}

TEST(Contract, SnapshotRestoreRoundTrip)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.t(1);
    const Dag dag = buildDag(c);
    GroupContraction gc(c, dag);
    const GroupContraction::State s0 = gc.snapshot();
    ASSERT_TRUE(gc.tryMerge({0, 1}));
    EXPECT_EQ(gc.groupOf(0), gc.groupOf(1));
    gc.restore(s0);
    EXPECT_NE(gc.groupOf(0), gc.groupOf(1));
    EXPECT_EQ(gc.groups().size(), 3u);
}

TEST(Contract, CyclicMergeRejectedAndStateIntact)
{
    // a -> b -> c on overlapping qubits: merging {a, c} would create
    // a cycle through b.
    Circuit c(3);
    c.cx(0, 1); // a
    c.cx(1, 2); // b
    c.cx(2, 0); // c... depends on both
    const Dag dag = buildDag(c);
    GroupContraction gc(c, dag);
    EXPECT_FALSE(gc.tryMerge({0, 2}));
    EXPECT_NE(gc.groupOf(0), gc.groupOf(2));
    EXPECT_EQ(gc.groups().size(), 3u);
}

/**
 * The contraction as first written, kept as the oracle: every merge
 * relabels all gates, and Kahn's algorithm over the deduplicated group
 * edges (ready groups by lowest member gate) gives the emit order.
 * Acceptance is decided by a brute-force transitive closure instead.
 */
struct ReferenceContraction
{
    const Dag *dag = nullptr;
    std::vector<int> groupOf;
    int numGroups = 0;

    /** Group ids in emit order; empty when the graph is cyclic. */
    std::vector<int>
    order() const
    {
        const auto ng = static_cast<std::size_t>(numGroups);
        std::vector<std::set<int>> succ(ng);
        std::vector<int> indeg(ng, 0);
        std::vector<int> first(ng, 1 << 30);
        std::vector<char> present(ng, 0);
        for (std::size_t u = 0; u < groupOf.size(); ++u) {
            const auto gu = static_cast<std::size_t>(groupOf[u]);
            present[gu] = 1;
            first[gu] = std::min(first[gu], static_cast<int>(u));
            for (int v : dag->succs[u]) {
                const int gv = groupOf[static_cast<std::size_t>(v)];
                if (groupOf[u] != gv && succ[gu].insert(gv).second)
                    ++indeg[static_cast<std::size_t>(gv)];
            }
        }
        std::set<std::pair<int, int>> ready; // (first member, group)
        std::size_t total = 0;
        for (std::size_t g = 0; g < ng; ++g) {
            total += present[g];
            if (present[g] && indeg[g] == 0)
                ready.emplace(first[g], static_cast<int>(g));
        }
        std::vector<int> out;
        while (!ready.empty()) {
            const int g = ready.begin()->second;
            ready.erase(ready.begin());
            out.push_back(g);
            for (int s : succ[static_cast<std::size_t>(g)])
                if (--indeg[static_cast<std::size_t>(s)] == 0)
                    ready.emplace(first[static_cast<std::size_t>(s)], s);
        }
        if (out.size() != total)
            out.clear();
        return out;
    }

    /** Would fusing the groups of `gates` leave the graph acyclic? */
    bool
    acyclicAfter(const std::vector<int> &gates) const
    {
        std::vector<int> label = groupOf;
        std::set<int> fused;
        for (int g : gates)
            fused.insert(groupOf[static_cast<std::size_t>(g)]);
        for (int &l : label)
            if (fused.count(l))
                l = -1;
        // Compact labels, then close reachability over group edges.
        std::map<int, std::size_t> id;
        for (int l : label)
            id.emplace(l, id.size());
        const std::size_t k = id.size();
        std::vector<std::vector<char>> r(k, std::vector<char>(k, 0));
        for (std::size_t u = 0; u < label.size(); ++u)
            for (int v : dag->succs[u])
                if (label[u] != label[static_cast<std::size_t>(v)])
                    r[id[label[u]]][id[label[static_cast<std::size_t>(
                        v)]]] = 1;
        for (std::size_t m = 0; m < k; ++m)
            for (std::size_t i = 0; i < k; ++i)
                if (r[i][m])
                    for (std::size_t j = 0; j < k; ++j)
                        r[i][j] = r[i][j] || r[m][j];
        for (std::size_t i = 0; i < k; ++i)
            if (r[i][i])
                return false;
        return true;
    }

    bool
    tryMerge(const std::vector<int> &gates)
    {
        if (!acyclicAfter(gates))
            return false;
        std::set<int> fused;
        for (int g : gates)
            fused.insert(groupOf[static_cast<std::size_t>(g)]);
        for (int &l : groupOf)
            if (fused.count(l))
                l = numGroups;
        ++numGroups;
        return true;
    }
};

/** Every observable of the contraction equals the oracle's. */
void
expectSameContraction(const GroupContraction &gc,
                      const ReferenceContraction &ref)
{
    std::map<int, std::vector<int>> members;
    for (std::size_t i = 0; i < ref.groupOf.size(); ++i) {
        ASSERT_EQ(gc.groupOf(static_cast<int>(i)), ref.groupOf[i]);
        members[ref.groupOf[i]].push_back(static_cast<int>(i));
    }
    for (const auto &[gid, want] : members) {
        const auto got = gc.members(gid);
        EXPECT_EQ(std::vector<int>(got.begin(), got.end()), want);
    }
    EXPECT_EQ(gc.topologicalOrder(), ref.order());
}

TEST(Contract, RandomMergesMatchFullSortOracle)
{
    int self_fusions = 0;
    int wide_fusions = 0;
    int rejections = 0;
    int restores = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        Rng rng(seed);
        const int nq = rng.range(4, 8);
        Circuit c(nq);
        const int n = rng.range(8, 40);
        for (int i = 0; i < n; ++i) {
            std::vector<int> qs;
            const int arity = rng.range(1, 3);
            while (static_cast<int>(qs.size()) < arity) {
                const int q = rng.range(0, nq - 1);
                if (std::find(qs.begin(), qs.end(), q) == qs.end())
                    qs.push_back(q);
            }
            const Op op =
                arity == 1 ? Op::H : (arity == 2 ? Op::CX : Op::CCX);
            c.add(Gate(op, qs));
        }
        const Dag dag = buildDag(c);
        GroupContraction gc(c, dag);
        ReferenceContraction ref{&dag, {}, n};
        for (int i = 0; i < n; ++i)
            ref.groupOf.push_back(i);

        struct Saved
        {
            GroupContraction::State state;
            ReferenceContraction ref;
        };
        std::vector<Saved> saved;
        for (int step = 0; step < 50; ++step) {
            const auto roll = rng.below(10);
            if (roll == 0) {
                saved.push_back({gc.snapshot(), ref});
            } else if (roll == 1 && !saved.empty()) {
                const std::size_t k = rng.below(saved.size());
                gc.restore(saved[k].state);
                ref = saved[k].ref;
                saved.resize(k + 1);
                ++restores;
            } else {
                // A random walk along DAG edges (mostly contractible)
                // plus, sometimes, an unrelated gate (often cyclic).
                std::vector<int> gates{rng.range(0, n - 1)};
                const int size = rng.range(1, 4);
                while (static_cast<int>(gates.size()) < size) {
                    const auto at =
                        static_cast<std::size_t>(gates.back());
                    const auto &next = rng.chance(0.5) ? dag.succs[at]
                                                       : dag.preds[at];
                    if (next.empty() || rng.chance(0.15))
                        gates.push_back(rng.range(0, n - 1));
                    else
                        gates.push_back(next[rng.below(next.size())]);
                }
                std::set<int> groups;
                for (int g : gates)
                    groups.insert(ref.groupOf[static_cast<std::size_t>(g)]);
                const bool want = ref.tryMerge(gates);
                ASSERT_EQ(gc.tryMerge(gates), want)
                    << "seed " << seed << " step " << step;
                self_fusions += groups.size() == 1;
                wide_fusions += want && groups.size() >= 3;
                rejections += !want;
            }
            expectSameContraction(gc, ref);
            if (::testing::Test::HasFailure())
                return;
        }

        std::vector<std::vector<int>> want_merged;
        for (int gid : ref.order()) {
            std::vector<int> m;
            for (int i = 0; i < n; ++i)
                if (ref.groupOf[static_cast<std::size_t>(i)] == gid)
                    m.push_back(i);
            if (m.size() > 1)
                want_merged.push_back(m);
        }
        std::vector<std::vector<int>> got_merged;
        const Circuit out = gc.emit([&](const std::vector<int> &m) {
            got_merged.push_back(m);
            return c.gate(static_cast<std::size_t>(m[0]));
        });
        EXPECT_EQ(out.size(), ref.order().size());
        EXPECT_EQ(got_merged, want_merged);
    }
    // The sequences must have exercised every case.
    EXPECT_GT(self_fusions, 0);
    EXPECT_GT(wide_fusions, 0);
    EXPECT_GT(rejections, 0);
    EXPECT_GT(restores, 0);
}

TEST(Contract, StaleStateCannotBeRestored)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.t(1);
    const Dag dag = buildDag(c);
    GroupContraction gc(c, dag);
    const GroupContraction::State s0 = gc.snapshot();
    ASSERT_TRUE(gc.tryMerge({0, 1}));
    const GroupContraction::State s1 = gc.snapshot();
    gc.restore(s0);
    ASSERT_TRUE(gc.tryMerge({1, 2}));
    // s1 names a merge that restore(s0) undid; the journal moved on.
    EXPECT_THROW(gc.restore(s1), InternalError);
    EXPECT_EQ(gc.groupOf(1), gc.groupOf(2));
}

TEST(Integration, AccqocBlocksCarryLatencyCaps)
{
    const Circuit physical = wl::makePhysical(
        "rd32", wl::compactTopology(5));
    SpectralPulseGenerator gen;
    const CompileReport r =
        compileAccqoc(physical, gen, AccqocOptions{3, 3});
    int capped = 0;
    for (const Gate &g : r.circuit.gates()) {
        if (g.isCustom()
            && g.latencyCap()
                   < std::numeric_limits<double>::infinity())
            ++capped;
    }
    EXPECT_GT(capped, 0) << "baseline blocks should carry caps too";
}

TEST(Integration, GeneratorsShareNoStateAcrossCompiles)
{
    // Two compiles with fresh generators give identical results
    // (global determinism).
    const Circuit physical = wl::makePhysical(
        "simon", wl::compactTopology(6));
    SpectralPulseGenerator g1, g2;
    const CompileReport a = compilePaqoc(physical, g1, PaqocOptions{});
    const CompileReport b = compilePaqoc(physical, g2, PaqocOptions{});
    EXPECT_DOUBLE_EQ(a.latency, b.latency);
    EXPECT_DOUBLE_EQ(a.esp, b.esp);
    EXPECT_EQ(a.finalGateCount, b.finalGateCount);
}

/** Every report field that must not depend on the thread count. */
void
expectBitIdentical(const CompileReport &a, const CompileReport &b)
{
    // EXPECT_EQ (not _DOUBLE_EQ/_NEAR): the contract is bit-identity,
    // not closeness.
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.esp, b.esp);
    EXPECT_EQ(a.costUnits, b.costUnits);
    EXPECT_EQ(a.pulseCalls, b.pulseCalls);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.apaKinds, b.apaKinds);
    EXPECT_EQ(a.apaUses, b.apaUses);
    EXPECT_EQ(a.merges, b.merges);
    EXPECT_EQ(a.finalGateCount, b.finalGateCount);
}

TEST(Integration, PaqocReportIndependentOfThreadCount)
{
    const Circuit physical = wl::makePhysical(
        "simon", wl::compactTopology(6));
    PaqocOptions serial_opts;
    serial_opts.threads = 1;
    PaqocOptions pooled_opts;
    pooled_opts.threads = 8;
    SpectralPulseGenerator g1, g8;
    const CompileReport serial =
        compilePaqoc(physical, g1, serial_opts);
    const CompileReport pooled =
        compilePaqoc(physical, g8, pooled_opts);
    expectBitIdentical(serial, pooled);
}

TEST(Integration, AccqocReportIndependentOfThreadCount)
{
    const Circuit physical = wl::makePhysical(
        "rd32", wl::compactTopology(wl::benchmarkSpec("rd32").qubits));
    AccqocOptions serial_opts;
    serial_opts.threads = 1;
    AccqocOptions pooled_opts;
    pooled_opts.threads = 8;
    SpectralPulseGenerator g1, g8;
    const CompileReport serial =
        compileAccqoc(physical, g1, serial_opts);
    const CompileReport pooled =
        compileAccqoc(physical, g8, pooled_opts);
    expectBitIdentical(serial, pooled);
}

TEST(Integration, GrapeCompileReportIndependentOfThreadCount)
{
    // The expensive variant of the contract: real GRAPE numerics on a
    // tiny circuit, serial vs. an 8-thread pool, bit-identical report.
    Circuit tiny(2);
    tiny.h(0);
    tiny.cx(0, 1);
    tiny.h(1);
    GrapeOptions gopts;
    gopts.maxIterations = 300;
    PaqocOptions serial_opts;
    serial_opts.threads = 1;
    serial_opts.enableMerger = false;
    PaqocOptions pooled_opts = serial_opts;
    pooled_opts.threads = 8;
    GrapePulseGenerator g1(gopts), g8(gopts);
    const CompileReport serial = compilePaqoc(tiny, g1, serial_opts);
    const CompileReport pooled = compilePaqoc(tiny, g8, pooled_opts);
    expectBitIdentical(serial, pooled);
}

TEST(Integration, GrapeCompileInsideAPoolJobMatchesSerial)
{
    // A daemon runs each compile as a job on the global pool, so the
    // compile's own batch, probe and gemm loops nest inside a worker
    // and enlist the idle ones. The report and every derived pulse
    // must still match a serial compile bit for bit.
    Circuit tiny(2);
    tiny.h(0);
    tiny.cx(0, 1);
    tiny.h(1);
    GrapeOptions gopts;
    gopts.maxIterations = 300;
    PaqocOptions serial_opts;
    serial_opts.threads = 1;
    serial_opts.enableMerger = false;
    PaqocOptions pooled_opts = serial_opts;
    pooled_opts.threads = 0;
    GrapePulseGenerator g1(gopts), gp(gopts);
    const CompileReport serial = compilePaqoc(tiny, g1, serial_opts);
    const CompileReport pooled =
        ThreadPool::global()
            .submit([&]() { return compilePaqoc(tiny, gp, pooled_opts); })
            .get();
    expectBitIdentical(serial, pooled);
    ASSERT_EQ(serial.circuit.size(), pooled.circuit.size());
    for (const Gate &g : serial.circuit.gates()) {
        const std::optional<CachedPulse> a =
            g1.cache().find(g.unitary(), g.arity());
        const std::optional<CachedPulse> b =
            gp.cache().find(g.unitary(), g.arity());
        ASSERT_TRUE(a.has_value() && b.has_value());
        EXPECT_EQ(a->schedule.amplitudes, b->schedule.amplitudes);
        EXPECT_EQ(a->schedule.fidelity, b->schedule.fidelity);
    }
}

TEST(Integration, GrapeCompileReportIndependentOfKernelBackend)
{
    // PAQOC_KERNEL must be free to switch (DESIGN.md §11): the full
    // GRAPE numerics pipeline on the scalar reference kernels vs the
    // vectorized backend, each serial and 8-threaded, all four
    // bit-identical. Degrades to a scalar-vs-scalar (still valid)
    // check on hosts without AVX2.
    Circuit tiny(2);
    tiny.h(0);
    tiny.cx(0, 1);
    GrapeOptions gopts;
    gopts.maxIterations = 200;
    const kernels::Backend entry = kernels::activeBackend();
    std::vector<CompileReport> reports;
    for (const kernels::Backend backend :
         {kernels::Backend::Scalar, kernels::Backend::Avx2}) {
        kernels::setBackend(backend);
        for (const int threads : {1, 8}) {
            PaqocOptions opts;
            opts.threads = threads;
            opts.enableMerger = false;
            GrapePulseGenerator gen(gopts);
            reports.push_back(compilePaqoc(tiny, gen, opts));
        }
    }
    kernels::setBackend(entry);
    for (std::size_t i = 1; i < reports.size(); ++i) {
        SCOPED_TRACE("variant " + std::to_string(i));
        expectBitIdentical(reports[0], reports[i]);
    }
}

} // namespace
} // namespace paqoc
