#include "replay.h"

#include "circuit/qasm.h"
#include "common/quota.h"
#include "mining/miner.h"
#include "paqoc/accqoc.h"
#include "paqoc/esp.h"
#include "paqoc/latency_oracle.h"
#include "paqoc/merge_engine.h"
#include "qoc/pulse_generator.h"
#include "transpile/decompose.h"
#include "transpile/sabre.h"
#include "workloads/benchmarks.h"

namespace e2ebench {

namespace {

using namespace paqoc;

/**
 * GRAPE backend that records a `qoc.grape` span around every pulse it
 * derives (cache hits leave no span). Results are the base class's.
 */
class TracedGrape : public GrapePulseGenerator
{
  public:
    TracedGrape(SpanLog *log, std::uint64_t request)
        : log_(log), request_(request)
    {}

  protected:
    PulseGenResult
    generateOne(const Matrix &unitary, int num_qubits, ThreadPool *pool,
                std::uint64_t nearest_horizon) override
    {
        const double t0 = spanClock();
        PulseGenResult r = GrapePulseGenerator::generateOne(
            unitary, num_qubits, pool, nearest_horizon);
        if (log_ != nullptr && !r.cacheHit)
            log_->add("qoc.grape", t0, spanClock(), request_);
        return r;
    }

  private:
    SpanLog *log_;
    std::uint64_t request_;
};

void
warm(PulseCache &cache, const std::vector<CachedPulse> &entries)
{
    for (const CachedPulse &entry : entries) {
        CachedPulse copy = entry;
        cache.insert(entry.unitary, entry.numQubits, std::move(copy));
    }
}

/** The generator-delta and pulse-pass fields, as compiler.cpp fills them. */
void
finishReport(CompileReport &report, const Circuit &final_circuit,
             PulseGenerator &generator, SpanLog *log,
             std::uint64_t request)
{
    CircuitPulses pulses;
    {
        ScopedSpan s(log, "qoc.pulse", request);
        pulses = generateCircuitPulses(final_circuit, generator, nullptr);
    }
    report.circuit = final_circuit;
    report.latency = pulses.makespan;
    report.esp = pulses.esp;
    report.finalGateCount = static_cast<int>(final_circuit.size());
    report.costUnits = generator.totalCostUnits();
    report.pulseCalls = generator.generateCalls();
    report.cacheHits = generator.cacheHits();
}

} // namespace

Topology
topologyOf(const std::string &spec)
{
    if (spec.rfind("line:", 0) == 0)
        return Topology::line(std::stoi(spec.substr(5)));
    const std::size_t x = spec.find('x');
    return Topology::grid(std::stoi(spec.substr(0, x)),
                          std::stoi(spec.substr(x + 1)));
}

ReplayOutput
replayCompile(const CompileJob &job, const Epoch &epoch, SpanLog *log,
              std::uint64_t request)
{
    ScopedSpan root(log, "request", request);
    ReplayOutput out;

    // Per-request generator warmed from the frozen epoch, with an
    // unlimited quota token that only counts GRAPE iterations.
    SpectralPulseGenerator spectral;
    TracedGrape grape(log, request);
    grape.setSeedDistance(ServiceOptions{}.grapeSeedDistance);
    const bool use_grape = job.backend == "grape";
    PulseGenerator &generator = use_grape
        ? static_cast<PulseGenerator &>(grape)
        : static_cast<PulseGenerator &>(spectral);
    QuotaToken quota(QuotaLimits{});
    generator.setQuota(&quota);
    {
        ScopedSpan s(log, "qoc.cache_warm", request);
        warm(generator.cache(), use_grape ? epoch.grape : epoch.spectral);
    }

    const Topology topology = topologyOf(job.topology);
    if (!job.benchmark.empty()) {
        ScopedSpan s(log, "transpile.route", request);
        out.physical = workloads::makePhysical(job.benchmark, topology);
    } else {
        Circuit logical{1};
        {
            ScopedSpan s(log, "circuit.parse", request);
            logical = fromQasm(job.qasm);
        }
        ScopedSpan s(log, "transpile.route", request);
        const Circuit cx_level = decomposeToCx(logical);
        const RoutingResult routed = sabreRoute(cx_level, topology);
        out.physical = decomposeToBasis(routed.physical);
    }

    CompileReport &report = out.report;
    if (job.method == "accqoc") {
        AccqocOptions opts;
        opts.maxN = job.maxn;
        opts.depth = job.depth;
        Circuit partitioned{1};
        SimilarityMstTree tree;
        {
            ScopedSpan s(log, "accqoc.partition", request);
            LatencyOracle oracle(generator);
            const LatencyFn lat_fn = [&](const Gate &g) {
                return oracle(g);
            };
            partitioned = accqocPartition(out.physical, opts, &lat_fn);
            tree = similarityMstTree(partitioned);
        }
        {
            // Pulses along the similarity MST in breadth-first waves.
            ScopedSpan s(log, "qoc.pulse", request);
            std::vector<int> wave(tree.order.size(), 0);
            int num_waves = tree.order.empty() ? 0 : 1;
            for (std::size_t k = 0; k < tree.order.size(); ++k) {
                if (tree.parent[k] >= 0)
                    wave[k] = wave[static_cast<std::size_t>(
                                  tree.parent[k])]
                        + 1;
                num_waves = std::max(num_waves, wave[k] + 1);
            }
            for (int w = 0; w < num_waves; ++w) {
                std::vector<PulseRequest> requests;
                for (std::size_t k = 0; k < tree.order.size(); ++k) {
                    if (wave[k] != w)
                        continue;
                    const Gate &g = partitioned.gate(tree.order[k]);
                    requests.push_back({g.unitary(), g.arity()});
                }
                generator.generateBatch(requests, nullptr);
            }
        }
        finishReport(report, partitioned, generator, log, request);
    } else {
        PaqocOptions opts;
        if (job.m == "inf")
            opts.apaM = -1;
        else if (job.m == "tuned")
            opts.tuned = true;
        else
            opts.apaM = std::stoi(job.m);
        opts.merge.maxN = job.maxn;
        opts.miner.maxQubits = job.maxn;
        opts.merge.commutativityAware = job.commute;

        Circuit working = out.physical;
        if (opts.apaM != 0 || opts.tuned) {
            ScopedSpan s(log, "mining.mine", request);
            report.patterns =
                mineFrequentSubcircuits(out.physical, opts.miner);
            LatencyOracle oracle(generator);
            const LatencyFn lat_fn = [&](const Gate &g) {
                return oracle(g);
            };
            ApaRewriteResult apa =
                applyApaBasis(out.physical, report.patterns, opts.apaM,
                              opts.tuned, &lat_fn);
            report.apaKinds = apa.apaGatesUsed;
            report.apaUses = apa.apaUseCount;
            report.gatesCovered = apa.gatesCovered;
            working = std::move(apa.circuit);
        }
        {
            ScopedSpan s(log, "paqoc.merge", request);
            MergeResult merged =
                mergeCustomizedGates(working, generator, opts.merge);
            report.merges = merged.stats.mergesApplied;
            out.mergeCandidates = merged.stats.candidatesScored;
            working = std::move(merged.circuit);
        }
        finishReport(report, working, generator, log, request);
    }

    {
        ScopedSpan s(log, "paqoc.payload", request);
        out.payload = compilePayload(job, report, generator).dump();
    }
    out.itersCharged = quota.itersCharged();
    return out;
}

} // namespace e2ebench
