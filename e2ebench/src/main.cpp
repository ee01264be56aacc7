/**
 * @file
 * e2ebench -- one end-to-end serving benchmark of paqocd.
 *
 *   e2ebench --paqocd PATH --workdir DIR --workload NAME --seed N
 *            --seconds S --trace 0|1
 *
 * Starts the workload's daemon stack, drives it in closed loop from
 * ServiceClient connections for S seconds, then checks every output
 * against in-process references and prints a report. The last stdout
 * line is one JSON object {correct, attempted, failed, metrics}: the
 * end-to-end metrics with --trace 0, the per-layer metrics of a
 * traced in-process replay with --trace 1. See RATIONALE.md.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_lib.h"
#include "common/json.h"
#include "common/rng.h"
#include "linalg/unitary_util.h"
#include "qoc/device.h"
#include "qoc/grape.h"
#include "qoc/pulse_io.h"
#include "replay.h"
#include "serving.h"
#include "service/client.h"
#include "service/service.h"
#include "sim/statevector.h"
#include "store/pulse_library.h"

namespace fs = std::filesystem;
using paqoc::Json;

namespace e2ebench {
namespace {

/** Load generator width: the 4-core measurement host, one per core. */
constexpr int kClients = 4;
/** Daemon start-ups per run; setup_s is their median. */
constexpr int kSetups = 5;
/** Widest circuit the unitary-equivalence check simulates. */
constexpr std::size_t kMaxCheckedQubits = 12;
/** Requests per traced replay pass (the served stream's prefix). */
constexpr std::size_t kReplayCap = 200;
/** Distinct jobs replayed, simulated and audited by the checks. */
constexpr std::size_t kReplayChecked = 300;
/** Fidelity slack of the pulse audit and the equivalence check. */
constexpr double kAuditTolerance = 1e-4;
constexpr double kEquivalenceTolerance = 1e-9;
/** Unmeasured closed-loop seconds before the measured phase. */
constexpr double kWarmupSeconds = 2.0;
/** The warm-up stream is the workload's stream of seed ^ this mask. */
constexpr std::uint64_t kWarmupSeedMask = 0x5741524d55505f5fULL;
/** Reserved for claims; never used while tuning the benchmark. */
constexpr std::uint64_t kHeldOutSeed = 7919;

struct Args
{
    std::string paqocd;
    std::string workdir;
    Workload workload = Workload::SpectralWarm;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + arg);
        const std::string v = argv[++i];
        if (arg == "--paqocd")
            a.paqocd = v;
        else if (arg == "--workdir")
            a.workdir = v;
        else if (arg == "--workload") {
            a.workload = parseWorkload(v);
            have_workload = true;
        } else if (arg == "--seed")
            a.seed = std::stoull(v);
        else if (arg == "--seconds")
            a.seconds = std::stod(v);
        else if (arg == "--trace")
            a.trace = std::stoi(v) != 0;
        else
            throw std::invalid_argument("unknown argument " + arg);
    }
    if (a.paqocd.empty() || a.workdir.empty() || !have_workload)
        throw std::invalid_argument(
            "need --paqocd, --workdir and --workload");
    return a;
}

/** Run fn(i, thread) for i in [0, n) on `threads` threads; rethrows. */
void
parallelFor(std::size_t n, int threads,
            const std::function<void(std::size_t, int)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::string> errors(static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&, t]() {
            try {
                for (std::size_t i = next.fetch_add(1); i < n;
                     i = next.fetch_add(1))
                    fn(i, t);
            } catch (const std::exception &e) {
                errors[static_cast<std::size_t>(t)] = e.what();
                next.store(n);
            }
        });
    for (std::thread &t : pool)
        t.join();
    for (const std::string &e : errors)
        if (!e.empty())
            throw std::runtime_error(e);
}

double
seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

// ---------------------------------------------------------------------
// Stacks.
// ---------------------------------------------------------------------

/** A started workload stack plus what its set-up left behind. */
struct Stack
{
    std::unique_ptr<Daemon> daemon;
    int clients = kClients;
    std::vector<double> setupSeconds;
    /** Library directory of the in-process references ("" = none). */
    std::string referenceLibrary;
};

std::unique_ptr<Daemon>
startDaemon(const Args &args, const std::vector<std::string> &flags,
            const std::string &socket, bool tcp)
{
    // One log per start: the TCP port is read back from it.
    static int starts = 0;
    std::vector<std::string> all = {"--socket", socket};
    all.insert(all.end(), flags.begin(), flags.end());
    return std::make_unique<Daemon>(
        args.paqocd, all, socket, tcp,
        "paqocd-" + std::to_string(starts++) + ".log");
}

/** Start the stack kSetups times; the last one stays up. */
void
startRepeatedly(Stack &stack, const std::function<void()> &before,
                const std::function<std::unique_ptr<Daemon>()> &start)
{
    for (int k = 0; k < kSetups; ++k) {
        if (stack.daemon)
            if (const int code = stack.daemon->stop(); code != 0)
                throw std::runtime_error(
                    "paqocd exited " + std::to_string(code)
                    + " on SIGTERM");
        before();
        stack.daemon = start();
        stack.setupSeconds.push_back(stack.daemon->setupSeconds());
    }
}

Stack
setUp(const Args &args)
{
    Stack stack;
    switch (args.workload) {
    case Workload::SpectralWarm: {
        // Fill the library with a serially served history, then
        // restart: the measured epoch holds every job's pulses.
        {
            const std::unique_ptr<Daemon> history = startDaemon(
                args, {"--library", "lib"}, "h.sock", false);
            paqoc::ServiceClient client(history->target());
            for (const paqoc::CompileJob &job : warmHistory(args.seed)) {
                const Json r =
                    client.request(paqoc::compileJobToJson(job));
                if (!r.get("ok", Json(false)).asBool())
                    throw std::runtime_error("history request failed: "
                                             + r.dump());
            }
            client.close();
            if (history->stop() != 0)
                throw std::runtime_error("history daemon failed");
        }
        fs::copy("lib", "ref-lib", fs::copy_options::recursive);
        stack.referenceLibrary = "ref-lib";
        startRepeatedly(stack, [] {}, [&] {
            return startDaemon(args, {"--library", "lib"}, "w.sock",
                               false);
        });
        break;
    }
    case Workload::SpectralFresh:
        startRepeatedly(
            stack, [] { fs::remove_all("lib"); },
            [&] {
                return startDaemon(args,
                                   {"--fleet", "2", "--listen",
                                    "127.0.0.1:0", "--library", "lib"},
                                   "f.sock", true);
            });
        break;
    case Workload::GrapeCold:
        stack.clients = 1;
        startRepeatedly(stack, [] {}, [&] {
            return startDaemon(args, {}, "g.sock", false);
        });
        break;
    }
    return stack;
}

/**
 * The warm-up compile: mod5d2 at M=tuned merges up to three-qubit
 * gates, so it builds every lazily filled table the spectral model
 * uses. Besides keeping first-request set-up out of the measured
 * latencies, this keeps the daemon's unguarded pauliBasis() cache
 * (see warmStaticCaches()) from being filled by concurrent requests;
 * RATIONALE.md lists that race as a known defect.
 */
paqoc::CompileJob
warmupJob()
{
    paqoc::CompileJob job;
    job.benchmark = "mod5d2";
    job.m = "tuned";
    return job;
}

// ---------------------------------------------------------------------
// Output checks.
// ---------------------------------------------------------------------

/** All served requests of one distinct job. */
struct DistinctJob
{
    paqoc::CompileJob job;
    std::string request;
    std::vector<std::size_t> served; ///< indices into completions
    std::string referencePayload;
    double handleMs = 0.0;
    bool replayed = false;
    bool replayMatches = false;
    /** min probe fidelity; < 0 when the circuit is too wide to check. */
    double equivalence = -1.0;
    std::size_t auditedPulses = 0;
    std::size_t auditFailures = 0;
    bool drifted = false;
    double latencyDt = 0.0;
    double esp = 0.0;
};

/** Probe-state equivalence of two circuits over their active qubits. */
double
equivalenceFidelity(const paqoc::Circuit &physical,
                    const paqoc::Circuit &compiled, std::uint64_t seed)
{
    std::set<int> active;
    for (const paqoc::Gate &g : physical.gates())
        active.insert(g.qubits().begin(), g.qubits().end());
    for (const paqoc::Gate &g : compiled.gates())
        active.insert(g.qubits().begin(), g.qubits().end());
    if (active.size() > kMaxCheckedQubits)
        return -1.0;
    std::map<int, int> index;
    for (int q : active)
        index.emplace(q, static_cast<int>(index.size()));
    const int n = static_cast<int>(active.size());
    auto remap = [&](const paqoc::Circuit &c) {
        paqoc::Circuit out(n);
        for (const paqoc::Gate &g : c.gates()) {
            std::vector<int> qs;
            for (int q : g.qubits())
                qs.push_back(index.at(q));
            out.add(paqoc::Gate::custom("g", qs, g.unitary(), 1));
        }
        return out;
    };
    const paqoc::Circuit a = remap(physical);
    const paqoc::Circuit b = remap(compiled);
    paqoc::Rng rng(seed);
    double worst = 1.0;
    for (int probe = 0; probe < 2; ++probe) {
        paqoc::Circuit prep(n);
        for (int q = 0; q < n; ++q) {
            prep.ry(q, rng.uniform(0.0, 3.14159));
            prep.rz(q, rng.uniform(-3.14159, 3.14159));
        }
        paqoc::Statevector sa(n);
        paqoc::Statevector sb(n);
        sa.apply(prep);
        sb.apply(prep);
        sa.apply(a);
        sb.apply(b);
        worst = std::min(worst, sa.fidelityWith(sb));
    }
    return worst;
}

/** Audit every emitted schedule against the compiled gate's unitary. */
void
auditPulses(const Json &payload, const paqoc::Circuit &compiled,
            DistinctJob &d)
{
    const Json none;
    const Json &pulses = payload.get("pulses", none);
    if (!pulses.isArray())
        return;
    if (pulses.size() != compiled.size())
        throw std::runtime_error("pulse count differs from gate count");
    for (std::size_t g = 0; g < pulses.size(); ++g) {
        const Json &doc = pulses.at(g);
        if (!doc.contains("schedule"))
            continue;
        const paqoc::Gate &gate = compiled.gate(g);
        const paqoc::DeviceModel device(gate.arity());
        const paqoc::PulseSchedule schedule =
            paqoc::pulseFromJson(doc.at("schedule").dump(), device);
        const double achieved =
            paqoc::scheduleFidelity(device, gate.unitary(), schedule);
        const double claimed = 1.0 - doc.at("error").asNumber();
        ++d.auditedPulses;
        if (achieved < claimed - kAuditTolerance)
            ++d.auditFailures;
    }
}

// ---------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------

struct Report
{
    bool correct = true;
    std::vector<std::string> problems;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::map<std::string, std::pair<double, std::string>> metrics;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = {value, unit};
    }
    void
    fail(const std::string &why)
    {
        correct = false;
        if (problems.size() < 20)
            problems.push_back(why);
    }
};

/**
 * Fill the program's lazily built static tables from one thread before
 * the in-process references go parallel. pauliBasis()
 * (src/linalg/unitary_util.cpp) fills its per-width cache unguarded, so
 * its first concurrent callers race; this keeps the references exact.
 * The daemon under test gets no such help (see RATIONALE.md).
 */
void
warmStaticCaches()
{
    for (int n = 1; n <= 4; ++n)
        paqoc::pauliSplitNorms(
            paqoc::Matrix::identity(std::size_t{1} << n), n);
}

/** Open the reference library copy; its epoch and the open time. */
Epoch
loadEpoch(const std::string &dir, double *recover_ms)
{
    Epoch epoch;
    *recover_ms = 0.0;
    if (dir.empty())
        return epoch;
    const std::string copy = dir + "-replay";
    fs::copy(dir, copy, fs::copy_options::recursive);
    const auto t0 = std::chrono::steady_clock::now();
    {
        paqoc::PulseLibrary spectral(
            copy + "/spectral", paqoc::PulseLibrary::spectralFingerprint());
        paqoc::PulseLibrary grape(copy + "/grape",
                                  paqoc::PulseLibrary::grapeFingerprint(
                                      paqoc::GrapeOptions{}));
        epoch.spectral = spectral.entriesSnapshot();
        epoch.grape = grape.entriesSnapshot();
    }
    *recover_ms = 1e3 * seconds(t0);
    return epoch;
}

/** One traced (or untraced) replay pass over a request list. */
struct ReplayPass
{
    double wallSeconds = 0.0;
    std::vector<Span> spans;
    std::vector<ReplayOutput> outputs;
};

ReplayPass
replayPass(const std::vector<paqoc::CompileJob> &jobs, const Epoch &epoch,
           bool spans_on)
{
    ReplayPass pass;
    pass.outputs.resize(jobs.size());
    std::vector<std::unique_ptr<SpanLog>> logs;
    for (int t = 0; t < kClients; ++t)
        logs.push_back(spans_on ? std::make_unique<SpanLog>() : nullptr);
    const auto t0 = std::chrono::steady_clock::now();
    parallelFor(jobs.size(), kClients, [&](std::size_t i, int t) {
        pass.outputs[i] = replayCompile(
            jobs[i], epoch, logs[static_cast<std::size_t>(t)].get(), i);
    });
    pass.wallSeconds = seconds(t0);
    for (const auto &log : logs) {
        if (!log)
            continue;
        // Parent indices are log-local; rebase them into the merge.
        const int base = static_cast<int>(pass.spans.size());
        for (Span s : log->spans()) {
            if (s.parent >= 0)
                s.parent += base;
            pass.spans.push_back(std::move(s));
        }
    }
    return pass;
}

Report
run(const Args &args)
{
    Report rep;
    const Workload w = args.workload;
    Stack stack = setUp(args);

    // Measured phase, after an unmeasured one on another seed's stream
    // that lets a fresh daemon reach its steady state. With concurrent
    // clients every serving process first compiles one fixed job
    // serially (see warmupJob()).
    const Json serial_warmup = paqoc::compileJobToJson(warmupJob());
    LoadPlan plan;
    plan.clients = stack.clients;
    plan.serialWarmup = stack.clients > 1 ? &serial_warmup : nullptr;
    plan.warmupSeconds = kWarmupSeconds;
    plan.warmupRequest = [&](std::size_t i) {
        return paqoc::compileJobToJson(
            streamJob(w, args.seed ^ kWarmupSeedMask, i));
    };
    plan.seconds = args.seconds;
    plan.request = [&](std::size_t i) {
        return paqoc::compileJobToJson(streamJob(w, args.seed, i));
    };
    const LoadResult load = runClosedLoop(stack.daemon->target(),
                                          stack.daemon->pid(), plan);
    if (const int code = stack.daemon->stop(); code != 0)
        rep.fail("paqocd exited " + std::to_string(code)
                 + " on SIGTERM");

    std::vector<double> latencies;
    std::vector<double> overheads;
    std::map<std::string, std::size_t> job_index;
    std::vector<DistinctJob> distinct;
    for (std::size_t c = 0; c < load.completions.size(); ++c) {
        const Completion &done = load.completions[c];
        ++rep.attempted;
        if (!done.ok) {
            ++rep.failed;
            std::printf("e2ebench: request %zu failed: %s\n", done.index,
                        done.error.substr(0, 200).c_str());
            continue;
        }
        latencies.push_back(done.latencyMs);
        overheads.push_back(done.latencyMs - done.serverMs);
        const paqoc::CompileJob job = streamJob(w, args.seed, done.index);
        const std::string text = requestText(job);
        const auto [it, inserted] =
            job_index.emplace(text, distinct.size());
        if (inserted) {
            DistinctJob d;
            d.job = job;
            d.request = text;
            distinct.push_back(std::move(d));
        }
        distinct[it->second].served.push_back(c);
    }
    if (rep.attempted == 0)
        throw std::runtime_error("no request completed");
    // Check order: by first stream index, so the replayed subset is
    // the same whatever order the clients finished in.
    auto first_index = [&](const DistinctJob &d) {
        std::size_t first = SIZE_MAX;
        for (std::size_t c : d.served)
            first = std::min(first, load.completions[c].index);
        return first;
    };
    std::sort(distinct.begin(), distinct.end(),
              [&](const DistinctJob &a, const DistinctJob &b) {
                  return first_index(a) < first_index(b);
              });
    for (std::size_t i = 0; i < distinct.size(); ++i)
        job_index[distinct[i].request] = i;

    // References: PulseService::handle over the same epoch (a copy of
    // the set-up library, or empty) for every distinct job, and the
    // replay for the first kReplayChecked of them; both must reproduce
    // the daemon's payload byte for byte. The replay's circuits feed
    // the equivalence check and the pulse audit.
    warmStaticCaches();
    double recover_ms = 0.0;
    const Epoch epoch = loadEpoch(stack.referenceLibrary, &recover_ms);
    paqoc::ServiceOptions ref_opts;
    ref_opts.libraryDir = stack.referenceLibrary;
    paqoc::PulseService reference(ref_opts);
    paqoc::PulseService cold{paqoc::ServiceOptions{}};
    parallelFor(distinct.size(), kClients, [&](std::size_t i, int) {
        DistinctJob &d = distinct[i];
        const Json request = Json::parse(d.request);
        const auto t0 = std::chrono::steady_clock::now();
        const Json ref = reference.handle(request);
        d.handleMs = 1e3 * seconds(t0);
        if (!ref.get("ok", Json(false)).asBool())
            throw std::runtime_error("reference failed: " + ref.dump());
        d.referencePayload = ref.at("payload").dump();
        if (w == Workload::SpectralWarm)
            d.drifted = cold.handle(request).at("payload").dump()
                != d.referencePayload;
        const Json payload = Json::parse(d.referencePayload);
        d.latencyDt = payload.at("latency_dt").asNumber();
        d.esp = payload.at("esp").asNumber();
        if (i >= kReplayChecked)
            return;
        const ReplayOutput out = replayCompile(d.job, epoch, nullptr, i);
        d.replayed = true;
        d.replayMatches = out.payload == d.referencePayload;
        d.equivalence =
            equivalenceFidelity(out.physical, out.report.circuit,
                                args.seed ^ i);
        auditPulses(payload, out.report.circuit, d);
    });

    std::size_t served_ok = 0;
    std::size_t payload_mismatch = 0;
    std::size_t replay_mismatch = 0;
    std::size_t replayed = 0;
    std::size_t checked = 0;
    double worst_equivalence = 1.0;
    std::size_t audited = 0;
    std::size_t audit_failures = 0;
    std::size_t drifted = 0;
    std::vector<double> quality_dt;
    std::vector<double> quality_esp;
    for (const DistinctJob &d : distinct) {
        for (std::size_t c : d.served) {
            ++served_ok;
            if (load.completions[c].payload != d.referencePayload)
                ++payload_mismatch;
        }
        if (d.replayed && !d.replayMatches)
            ++replay_mismatch;
        replayed += d.replayed ? 1 : 0;
        if (d.equivalence >= 0.0) {
            ++checked;
            worst_equivalence = std::min(worst_equivalence, d.equivalence);
        }
        // Every served copy of a schedule counts in the audit.
        audited += d.auditedPulses * d.served.size();
        audit_failures += d.auditFailures * d.served.size();
        drifted += d.drifted ? 1 : 0;
        quality_dt.push_back(d.latencyDt);
        quality_esp.push_back(d.esp);
    }
    if (payload_mismatch > 0)
        rep.fail(std::to_string(payload_mismatch)
                 + " served payloads differ from the in-process "
                   "PulseService reference");
    if (replay_mismatch > 0)
        rep.fail(std::to_string(replay_mismatch)
                 + " replayed payloads differ from the reference");
    if (worst_equivalence < 1.0 - kEquivalenceTolerance)
        rep.fail("compiled circuit not equivalent to its input "
                 "(fidelity "
                 + std::to_string(worst_equivalence) + ")");

    const Tail tail = tailPercentile(latencies);
    const double audit_share = audited == 0
        ? 0.0
        : static_cast<double>(audit_failures)
            / static_cast<double>(audited);
    const double drift_share = w == Workload::SpectralWarm
        ? static_cast<double>(drifted)
            / static_cast<double>(distinct.size())
        : 0.0;
    std::printf("e2ebench: workload %s, seed %llu (held-out seed %llu "
                "is reserved for claims), %d client(s), %.1f s\n",
                workloadName(w),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(kHeldOutSeed),
                stack.clients, load.wallSeconds);
    std::printf("e2ebench: compile_tail_ms = %.3f at p%.2f of %zu "
                "samples (%s)\n",
                tail.value, tail.percentile, tail.samples,
                tail.defined ? "10 samples beyond it"
                             : "fewer than 11 samples: the maximum");
    std::printf("e2ebench: checks: %zu/%zu served payloads identical "
                "to the reference, %zu/%zu replays identical, "
                "%zu/%zu replayed jobs simulated (<= %zu active "
                "qubits), worst fidelity %.12f\n",
                served_ok - payload_mismatch, served_ok,
                replayed - replay_mismatch, replayed,
                checked, replayed, kMaxCheckedQubits,
                worst_equivalence);
    std::printf("e2ebench: pulse_audit_fail_share = %.6f (%zu of %zu "
                "emitted schedules miss their claimed fidelity)\n",
                audit_share, audit_failures, audited);
    if (w == Workload::SpectralWarm)
        std::printf("e2ebench: payload_drift_share = %.6f (%zu of %zu "
                    "jobs differ from a cold empty-cache compile)\n",
                    drift_share, drifted, distinct.size());

    if (!args.trace) {
        rep.set("compile_rps",
                static_cast<double>(latencies.size()) / load.wallSeconds,
                "1/s");
        rep.set("compile_p50_ms", median(latencies), "ms");
        rep.set("setup_s", median(stack.setupSeconds), "s");
        rep.set("daemon_peak_rss_mb", load.procAfter.peakRssMb, "MiB");
        rep.set("pulse_latency_dt_geomean", geomean(quality_dt), "dt");
        rep.set("esp_geomean", geomean(quality_esp), "1");
        return rep;
    }

    // Traced replay of the served stream's prefix, spans off then on.
    std::vector<paqoc::CompileJob> stream;
    {
        std::vector<std::size_t> indices;
        for (const Completion &done : load.completions)
            if (done.ok)
                indices.push_back(done.index);
        std::sort(indices.begin(), indices.end());
        if (indices.size() > kReplayCap)
            indices.resize(kReplayCap);
        for (std::size_t i : indices)
            stream.push_back(streamJob(w, args.seed, i));
    }
    if (stream.empty())
        throw std::runtime_error("no ok request to replay");
    const ReplayPass off = replayPass(stream, epoch, false);
    const ReplayPass on = replayPass(stream, epoch, true);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const DistinctJob &d =
            distinct[job_index.at(requestText(stream[i]))];
        if (on.outputs[i].payload != d.referencePayload
            || off.outputs[i].payload != d.referencePayload)
            rep.fail("traced replay payload differs from the daemon's");
    }
    {
        const fs::path traces = fs::path(args.workdir) / "traces";
        fs::create_directories(traces);
        std::ofstream out(traces
                          / (std::string(workloadName(w)) + "-s"
                             + std::to_string(args.seed) + ".jsonl"));
        out << spansToJsonLines(on.spans);
    }

    const double n = static_cast<double>(stream.size());
    const std::map<std::string, double> self = selfTimeByName(on.spans);
    auto layer_ms = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : 1e3 * it->second / n;
    };
    double gates_covered = 0.0;
    double merges = 0.0;
    double candidates = 0.0;
    double pulse_calls = 0.0;
    double cache_hits = 0.0;
    double grape_iters = 0.0;
    double payload_bytes = 0.0;
    for (const ReplayOutput &o : on.outputs) {
        gates_covered += o.report.gatesCovered;
        merges += o.report.merges;
        candidates += o.mergeCandidates;
        pulse_calls += static_cast<double>(o.report.pulseCalls);
        cache_hits += static_cast<double>(o.report.cacheHits);
        grape_iters += static_cast<double>(o.itersCharged);
        payload_bytes += static_cast<double>(o.payload.size());
    }
    std::vector<double> handle_ms;
    for (const DistinctJob &d : distinct)
        handle_ms.push_back(d.handleMs);
    const double rps_off = n / off.wallSeconds;
    const double rps_on = n / on.wallSeconds;

    rep.set("circuit.parse_ms", layer_ms("circuit.parse"), "ms");
    rep.set("transpile.route_ms", layer_ms("transpile.route"), "ms");
    rep.set("mining.mine_ms", layer_ms("mining.mine"), "ms");
    rep.set("mining.gates_covered", gates_covered / n, "count");
    rep.set("paqoc.merge_ms", layer_ms("paqoc.merge"), "ms");
    rep.set("paqoc.merge_commit_ratio",
            candidates > 0 ? merges / candidates : 0.0, "ratio");
    rep.set("accqoc.partition_ms", layer_ms("accqoc.partition"), "ms");
    rep.set("qoc.cache_warm_ms", layer_ms("qoc.cache_warm"), "ms");
    rep.set("qoc.pulse_ms", layer_ms("qoc.pulse"), "ms");
    rep.set("qoc.pulse_calls", pulse_calls / n, "count");
    rep.set("qoc.cache_hit_ratio",
            pulse_calls > 0 ? cache_hits / pulse_calls : 0.0, "ratio");
    rep.set("qoc.grape_ms", layer_ms("qoc.grape"), "ms");
    rep.set("qoc.grape_iters", grape_iters / n, "count");
    rep.set("paqoc.payload_ms", layer_ms("paqoc.payload"), "ms");
    rep.set("paqoc.payload_bytes", payload_bytes / n, "bytes");
    double request_s = 0.0;
    for (const Span &s : on.spans)
        if (s.parent < 0)
            request_s += s.end - s.start;
    rep.set("replay.request_ms", 1e3 * request_s / n, "ms");
    rep.set("service.handle_ms", median(handle_ms), "ms");
    rep.set("service.overhead_ms", median(overheads), "ms");
    rep.set("service.rejected",
            sumStats(load.statsAfter, "scheduler.rejected")
                - sumStats(load.statsBefore, "scheduler.rejected"),
            "count");
    rep.set("service.shed",
            sumStats(load.statsAfter, "scheduler.shed")
                - sumStats(load.statsBefore, "scheduler.shed"),
            "count");
    rep.set("service.errors",
            sumStats(load.statsAfter, "serving.errors")
                - sumStats(load.statsBefore, "serving.errors"),
            "count");
    rep.set("service.cpu_util",
            (load.procAfter.cpuSeconds - load.procBefore.cpuSeconds)
                / (load.wallSeconds
                   * static_cast<double>(
                       std::thread::hardware_concurrency())),
            "ratio");
    rep.set("service.processes",
            static_cast<double>(load.procAfter.processes), "count");
    rep.set("store.recover_ms", recover_ms, "ms");
    double appended = 0.0;
    for (const char *lib : {"spectral", "grape"}) {
        const std::string path =
            std::string("libraries.") + lib + ".appended_records";
        appended += sumStats(load.statsAfter, path)
            - sumStats(load.statsBefore, path);
    }
    rep.set("store.appended_records", appended, "count");
    rep.set("fleet.ping_ms", median(load.pingMs), "ms");
    rep.set("trace.overhead_pct", 100.0 * (rps_off / rps_on - 1.0), "%");
    rep.set("compile_tail_ms", tail.value, "ms");
    rep.set("error_share",
            static_cast<double>(rep.failed)
                / static_cast<double>(rep.attempted),
            "ratio");
    rep.set("pulse_audit_fail_share", audit_share, "ratio");
    rep.set("payload_drift_share", drift_share, "ratio");
    return rep;
}

} // namespace
} // namespace e2ebench

int
main(int argc, char **argv)
{
    using namespace e2ebench;
    try {
        Args args = parseArgs(argc, argv);
        args.paqocd = fs::absolute(args.paqocd).string();
        args.workdir = fs::absolute(args.workdir).string();
        // A private directory per run: short relative socket paths,
        // nothing shared with a concurrent run.
        const fs::path dir = fs::path(args.workdir)
            / (std::string(workloadName(args.workload)) + "-"
               + std::to_string(::getpid()));
        fs::remove_all(dir);
        fs::create_directories(dir);
        fs::current_path(dir);
        Report rep;
        try {
            rep = run(args);
        } catch (...) {
            // Keep the daemon logs of a failed run.
            std::fprintf(stderr, "e2ebench: run directory kept: %s\n",
                         dir.c_str());
            throw;
        }
        fs::current_path(args.workdir);
        fs::remove_all(dir);
        for (const std::string &p : rep.problems)
            std::printf("e2ebench: CHECK FAILED: %s\n", p.c_str());
        Json metrics = Json::object();
        for (const auto &[name, value] : rep.metrics) {
            Json m = Json::object();
            m.set("value", Json(value.first));
            m.set("unit", Json(value.second));
            metrics.set(name, std::move(m));
        }
        Json out = Json::object();
        out.set("correct", Json(rep.correct));
        out.set("attempted", Json(rep.attempted));
        out.set("failed", Json(rep.failed));
        out.set("metrics", std::move(metrics));
        std::printf("%s\n", out.dump().c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }
}
