#include "bench_lib.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/json.h"
#include "common/rng.h"

namespace e2ebench {

namespace {

/** Independent stream per (seed, salt, index): splitmix of a mix. */
paqoc::Rng
streamRng(std::uint64_t seed, std::uint64_t salt, std::uint64_t index)
{
    paqoc::Rng mix(seed * 0x9e3779b97f4a7c15ULL ^ salt);
    const std::uint64_t base = mix.next();
    return paqoc::Rng(base ^ (index * 0xbf58476d1ce4e5b9ULL + salt));
}

constexpr std::uint64_t kSaltWarm = 0x7761726d;   // "warm"
constexpr std::uint64_t kSaltFresh = 0x66726573;  // "fres"
constexpr std::uint64_t kSaltGrape = 0x67726170;  // "grap"
constexpr std::uint64_t kSaltOther = 0x6f746872;  // "othr"

paqoc::CompileJob
freshCircuitJob(std::uint64_t seed, std::uint64_t salt,
                std::size_t index)
{
    paqoc::Rng rng = streamRng(seed, salt, index);
    const int qubits = rng.range(4, 8);
    const int gates = rng.range(36, 44);
    paqoc::CompileJob job;
    job.qasm = randomQasm(rng.next(), qubits, gates);
    job.m = index % 2 == 0 ? "0" : "tuned";
    return job;
}

} // namespace

Workload
parseWorkload(const std::string &name)
{
    if (name == "spectral-warm")
        return Workload::SpectralWarm;
    if (name == "spectral-fresh")
        return Workload::SpectralFresh;
    if (name == "grape-cold")
        return Workload::GrapeCold;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

const char *
workloadName(Workload w)
{
    switch (w) {
    case Workload::SpectralWarm:
        return "spectral-warm";
    case Workload::SpectralFresh:
        return "spectral-fresh";
    case Workload::GrapeCold:
        return "grape-cold";
    }
    return "?";
}

const std::vector<std::string> &
warmBenchmarks()
{
    // Table I minus dnn and majority, whose single spectral compiles
    // (6.3 s and ~1 s) would dominate the mix.
    static const std::vector<std::string> names = {
        "mod5d2", "rd32", "decod24", "4gt10", "cnt3-5",
        "hwb4",   "ham7", "bv",      "adder", "qft",
        "qaoa",   "supre", "simon",  "qpe",   "bb84"};
    return names;
}

std::vector<paqoc::CompileJob>
warmJobSet()
{
    std::vector<paqoc::CompileJob> jobs;
    for (const std::string &name : warmBenchmarks()) {
        paqoc::CompileJob m0;
        m0.benchmark = name;
        m0.m = "0";
        paqoc::CompileJob tuned = m0;
        tuned.m = "tuned";
        paqoc::CompileJob acc = m0;
        acc.method = "accqoc";
        jobs.push_back(m0);
        jobs.push_back(tuned);
        jobs.push_back(acc);
    }
    return jobs;
}

std::vector<paqoc::CompileJob>
warmHistory(std::uint64_t seed)
{
    std::vector<paqoc::CompileJob> set = warmJobSet();
    paqoc::Rng rng = streamRng(seed, kSaltWarm, ~std::uint64_t{0});
    for (std::size_t i = set.size(); i > 1; --i)
        std::swap(set[i - 1], set[rng.below(i)]);
    std::vector<paqoc::CompileJob> history;
    for (std::size_t i = 0; i < set.size(); ++i) {
        history.push_back(set[i]);
        history.push_back(freshCircuitJob(seed, kSaltOther, i));
    }
    return history;
}

std::string
randomQasm(std::uint64_t seed, int qubits, int gates)
{
    paqoc::Rng rng(seed);
    std::string text = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
    text += "qreg q[" + std::to_string(qubits) + "];\n";
    static const char *const kOneQubit[] = {"h", "x", "sx", "t"};
    char line[96];
    for (int g = 0; g < gates; ++g) {
        const int kind = rng.range(0, 5);
        const int a = rng.range(0, qubits - 1);
        if (kind == 5) {
            int b = rng.range(0, qubits - 2);
            if (b >= a)
                ++b;
            std::snprintf(line, sizeof line, "cx q[%d],q[%d];\n", a, b);
        } else if (kind == 4) {
            std::snprintf(line, sizeof line, "rz(%.9f) q[%d];\n",
                          rng.uniform(-3.14159, 3.14159), a);
        } else {
            std::snprintf(line, sizeof line, "%s q[%d];\n",
                          kOneQubit[kind], a);
        }
        text += line;
    }
    return text;
}

std::string
layeredQasm(std::uint64_t seed, int qubits, int layers)
{
    paqoc::Rng rng(seed);
    std::string text = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
    text += "qreg q[" + std::to_string(qubits) + "];\n";
    char line[96];
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q < qubits; ++q) {
            std::snprintf(line, sizeof line,
                          "rz(%.9f) q[%d];\nsx q[%d];\nrz(%.9f) q[%d];\n",
                          rng.uniform(-3.14159, 3.14159), q, q,
                          rng.uniform(-3.14159, 3.14159), q);
            text += line;
        }
        const int a = l % (qubits - 1);
        std::snprintf(line, sizeof line, "cx q[%d],q[%d];\n", a, a + 1);
        text += line;
    }
    return text;
}

paqoc::CompileJob
streamJob(Workload w, std::uint64_t seed, std::size_t index)
{
    switch (w) {
    case Workload::SpectralWarm: {
        // Seeded shuffles of the whole job set, one after another: any
        // window of the stream holds every job about equally often, so
        // the mix, and with it the cost of a run, hardly varies by seed.
        static const std::vector<paqoc::CompileJob> set = warmJobSet();
        std::vector<std::size_t> order(set.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        paqoc::Rng rng = streamRng(seed, kSaltWarm, index / set.size());
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        return set[order[index % set.size()]];
    }
    case Workload::SpectralFresh:
        return freshCircuitJob(seed, kSaltFresh, index);
    case Workload::GrapeCold: {
        paqoc::CompileJob job;
        job.backend = "grape";
        job.emitPulses = true;
        job.maxn = 2;
        if (index % 10 == 0) {
            job.benchmark = "simon";
        } else {
            paqoc::Rng rng = streamRng(seed, kSaltGrape, index);
            job.qasm = layeredQasm(rng.next(), 3, 1);
            job.topology = "line:3";
        }
        return job;
    }
    }
    throw std::invalid_argument("bad workload");
}

std::string
requestText(const paqoc::CompileJob &job)
{
    return paqoc::compileJobToJson(job).dump();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

Tail
tailPercentile(std::vector<double> values, std::size_t beyond)
{
    Tail t;
    t.samples = values.size();
    if (values.empty())
        return t;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    t.defined = n > beyond;
    const std::size_t k = t.defined ? n - 1 - beyond : n - 1;
    t.value = values[k];
    t.percentile = 100.0 * static_cast<double>(k + 1)
        / static_cast<double>(n);
    return t;
}

double
spanClock()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
SpanLog::open(const char *name, std::uint64_t request)
{
    Span s;
    s.name = name;
    s.start = spanClock();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    spans_.push_back(std::move(s));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void
SpanLog::close(int index)
{
    spans_[static_cast<std::size_t>(index)].end = spanClock();
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

void
SpanLog::add(const char *name, double start, double end,
             std::uint64_t request)
{
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    spans_.push_back(std::move(s));
}

std::vector<double>
spanSelfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start, s.end);
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double lo = spans[i].start;
        const double hi = spans[i].end;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double run_lo = 0.0;
        double run_hi = -1.0;
        bool open_run = false;
        for (const auto &[a0, b0] : kids) {
            const double a = std::max(a0, lo);
            const double b = std::min(b0, hi);
            if (b <= a)
                continue;
            if (open_run && a <= run_hi) {
                run_hi = std::max(run_hi, b);
                continue;
            }
            if (open_run)
                covered += run_hi - run_lo;
            run_lo = a;
            run_hi = b;
            open_run = true;
        }
        if (open_run)
            covered += run_hi - run_lo;
        self[i] = (hi - lo) - covered;
    }
    return self;
}

std::map<std::string, double>
selfTimeByName(const std::vector<Span> &spans)
{
    const std::vector<double> self = spanSelfTimes(spans);
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < spans.size(); ++i)
        by_name[spans[i].name] += self[i];
    return by_name;
}

std::string
spansToJsonLines(const std::vector<Span> &spans)
{
    std::string out;
    for (const Span &s : spans) {
        paqoc::Json j = paqoc::Json::object();
        j.set("name", paqoc::Json(s.name));
        j.set("start", paqoc::Json(s.start));
        j.set("end", paqoc::Json(s.end));
        j.set("parent", paqoc::Json(s.parent));
        j.set("request", paqoc::Json(static_cast<double>(s.request)));
        out += j.dump();
        out += '\n';
    }
    return out;
}

} // namespace e2ebench
