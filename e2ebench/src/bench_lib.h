#ifndef E2EBENCH_BENCH_LIB_H_
#define E2EBENCH_BENCH_LIB_H_

/**
 * @file
 * Pure building blocks of the end-to-end benchmark: the seeded request
 * streams of the three workloads, the summary statistics, and the span
 * log with its self-time arithmetic. Nothing here touches a process,
 * a socket or the clock except Span timing.
 */

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/service.h"

namespace e2ebench {

enum class Workload { SpectralWarm, SpectralFresh, GrapeCold };

/** Parse a workload name; throws std::invalid_argument if unknown. */
Workload parseWorkload(const std::string &name);
const char *workloadName(Workload w);

// ---------------------------------------------------------------------
// Seeded request streams. Request `index` of a stream is a pure
// function of (workload, seed, index), so clients can draw indices from
// a shared counter and the stream is still byte-identical per seed.
// ---------------------------------------------------------------------

/** Table I benchmarks served by spectral-warm (cost outliers left out). */
const std::vector<std::string> &warmBenchmarks();

/** The spectral-warm job set: warmBenchmarks() x {M=0, M=tuned, accqoc}. */
std::vector<paqoc::CompileJob> warmJobSet();

/**
 * Set-up history of spectral-warm, served serially before the measured
 * phase: the job set in a seeded order, each job followed by one
 * random circuit of the spectral-fresh generator (other users).
 */
std::vector<paqoc::CompileJob> warmHistory(std::uint64_t seed);

/**
 * A random OpenQASM 2.0 circuit, one statement per line: `qubits`
 * qubits, `gates` gates from {h, x, sx, t, rz(theta), cx}, with a
 * continuous rz angle so no two circuits share their unitaries.
 */
std::string randomQasm(std::uint64_t seed, int qubits, int gates);

/**
 * A random circuit of fixed shape: `layers` rounds of rz-sx-rz on
 * every qubit, each closed by one cx along the line, with random
 * angles. Every instance has the same structure and so a similar
 * compile cost; only its unitaries are new.
 */
std::string layeredQasm(std::uint64_t seed, int qubits, int layers);

/** Request `index` of a workload's measured stream. */
paqoc::CompileJob streamJob(Workload w, std::uint64_t seed,
                            std::size_t index);

/** The wire text of a compile request (no id: the client stamps it). */
std::string requestText(const paqoc::CompileJob &job);

// ---------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------

double median(std::vector<double> values);

/** Geometric mean of positive values (0 for an empty input). */
double geomean(const std::vector<double> &values);

/**
 * The highest percentile that has at least `beyond` samples above it:
 * the order statistic with exactly `beyond` samples after it in sorted
 * order, labelled with the share of samples at or below it. With fewer
 * than beyond + 1 samples no such percentile exists; `defined` is then
 * false and the value is the maximum.
 */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0;
    std::size_t samples = 0;
    bool defined = false;
};
Tail tailPercentile(std::vector<double> values, std::size_t beyond = 10);

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/** The span clock: steady-clock seconds. */
double spanClock();

/** One timed call at a layer boundary. Times are seconds. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span in the same log, -1 for a root. */
    int parent = -1;
    std::uint64_t request = 0;
};

/**
 * Per-thread span log. Code that records spans takes a SpanLog
 * pointer; a null one records nothing and costs one branch per
 * boundary, so the same replay code runs with spans on and off.
 */
class SpanLog
{
  public:
    /** Open a span under the innermost open one; returns its index. */
    int open(const char *name, std::uint64_t request);
    void close(int index);
    /** Add an already-timed span under the innermost open one. */
    void add(const char *name, double start, double end,
             std::uint64_t request);
    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span on a log (a null log records nothing). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, std::uint64_t request)
        : log_(log),
          index_(log != nullptr ? log->open(name, request) : -1)
    {}
    ~ScopedSpan()
    {
        if (index_ >= 0)
            log_->close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    int index_;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by the union of its children (children may overlap).
 */
std::vector<double> spanSelfTimes(const std::vector<Span> &spans);

/** Sum of self times per span name. */
std::map<std::string, double> selfTimeByName(const std::vector<Span> &spans);

/** One JSON object per line: name, start, end, parent, request. */
std::string spansToJsonLines(const std::vector<Span> &spans);

} // namespace e2ebench

#endif // E2EBENCH_BENCH_LIB_H_
