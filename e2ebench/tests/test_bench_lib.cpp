// Tests of the benchmark's own arithmetic and request streams. Build
// and run with:
//   cmake --build .bench_build --target e2ebench_tests
//   .bench_build/e2ebench_tests

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "bench_lib.h"

namespace e2ebench {
namespace {

std::vector<std::string>
streamPrefix(Workload w, std::uint64_t seed, std::size_t n)
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(requestText(streamJob(w, seed, i)));
    return out;
}

TEST(Stream, SameSeedGivesByteIdenticalRequests)
{
    for (Workload w : {Workload::SpectralWarm, Workload::SpectralFresh,
                       Workload::GrapeCold}) {
        EXPECT_EQ(streamPrefix(w, 42, 64), streamPrefix(w, 42, 64))
            << workloadName(w);
    }
    std::vector<std::string> a;
    std::vector<std::string> b;
    for (const paqoc::CompileJob &j : warmHistory(42))
        a.push_back(requestText(j));
    for (const paqoc::CompileJob &j : warmHistory(42))
        b.push_back(requestText(j));
    EXPECT_EQ(a, b);
}

TEST(Stream, DifferentSeedGivesDifferentRequests)
{
    for (Workload w : {Workload::SpectralWarm, Workload::SpectralFresh,
                       Workload::GrapeCold}) {
        EXPECT_NE(streamPrefix(w, 1, 64), streamPrefix(w, 2, 64))
            << workloadName(w);
    }
    std::vector<std::string> a;
    std::vector<std::string> b;
    for (const paqoc::CompileJob &j : warmHistory(1))
        a.push_back(requestText(j));
    for (const paqoc::CompileJob &j : warmHistory(2))
        b.push_back(requestText(j));
    EXPECT_NE(a, b);
}

TEST(Stream, FreshRequestsAreNeverRepeated)
{
    const std::vector<std::string> s =
        streamPrefix(Workload::SpectralFresh, 7, 500);
    const std::set<std::string> distinct(s.begin(), s.end());
    EXPECT_EQ(distinct.size(), s.size());
}

TEST(Stream, WarmStreamDrawsFromTheJobSet)
{
    std::set<std::string> set;
    for (const paqoc::CompileJob &j : warmJobSet())
        set.insert(requestText(j));
    EXPECT_EQ(set.size(), warmBenchmarks().size() * 3);
    for (const std::string &r :
         streamPrefix(Workload::SpectralWarm, 3, 200))
        EXPECT_TRUE(set.count(r)) << r;
}

TEST(Tail, HighestPercentileWithTenSamplesBeyond)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    const Tail t = tailPercentile(v);
    EXPECT_TRUE(t.defined);
    EXPECT_EQ(t.samples, 100u);
    EXPECT_DOUBLE_EQ(t.value, 90.0); // 91..100 lie beyond it
    EXPECT_DOUBLE_EQ(t.percentile, 90.0);

    std::vector<double> w;
    for (int i = 1; i <= 1000; ++i)
        w.push_back(i);
    const Tail big = tailPercentile(w);
    EXPECT_DOUBLE_EQ(big.value, 990.0);
    EXPECT_DOUBLE_EQ(big.percentile, 99.0);
}

TEST(Tail, SmallSamples)
{
    std::vector<double> eleven;
    for (int i = 1; i <= 11; ++i)
        eleven.push_back(i);
    const Tail t = tailPercentile(eleven);
    EXPECT_TRUE(t.defined);
    EXPECT_DOUBLE_EQ(t.value, 1.0); // ten samples beyond the minimum

    eleven.pop_back();
    const Tail u = tailPercentile(eleven);
    EXPECT_FALSE(u.defined);
    EXPECT_DOUBLE_EQ(u.value, 10.0); // no such percentile: the maximum
    EXPECT_FALSE(tailPercentile({}).defined);
}

TEST(Stats, MedianAndGeomean)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_NEAR(geomean({1.0, 4.0, 16.0}), 4.0, 1e-12);
}

Span
span(const char *name, double start, double end, int parent)
{
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    return s;
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    // Children overlap ([1,3] and [2,5]) and one runs past the parent
    // ([8,12] counts only up to 10): covered = [1,5] + [8,10] = 6.
    const std::vector<Span> spans = {
        span("request", 0.0, 10.0, -1), span("a", 1.0, 3.0, 0),
        span("a", 2.0, 5.0, 0), span("b", 8.0, 12.0, 0),
        span("c", 8.5, 9.0, 3)};
    const std::vector<double> self = spanSelfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 4.0);
    EXPECT_DOUBLE_EQ(self[1], 2.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0);
    EXPECT_DOUBLE_EQ(self[3], 3.5); // its own child covers 0.5
    EXPECT_DOUBLE_EQ(self[4], 0.5);

    const auto by_name = selfTimeByName(spans);
    EXPECT_DOUBLE_EQ(by_name.at("request"), 4.0);
    EXPECT_DOUBLE_EQ(by_name.at("a"), 5.0);
    EXPECT_DOUBLE_EQ(by_name.at("b"), 3.5);
    EXPECT_DOUBLE_EQ(by_name.at("c"), 0.5);
}

TEST(Spans, LogNests)
{
    SpanLog log;
    {
        ScopedSpan outer(&log, "outer", 7);
        {
            ScopedSpan inner(&log, "inner", 7);
        }
        log.add("added", 1.0, 2.0, 7);
    }
    ASSERT_EQ(log.spans().size(), 3u);
    EXPECT_EQ(log.spans()[0].parent, -1);
    EXPECT_EQ(log.spans()[1].parent, 0);
    EXPECT_EQ(log.spans()[2].parent, 0);
    EXPECT_EQ(log.spans()[1].request, 7u);
    EXPECT_LE(log.spans()[0].start, log.spans()[1].start);
    EXPECT_GE(log.spans()[0].end, log.spans()[1].end);
}

} // namespace
} // namespace e2ebench
