/**
 * @file
 * Tests for the QOC stack: device Hamiltonians, GRAPE convergence on
 * known gates, minimum-duration search monotonicity, the spectral
 * latency model's paper-observation properties, and the pulse cache.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/expm.h"
#include "linalg/unitary_util.h"
#include "qoc/device.h"
#include "qoc/grape.h"
#include "qoc/latency_model.h"
#include "qoc/pulse_cache.h"
#include "qoc/pulse_generator.h"
#include "qoc/pulse_io.h"

#include "scratch_dir.h"

namespace paqoc {
namespace {

const Complex kI(0.0, 1.0);

/** Propagate a pulse schedule on a device and return the unitary. */
Matrix
propagate(const DeviceModel &device, const PulseSchedule &schedule)
{
    Matrix u = Matrix::identity(device.dim());
    for (const auto &slice : schedule.amplitudes)
        u = expmPropagator(device.sliceHamiltonian(slice), 1.0) * u;
    return u;
}

TEST(Device, ControlCountsAndBounds)
{
    const DeviceModel d1(1);
    EXPECT_EQ(d1.numControls(), 2u); // x0, y0
    const DeviceModel d2(2);
    EXPECT_EQ(d2.numControls(), 5u); // x0 y0 x1 y1 xy01
    const DeviceModel d3(3);
    EXPECT_EQ(d3.numControls(), 8u); // 6 drives + 2 couplings
    EXPECT_DOUBLE_EQ(d2.bound(0), DeviceModel::kOneQubitBound);
    EXPECT_DOUBLE_EQ(d2.bound(4), DeviceModel::kTwoQubitBound);
}

TEST(Device, ControlsAreHermitian)
{
    const DeviceModel d(3);
    for (std::size_t k = 0; k < d.numControls(); ++k)
        EXPECT_TRUE(d.control(k).isHermitian(1e-12)) << d.controlName(k);
}

TEST(Device, SliceHamiltonianIsLinearCombination)
{
    const DeviceModel d(2);
    std::vector<double> amps(d.numControls(), 0.0);
    amps[0] = 0.05;
    amps[4] = 0.01;
    Matrix expected = d.control(0);
    expected *= Complex(0.05, 0.0);
    Matrix c2 = d.control(4);
    c2 *= Complex(0.01, 0.0);
    expected += c2;
    EXPECT_TRUE(d.sliceHamiltonian(amps).approxEqual(expected, 1e-12));
}

TEST(Device, RejectsBadConfig)
{
    EXPECT_THROW(DeviceModel(0), FatalError);
    EXPECT_THROW(DeviceModel(2, {{0, 2}}), FatalError);
    EXPECT_THROW(DeviceModel(2, {{1, 1}}), FatalError);
}

TEST(Grape, ConvergesToXGate)
{
    const DeviceModel device(1);
    const Matrix x = Gate(Op::X, {0}).unitary();
    GrapeOptions opts;
    const GrapeResult r = grapeOptimize(device, x, 20, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_GE(r.schedule.fidelity, 1.0 - opts.targetInfidelity);
    // The returned amplitudes really do implement X.
    const Matrix realized = propagate(device, r.schedule);
    EXPECT_GE(traceFidelity(x, realized), 0.995);
}

TEST(Grape, ConvergesToHadamard)
{
    const DeviceModel device(1);
    const Matrix h = Gate(Op::H, {0}).unitary();
    const GrapeResult r = grapeOptimize(device, h, 20, GrapeOptions{});
    EXPECT_TRUE(r.converged);
    const Matrix realized = propagate(device, r.schedule);
    EXPECT_GE(traceFidelity(h, realized), 0.995);
}

TEST(Grape, FailsWhenDurationTooShort)
{
    // An X rotation needs ~pi/2 of phase at rate <= ~0.14; two slices
    // cannot reach it.
    const DeviceModel device(1);
    const Matrix x = Gate(Op::X, {0}).unitary();
    const GrapeResult r = grapeOptimize(device, x, 2, GrapeOptions{});
    EXPECT_FALSE(r.converged);
}

TEST(Grape, RespectsAmplitudeBounds)
{
    const DeviceModel device(1);
    const Matrix h = Gate(Op::H, {0}).unitary();
    const GrapeResult r = grapeOptimize(device, h, 24, GrapeOptions{});
    for (const auto &slice : r.schedule.amplitudes)
        for (std::size_t k = 0; k < slice.size(); ++k)
            EXPECT_LE(std::abs(slice[k]), device.bound(k) + 1e-12);
}

TEST(Grape, ConvergesToCxGate)
{
    const DeviceModel device(2);
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    GrapeOptions opts;
    opts.maxIterations = 400;
    const GrapeResult r = grapeOptimize(device, cx, 110, opts);
    EXPECT_TRUE(r.converged)
        << "fidelity reached: " << r.schedule.fidelity;
    const Matrix realized = propagate(device, r.schedule);
    EXPECT_GE(traceFidelity(cx, realized), 0.99);
}

TEST(Grape, MinimumDurationFindsShortPulse)
{
    const DeviceModel device(1);
    const Matrix h = Gate(Op::H, {0}).unitary();
    const MinDurationResult r =
        findMinimumDuration(device, h, GrapeOptions{}, 16);
    EXPECT_GE(r.schedule.fidelity, 1.0 - 1e-3);
    EXPECT_GT(r.trials, 1);
    // A Hadamard at drive bound 0.1 with x+y drives takes ~11-16 dt.
    EXPECT_LE(r.schedule.latency(), 24.0);
    EXPECT_GE(r.schedule.latency(), 6.0);
}

TEST(Grape, WarmStartNoWorseThanCold)
{
    const DeviceModel device(1);
    const Matrix h = Gate(Op::H, {0}).unitary();
    GrapeOptions opts;
    const GrapeResult cold = grapeOptimize(device, h, 20, opts);
    ASSERT_TRUE(cold.converged);
    // Re-optimizing with the converged pulse as guess converges in
    // one iteration.
    const GrapeResult warm =
        grapeOptimize(device, h, 20, opts, &cold.schedule);
    EXPECT_TRUE(warm.converged);
    EXPECT_LE(warm.iterations, cold.iterations);
}

TEST(LatencyModel, ObservationTwoWidthOrdering)
{
    // Wider gates cost more for comparable phase content.
    const SpectralLatencyModel model;
    const Matrix x1 = Gate(Op::X, {0}).unitary();
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const Matrix ccx = Gate(Op::CCX, {0, 1, 2}).unitary();
    const double l1 = model.latency(x1, 1);
    const double l2 = model.latency(cx, 2);
    const double l3 = model.latency(ccx, 3);
    EXPECT_LT(l1, l2);
    EXPECT_LT(l2, l3);
}

class ObservationOne : public ::testing::TestWithParam<int> {};

TEST_P(ObservationOne, MergedNeverExceedsSum)
{
    // Observation 1 at the compiler level: a merged gate carrying the
    // stitched-pulse latency cap is never modeled slower than its two
    // halves run back to back. (The raw spectral model can exceed the
    // sum near the principal-log branch cut; the cap -- which every
    // compiler pass installs -- is what restores the invariant.)
    Rng rng(500 + static_cast<std::uint64_t>(GetParam()));
    const SpectralLatencyModel model;
    const int n = 1 + GetParam() % 3;
    Circuit a(n), b(n);
    auto random_gate = [&](Circuit &c) {
        if (n >= 2 && rng.chance(0.5)) {
            const int q = rng.range(0, n - 2);
            c.cx(q, q + 1);
        } else {
            const int q = rng.range(0, n - 1);
            c.rz(q, rng.uniform(0.1, 3.0));
            c.h(q);
        }
    };
    for (int i = 0; i < 3; ++i)
        random_gate(a);
    for (int i = 0; i < 3; ++i)
        random_gate(b);
    const Matrix ua = circuitUnitary(a);
    const Matrix ub = circuitUnitary(b);
    const double separate = model.latency(ua, n) + model.latency(ub, n);
    const double merged =
        std::min(model.latency(ub * ua, n), separate);
    EXPECT_LE(merged, separate + 1e-12);
    EXPECT_GE(merged, 2.0); // never below the hardware floor
}

INSTANTIATE_TEST_SUITE_P(RandomMerges, ObservationOne,
                         ::testing::Range(0, 12));

TEST(LatencyOracleClamp, CustomGateRespectsLatencyCap)
{
    // The oracle-level view of Observation 1: a capped custom gate
    // never reports more than its cap.
    SpectralPulseGenerator gen;
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    const Matrix u = circuitUnitary(c);
    const double raw = gen.estimateLatency(u, 2);
    const Gate capped = Gate::custom("m", {1, 0}, u, 2,
                                     std::min(raw, 50.0));
    EXPECT_DOUBLE_EQ(capped.latencyCap(), std::min(raw, 50.0));
}

TEST(LatencyModel, ErrorGrowsWithWidthAndDuration)
{
    const SpectralLatencyModel model;
    EXPECT_LT(model.pulseError(1, 10), model.pulseError(2, 10));
    EXPECT_LT(model.pulseError(2, 10), model.pulseError(2, 200));
    EXPECT_LE(model.pulseError(3, 1e9), 0.5); // clamped
}

TEST(LatencyModel, CompileCostGrowsWithWidth)
{
    const SpectralLatencyModel model;
    EXPECT_LT(model.compileCost(1, 16), model.compileCost(2, 16));
    EXPECT_LT(model.compileCost(2, 80), model.compileCost(3, 80));
}

TEST(LatencyModel, GrapeAgreesWithModelOrdering)
{
    // Ground-truth check: GRAPE's measured minimum durations respect
    // the model's 1q < 2q ordering.
    GrapeOptions opts;
    opts.maxIterations = 400;
    const Matrix h = Gate(Op::H, {0}).unitary();
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const MinDurationResult r1 =
        findMinimumDuration(DeviceModel(1), h, opts, 12);
    const MinDurationResult r2 =
        findMinimumDuration(DeviceModel(2), cx, opts, 70);
    EXPECT_LT(r1.schedule.latency(), r2.schedule.latency());
}

TEST(PulseCache, ExactHitAfterInsert)
{
    PulseCache cache;
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    EXPECT_EQ(cache.lookup(cx, 2), nullptr);
    CachedPulse entry;
    entry.latency = 80.0;
    entry.error = 1e-3;
    cache.insert(cx, 2, entry);
    const CachedPulse *hit = cache.lookup(cx, 2);
    ASSERT_NE(hit, nullptr);
    EXPECT_DOUBLE_EQ(hit->latency, 80.0);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(PulseCache, GlobalPhaseMapsToSameKey)
{
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const Matrix phased = cx * std::exp(kI * 0.9);
    EXPECT_EQ(PulseCache::canonicalKey(cx, 2),
              PulseCache::canonicalKey(phased, 2));
}

TEST(PulseCache, QubitReversalMapsToSameKey)
{
    // Section V-B: the same customized gate with permuted qubits is
    // detected. On a path, reversal is the valid relabeling.
    const Matrix cx01 = Gate(Op::CX, {0, 1}).unitary();
    const Matrix cx10 = Gate(Op::CX, {1, 0}).unitary();
    // cx10's matrix over (q1 q0) ordering is the bit-reversed cx01.
    Circuit c(2);
    c.cx(1, 0);
    EXPECT_EQ(PulseCache::canonicalKey(cx01, 2),
              PulseCache::canonicalKey(circuitUnitary(c), 2));
    (void)cx10;
}

TEST(PulseCache, DistinctGatesDistinctKeys)
{
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const Matrix cz = Gate(Op::CZ, {0, 1}).unitary();
    EXPECT_NE(PulseCache::canonicalKey(cx, 2),
              PulseCache::canonicalKey(cz, 2));
}

TEST(PulseCache, NearestRespectsRadius)
{
    PulseCache cache;
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    CachedPulse entry;
    entry.latency = 80.0;
    cache.insert(cx, 2, entry);
    const Matrix cp = Gate(Op::CP, {0, 1}, 2.8).unitary(); // close-ish
    EXPECT_NE(cache.nearest(cp, 2, 10.0), nullptr);
    EXPECT_EQ(cache.nearest(cp, 2, 1e-6), nullptr);
    EXPECT_EQ(cache.nearest(cp, 1, 10.0), nullptr); // width filter
}

// ---- Canonical key bytes ----
//
// Keys name journal records, checkpoint files and tier entries, so
// their bytes must never change. The original formatter is kept here
// as the reference.

/** The original key formatter: printf of the values rounded at 1e-4. */
std::string
referenceQuantized(Complex z)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.4f,%.4f;",
                  std::round(z.real() * 1e4) / 1e4 + 0.0,
                  std::round(z.imag() * 1e4) / 1e4 + 0.0);
    return buf;
}

/**
 * A 1-qubit matrix [[pivot, a], [b, c]] whose real pivot dominates
 * every other entry: phase normalization then multiplies by exactly
 * one, so its key is the formatter applied to the raw values.
 */
Matrix
dominated(double pivot, Complex a, Complex b, Complex c)
{
    Matrix m(2, 2);
    m(0, 0) = pivot;
    m(0, 1) = a;
    m(1, 0) = b;
    m(1, 1) = c;
    return m;
}

std::string
referenceKey(const Matrix &m)
{
    return "1:" + referenceQuantized(m(0, 0))
        + referenceQuantized(m(0, 1)) + referenceQuantized(m(1, 0))
        + referenceQuantized(m(1, 1));
}

Matrix
randomUnitary(std::size_t n, Rng &rng)
{
    Matrix h(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            h(r, c) = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    h = h + h.adjoint();
    h *= Complex(0.5, 0.0);
    return expm(h * Complex(0.0, -1.0));
}

TEST(CanonicalKey, GoldenBytes)
{
    EXPECT_EQ(PulseCache::canonicalKey(Gate(Op::CX, {0, 1}).unitary(), 2),
              "2:1.0000,0.0000;0.0000,0.0000;0.0000,0.0000;0.0000,0.0000;"
              "0.0000,0.0000;0.0000,0.0000;0.0000,0.0000;1.0000,0.0000;"
              "0.0000,0.0000;0.0000,0.0000;1.0000,0.0000;0.0000,0.0000;"
              "0.0000,0.0000;1.0000,0.0000;0.0000,0.0000;0.0000,0.0000;");
    EXPECT_EQ(PulseCache::canonicalKey(Gate(Op::RZ, {0}, 0.3).unitary(), 1),
              "1:1.0000,0.0000;0.0000,0.0000;0.0000,0.0000;0.9553,0.2955;");
    Rng rng(2024);
    const std::string random_key =
        "3:"
        "-0.0275,0.3633;-0.0745,-0.1211;0.1186,0.1068;-0.1118,0.1867;"
        "-0.3020,0.3778;-0.3895,-0.0891;-0.4626,-0.0392;-0.3966,0.0886;"
        "0.3191,-0.0695;-0.0060,-0.2461;-0.1809,0.1187;0.0905,-0.3207;"
        "-0.2923,-0.2782;0.2583,-0.2539;-0.2409,0.5245;-0.1970,0.0949;"
        "-0.3245,0.0200;-0.0083,-0.0110;0.3464,-0.1322;0.5121,-0.0886;"
        "-0.4465,-0.2280;-0.2714,0.2212;-0.0325,0.1656;0.2901,0.0059;"
        "-0.3703,-0.0640;0.5639,0.2006;-0.1140,-0.1435;-0.0952,-0.3440;"
        "0.2357,0.1307;-0.1967,-0.2643;-0.2334,0.1712;0.1014,0.2536;"
        "0.4530,0.1656;-0.0908,0.0122;0.2200,-0.4929;-0.0153,-0.0388;"
        "0.0961,-0.1168;-0.2940,-0.5124;0.0011,-0.0718;0.2378,-0.1797;"
        "0.1647,0.1711;0.3038,0.2259;0.2064,-0.2326;-0.2554,0.0047;"
        "-0.2170,-0.3640;0.0091,0.1999;0.2996,-0.1019;-0.3912,0.4068;"
        "0.2163,-0.1980;0.6041,0.0000;0.3306,0.1175;0.0688,0.2815;"
        "-0.1009,0.2420;0.0884,-0.0100;0.1003,0.2168;-0.0821,-0.4488;"
        "0.1996,-0.3143;-0.0016,-0.2100;0.4596,0.1849;-0.2945,-0.4544;"
        "0.0833,-0.0339;-0.0596,0.2785;-0.3120,-0.2818;0.1127,0.0082;";
    EXPECT_EQ(PulseCache::canonicalKey(randomUnitary(8, rng), 3), random_key);
}

TEST(CanonicalKey, RoundingBoundariesAndNegativeZero)
{
    // Every +-x.xxxx5 boundary in [-2, 2], and the doubles either
    // side of it, formatted as the reference formats them.
    for (int k = -20000; k < 20000; ++k) {
        const double mid = (k + 0.5) / 1e4;
        const Matrix m =
            dominated(4.0, Complex(mid, -mid),
                      Complex(std::nextafter(mid, -3.0),
                              std::nextafter(mid, 3.0)),
                      Complex(-std::nextafter(mid, 3.0),
                              -std::nextafter(mid, -3.0)));
        ASSERT_EQ(PulseCache::canonicalKey(m, 1), referenceKey(m))
            << "k=" << k;
    }
    // Negative zero, and values that round to it, print as 0.0000.
    const Matrix zeros = dominated(4.0, Complex(-0.0, -0.0),
                                   Complex(-0.00004, -4e-9),
                                   Complex(0.00004, -0.0));
    EXPECT_EQ(PulseCache::canonicalKey(zeros, 1),
              "1:4.0000,0.0000;0.0000,0.0000;0.0000,0.0000;"
              "0.0000,0.0000;");
    EXPECT_EQ(PulseCache::canonicalKey(zeros, 1), referenceKey(zeros));
}

TEST(CanonicalKey, MatchesReferenceFormatterOnRandomValues)
{
    Rng rng(91);
    for (int i = 0; i < 100000; ++i) {
        auto value = [&] { return rng.uniform(-2.0, 2.0); };
        const Matrix m =
            dominated(4.0, Complex(value(), value()),
                      Complex(value(), value()),
                      Complex(value(), value()));
        ASSERT_EQ(PulseCache::canonicalKey(m, 1), referenceKey(m))
            << "i=" << i;
    }
    // Far outside a unitary's range, including magnitudes past the
    // integer fast path.
    for (int i = 0; i < 20000; ++i) {
        auto value = [&] {
            return rng.uniform(-1.0, 1.0)
                * std::pow(10.0, rng.uniform(-6.0, 12.0));
        };
        const Matrix m =
            dominated(1e13, Complex(value(), value()),
                      Complex(value(), value()),
                      Complex(value(), value()));
        ASSERT_EQ(PulseCache::canonicalKey(m, 1), referenceKey(m))
            << "i=" << i;
    }
}

// ---- Shared epoch layer ----

const Matrix kX{{0.0, 1.0}, {1.0, 0.0}};
const Matrix kY{{Complex(0, 0), Complex(0, -1)},
                {Complex(0, 1), Complex(0, 0)}};
const Matrix kZ{{1.0, 0.0}, {0.0, -1.0}};

CachedPulse
pulseOf(const Matrix &u, double latency)
{
    CachedPulse e;
    e.unitary = u;
    e.numQubits = 1;
    e.latency = latency;
    return e;
}

/** An epoch keyed the way a library keys its entries. */
std::shared_ptr<const PulseEpoch>
epochOf(const std::vector<CachedPulse> &entries)
{
    PulseEpoch::Entries keyed;
    for (const CachedPulse &e : entries)
        keyed[PulseCache::canonicalKey(e.unitary, e.numQubits)] = e;
    return std::make_shared<const PulseEpoch>(std::move(keyed));
}

/** The old serving path: insert the entries in canonical-key order. */
void
warmByInsert(PulseCache &cache, const std::vector<CachedPulse> &entries)
{
    const std::shared_ptr<const PulseEpoch> keyed = epochOf(entries);
    for (const auto &[key, e] : keyed->entries())
        cache.insert(e.unitary, e.numQubits, e);
}

TEST(PulseEpoch, KeyOrderOfTheTestGates)
{
    // The tie-break tests below rely on this order: Y < X < Z.
    const std::string x = PulseCache::canonicalKey(kX, 1);
    EXPECT_LT(PulseCache::canonicalKey(kY, 1), x);
    EXPECT_LT(x, PulseCache::canonicalKey(kZ, 1));
}

TEST(PulseEpoch, HitIsServedFromTheLayer)
{
    const auto epoch = epochOf({pulseOf(kX, 30.0), pulseOf(kZ, 20.0)});
    PulseCache cache;
    cache.attachEpoch(epoch);
    EXPECT_EQ(cache.generation(), 2u);
    EXPECT_EQ(cache.size(), 2u);

    const PulseCache::Acquired acq = cache.acquire(kX, 1);
    EXPECT_EQ(acq.role, PulseCache::FlightRole::Hit);
    ASSERT_TRUE(acq.entry.has_value());
    EXPECT_DOUBLE_EQ(acq.entry->latency, 30.0);
    EXPECT_EQ(acq.entry->generation, 0u);
    // A global phase maps onto the same epoch key.
    const std::optional<CachedPulse> z =
        cache.find(kZ * std::exp(kI * 0.4), 1);
    ASSERT_TRUE(z.has_value());
    EXPECT_DOUBLE_EQ(z->latency, 20.0);
    EXPECT_EQ(z->generation, 1u);
    const CachedPulse *x = cache.lookup(kX, 1);
    ASSERT_NE(x, nullptr);
    EXPECT_EQ(x, epoch->find(PulseCache::canonicalKey(kX, 1)));
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_FALSE(cache.find(kY, 1).has_value());
    // A miss outside the layer still elects a leader.
    EXPECT_EQ(cache.acquire(kY, 1).role, PulseCache::FlightRole::Leader);
    cache.abortFlight(kY, 1);
}

TEST(PulseEpoch, LocalEntryShadowsTheLayer)
{
    const auto epoch = epochOf({pulseOf(kX, 30.0)});
    PulseCache cache;
    cache.attachEpoch(epoch);
    cache.insert(kX, 1, pulseOf(kX, 25.0));
    const std::optional<CachedPulse> hit = cache.find(kX, 1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(hit->latency, 25.0);
    EXPECT_EQ(hit->generation, 1u);
    EXPECT_EQ(cache.acquire(kX, 1).entry->latency, 25.0);
    EXPECT_EQ(cache.size(), 1u);

    // The layer itself is untouched: a second cache still sees it.
    EXPECT_DOUBLE_EQ(
        epoch->find(PulseCache::canonicalKey(kX, 1))->latency, 30.0);
    PulseCache other;
    other.attachEpoch(epoch);
    EXPECT_DOUBLE_EQ(other.find(kX, 1)->latency, 30.0);
}

TEST(PulseEpoch, NearestBeforeSeesBothLayersLikeAnInsertWarmedCache)
{
    // X, Y and Z are all at distance 2 from the identity, so every
    // query below is decided by the generation horizon and the
    // canonical-key tie-break (Y < X < Z).
    const std::vector<CachedPulse> frozen = {pulseOf(kX, 30.0),
                                             pulseOf(kZ, 20.0)};
    PulseCache layered;
    layered.attachEpoch(epochOf(frozen));
    PulseCache reference;
    warmByInsert(reference, frozen);
    for (PulseCache *cache : {&layered, &reference})
        cache->insert(kY, 1, pulseOf(kY, 10.0));
    EXPECT_EQ(layered.generation(), reference.generation());

    const Matrix id = Matrix::identity(2);
    const std::vector<std::pair<std::uint64_t, double>> expected = {
        {0, -1.0}, // nothing before generation 0
        {1, 30.0}, // X only
        {2, 30.0}, // X and Z tie: X has the smaller key
        {3, 10.0}, // local Y wins the tie against epoch X
    };
    for (const auto &[bound, latency] : expected) {
        for (PulseCache *cache : {&layered, &reference}) {
            const std::optional<CachedPulse> seed =
                cache->nearestBefore(id, 1, 3.0, bound);
            if (latency < 0) {
                EXPECT_FALSE(seed.has_value()) << bound;
                continue;
            }
            ASSERT_TRUE(seed.has_value()) << bound;
            EXPECT_DOUBLE_EQ(seed->latency, latency) << bound;
        }
    }
    // Horizon 1 hides epoch Z even from a query at Z itself.
    for (PulseCache *cache : {&layered, &reference})
        EXPECT_DOUBLE_EQ(cache->nearestBefore(kZ, 1, 3.0, 1)->latency,
                         30.0);
    // Both caches pick the same entry under nearest() as well.
    EXPECT_DOUBLE_EQ(layered.nearest(id, 1, 3.0)->latency,
                     reference.nearest(id, 1, 3.0)->latency);

    // Re-inserting Z moves it past the horizon in both views: the
    // shadowed epoch copy must not leak back in.
    for (PulseCache *cache : {&layered, &reference})
        cache->insert(kZ, 1, pulseOf(kZ, 15.0));
    for (PulseCache *cache : {&layered, &reference}) {
        EXPECT_FALSE(cache->nearestBefore(kZ, 1, 0.5, 3).has_value());
        EXPECT_DOUBLE_EQ(cache->nearestBefore(kZ, 1, 0.5, 4)->latency,
                         15.0);
    }
}

TEST(PulseEpoch, SizeAndSaveIncludeTheLayer)
{
    const std::vector<CachedPulse> frozen = {pulseOf(kX, 30.0),
                                             pulseOf(kZ, 20.0)};
    PulseCache layered;
    layered.attachEpoch(epochOf(frozen));
    PulseCache reference;
    warmByInsert(reference, frozen);
    for (PulseCache *cache : {&layered, &reference}) {
        cache->insert(kY, 1, pulseOf(kY, 10.0));
        cache->insert(kZ, 1, pulseOf(kZ, 15.0)); // shadows the layer
    }
    EXPECT_EQ(layered.size(), 3u);
    EXPECT_EQ(layered.size(), reference.size());

    const std::string dir = test_support::scratchDir("epoch_save");
    layered.save(dir + "/layered.db");
    reference.save(dir + "/reference.db");
    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };
    EXPECT_EQ(slurp(dir + "/layered.db"), slurp(dir + "/reference.db"));

    PulseCache loaded;
    loaded.load(dir + "/layered.db");
    EXPECT_EQ(loaded.size(), 3u);
    EXPECT_DOUBLE_EQ(loaded.find(kX, 1)->latency, 30.0);
    EXPECT_DOUBLE_EQ(loaded.find(kZ, 1)->latency, 15.0);
}

TEST(PulseEpoch, LayerEntriesAreNeverSentToTheStore)
{
    struct Recorder : PulseStoreSink
    {
        std::vector<std::string> keys;
        void
        onInsert(const std::string &key, const CachedPulse &) override
        {
            keys.push_back(key);
        }
    } sink;
    PulseCache cache;
    cache.attachEpoch(epochOf({pulseOf(kX, 30.0)}));
    cache.attachStore(&sink);
    EXPECT_TRUE(cache.find(kX, 1).has_value());
    EXPECT_TRUE(sink.keys.empty());
    cache.insert(kY, 1, pulseOf(kY, 10.0));
    EXPECT_EQ(sink.keys,
              std::vector<std::string>{PulseCache::canonicalKey(kY, 1)});
}

TEST(PulseGenerator, SpectralCachesRepeatGates)
{
    SpectralPulseGenerator gen;
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const PulseGenResult first = gen.generate(cx, 2);
    EXPECT_FALSE(first.cacheHit);
    EXPECT_GT(first.costUnits, 0.0);
    const PulseGenResult second = gen.generate(cx, 2);
    EXPECT_TRUE(second.cacheHit);
    EXPECT_DOUBLE_EQ(second.costUnits, 0.0);
    EXPECT_DOUBLE_EQ(first.latency, second.latency);
    EXPECT_EQ(gen.cacheHits(), 1u);
    EXPECT_EQ(gen.generateCalls(), 2u);
}

TEST(PulseGenerator, EstimateMatchesGenerateForSpectral)
{
    SpectralPulseGenerator gen;
    const Matrix swap = Gate(Op::SWAP, {0, 1}).unitary();
    const double est = gen.estimateLatency(swap, 2);
    const PulseGenResult r = gen.generate(swap, 2);
    EXPECT_DOUBLE_EQ(est, r.latency);
}

TEST(PulseCache, DatabaseRoundTripOfflineOnline)
{
    // The paper's offline/online split (contribution 5): an offline
    // run generates pulses and saves the database; a fresh online run
    // loads it and serves every request as a cache hit.
    const std::string path =
        test_support::scratchDir("db_roundtrip") + "/pulse_db.txt";
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const Matrix h = Gate(Op::H, {0}).unitary();

    SpectralPulseGenerator offline;
    const PulseGenResult cx_off = offline.generate(cx, 2);
    const PulseGenResult h_off = offline.generate(h, 1);
    offline.saveDatabase(path);

    SpectralPulseGenerator online;
    online.loadDatabase(path);
    const PulseGenResult cx_on = online.generate(cx, 2);
    const PulseGenResult h_on = online.generate(h, 1);
    EXPECT_TRUE(cx_on.cacheHit);
    EXPECT_TRUE(h_on.cacheHit);
    EXPECT_DOUBLE_EQ(cx_on.latency, cx_off.latency);
    EXPECT_DOUBLE_EQ(h_on.latency, h_off.latency);
    EXPECT_DOUBLE_EQ(cx_on.error, cx_off.error);
}

TEST(PulseCache, DatabasePreservesGrapeSchedules)
{
    const std::string path =
        test_support::scratchDir("db_grape") + "/pulse_db.txt";
    GrapeOptions opts;
    GrapePulseGenerator offline(opts);
    const Matrix h = Gate(Op::H, {0}).unitary();
    const PulseGenResult off = offline.generate(h, 1);
    ASSERT_TRUE(off.schedule.has_value());
    offline.saveDatabase(path);

    GrapePulseGenerator online(opts);
    online.loadDatabase(path);
    const PulseGenResult on = online.generate(h, 1);
    EXPECT_TRUE(on.cacheHit);
    ASSERT_TRUE(on.schedule.has_value());
    ASSERT_EQ(on.schedule->numSlices(), off.schedule->numSlices());
    for (int t = 0; t < on.schedule->numSlices(); ++t)
        for (std::size_t k = 0;
             k < on.schedule->amplitudes[static_cast<std::size_t>(t)]
                     .size();
             ++k)
            EXPECT_NEAR(
                on.schedule->amplitudes[static_cast<std::size_t>(t)][k],
                off.schedule
                    ->amplitudes[static_cast<std::size_t>(t)][k],
                1e-12);
}

TEST(PulseCache, LoadRejectsCorruptDatabase)
{
    const std::string path =
        test_support::scratchDir("db_corrupt") + "/pulse_db.txt";
    {
        std::ofstream out(path);
        out << "not-a-db 9\n";
    }
    PulseCache cache;
    EXPECT_THROW(cache.load(path), FatalError);
    EXPECT_THROW(cache.load("/nonexistent/dir/db.txt"), FatalError);
}

TEST(PulseCache, LoadNamesTheBadLineAndLoadsNothing)
{
    // Build a valid database, then truncate it mid-entry: the error
    // must cite the offending line and the cache must stay empty (no
    // partial load).
    const std::string dir = test_support::scratchDir("db_bad_line");
    const std::string good = dir + "/pulse_db_good.txt";
    const std::string bad = dir + "/pulse_db_torn.txt";
    SpectralPulseGenerator gen;
    gen.generate(Gate(Op::CX, {0, 1}).unitary(), 2);
    gen.generate(Gate(Op::H, {0}).unitary(), 1);
    gen.saveDatabase(good);

    std::vector<std::string> lines;
    {
        std::ifstream in(good);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_GT(lines.size(), 3u);
    {
        std::ofstream out(bad);
        for (std::size_t i = 0; i + 1 < lines.size(); ++i)
            out << lines[i] << '\n';
        // Final line cut mid-row.
        out << lines.back().substr(0, 3) << '\n';
    }

    PulseCache cache;
    try {
        cache.load(bad);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("line " + std::to_string(lines.size())),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find(bad), std::string::npos) << msg;
    }
    EXPECT_EQ(cache.size(), 0u); // all-or-nothing

    // A garbage record type is also named.
    const std::string junk = dir + "/pulse_db_junk.txt";
    {
        std::ofstream out(junk);
        out << "paqoc-pulse-db 1\n";
        out << "entree 2 1 2 3\n";
    }
    try {
        cache.load(junk);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(PulseIo, JsonRoundTripsScheduleWithMetadata)
{
    // Unlike CSV, the JSON export carries fidelity and latency.
    const DeviceModel device(2);
    PulseSchedule schedule;
    schedule.fidelity = 0.9987654321012345;
    Rng rng(7);
    for (int t = 0; t < 5; ++t) {
        std::vector<double> slice;
        for (std::size_t k = 0; k < device.numControls(); ++k)
            slice.push_back(rng.uniform(-0.3, 0.3));
        schedule.amplitudes.push_back(std::move(slice));
    }

    const std::string json = pulseToJson(schedule, device);
    EXPECT_NE(json.find("\"paqoc-pulse-v1\""), std::string::npos);
    const PulseSchedule back = pulseFromJson(json, device);
    EXPECT_DOUBLE_EQ(back.fidelity, schedule.fidelity);
    ASSERT_EQ(back.numSlices(), schedule.numSlices());
    for (int t = 0; t < back.numSlices(); ++t)
        for (std::size_t k = 0; k < device.numControls(); ++k)
            EXPECT_EQ(
                back.amplitudes[static_cast<std::size_t>(t)][k],
                schedule.amplitudes[static_cast<std::size_t>(t)][k])
                << "slice " << t << " channel " << k;
    // Byte-stable: dumping the parsed schedule reproduces the bytes.
    EXPECT_EQ(pulseToJson(back, device), json);
}

TEST(PulseIo, JsonRoundTripsDegradedPayloads)
{
    // A stitched best-effort pulse ships with "degraded": true; the
    // tag must survive serialization without disturbing the waveform
    // bytes, and a healthy document must not grow the key.
    const DeviceModel device(1);
    PulseSchedule schedule;
    schedule.fidelity = 0.875;
    schedule.amplitudes = {{0.125, -0.25}, {0.0625, 0.5}};

    const std::string healthy = pulseToJson(schedule, device);
    EXPECT_EQ(healthy.find("degraded"), std::string::npos);
    const std::string degraded = pulseToJson(schedule, device, true);
    EXPECT_NE(degraded.find("\"degraded\":true"), std::string::npos);

    const PulseSchedule back = pulseFromJson(degraded, device);
    EXPECT_DOUBLE_EQ(back.fidelity, schedule.fidelity);
    ASSERT_EQ(back.numSlices(), schedule.numSlices());
    for (std::size_t t = 0; t < back.amplitudes.size(); ++t)
        for (std::size_t k = 0; k < back.amplitudes[t].size(); ++k)
            EXPECT_EQ(back.amplitudes[t][k],
                      schedule.amplitudes[t][k]);
    // Round-tripping the parsed schedule as degraded reproduces the
    // degraded document byte for byte.
    EXPECT_EQ(pulseToJson(back, device, true), degraded);
}

TEST(PulseIo, JsonRejectsWrongDeviceOrFormat)
{
    const DeviceModel one(1);
    const DeviceModel two(2);
    PulseSchedule schedule;
    schedule.amplitudes = {{0.1, 0.2}}; // 2 channels: a 1-qubit pulse
    const std::string json = pulseToJson(schedule, one);
    EXPECT_THROW(pulseFromJson(json, two), FatalError);
    EXPECT_THROW(pulseFromJson("{\"format\":\"nope\"}", one),
                 FatalError);
    EXPECT_THROW(pulseFromJson("not json at all", one), FatalError);
}

TEST(PulseGenerator, GrapeBackendProducesWorkingPulse)
{
    GrapeOptions opts;
    opts.maxIterations = 300;
    GrapePulseGenerator gen(opts);
    const Matrix h = Gate(Op::H, {0}).unitary();
    const PulseGenResult r = gen.generate(h, 1);
    ASSERT_TRUE(r.schedule.has_value());
    EXPECT_LE(r.error, 1e-3 + 1e-9);
    const Matrix realized = propagate(DeviceModel(1), *r.schedule);
    EXPECT_GE(traceFidelity(h, realized), 0.995);
    // Second call is a cache hit with zero added cost.
    const double cost_before = gen.totalCostUnits();
    const PulseGenResult again = gen.generate(h, 1);
    EXPECT_TRUE(again.cacheHit);
    EXPECT_DOUBLE_EQ(gen.totalCostUnits(), cost_before);
}

TEST(PulseCache, SingleFlightRoles)
{
    PulseCache cache;
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();

    const PulseCache::Acquired first = cache.acquire(cx, 2);
    EXPECT_EQ(first.role, PulseCache::FlightRole::Leader);
    EXPECT_FALSE(first.entry.has_value());

    // A joiner started while the flight is open must observe the
    // leader's published entry.
    std::thread joiner_thread([&]() {
        const PulseCache::Acquired joined = cache.acquire(cx, 2);
        EXPECT_NE(joined.role, PulseCache::FlightRole::Leader);
        ASSERT_TRUE(joined.entry.has_value());
        EXPECT_DOUBLE_EQ(joined.entry->latency, 42.0);
    });
    CachedPulse entry;
    entry.latency = 42.0;
    cache.completeFlight(cx, 2, std::move(entry));
    joiner_thread.join();

    const PulseCache::Acquired hit = cache.acquire(cx, 2);
    EXPECT_EQ(hit.role, PulseCache::FlightRole::Hit);
    ASSERT_TRUE(hit.entry.has_value());
    EXPECT_DOUBLE_EQ(hit.entry->latency, 42.0);
}

TEST(PulseCache, AbortedFlightReRacesToNewLeader)
{
    PulseCache cache;
    const Matrix h = Gate(Op::H, {0}).unitary();
    const PulseCache::Acquired first = cache.acquire(h, 1);
    ASSERT_EQ(first.role, PulseCache::FlightRole::Leader);

    std::thread waiter([&]() {
        // Blocks until the first leader aborts, then must win the
        // re-race and inherit leadership.
        const PulseCache::Acquired second = cache.acquire(h, 1);
        EXPECT_EQ(second.role, PulseCache::FlightRole::Leader);
        CachedPulse entry;
        entry.latency = 7.0;
        cache.completeFlight(h, 1, std::move(entry));
    });
    cache.abortFlight(h, 1);
    waiter.join();
    EXPECT_EQ(cache.size(), 1u);
}

TEST(PulseGenerator, ConcurrentSameUnitaryRunsGrapeOnce)
{
    // The single-flight contract: N threads asking for the same
    // unitary at once produce exactly one GRAPE run; everyone else is
    // served the cached result.
    GrapeOptions opts;
    opts.maxIterations = 300;
    GrapePulseGenerator gen(opts);
    const Matrix h = Gate(Op::H, {0}).unitary();

    constexpr int kThreads = 8;
    std::vector<PulseGenResult> results(kThreads);
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int i = 0; i < kThreads; ++i)
            threads.emplace_back([&, i]() {
                results[static_cast<std::size_t>(i)] = gen.generate(h, 1);
            });
        for (std::thread &t : threads)
            t.join();
    }

    EXPECT_EQ(gen.generateCalls(), static_cast<std::size_t>(kThreads));
    EXPECT_EQ(gen.cacheHits(), static_cast<std::size_t>(kThreads - 1));
    EXPECT_EQ(gen.cache().size(), 1u);
    int misses = 0;
    for (const PulseGenResult &r : results) {
        misses += r.cacheHit ? 0 : 1;
        EXPECT_DOUBLE_EQ(r.latency, results[0].latency);
        EXPECT_DOUBLE_EQ(r.error, results[0].error);
        ASSERT_TRUE(r.schedule.has_value());
    }
    EXPECT_EQ(misses, 1);
}

TEST(PulseGenerator, BatchMatchesSerialReplayBitExactly)
{
    const Matrix h = Gate(Op::H, {0}).unitary();
    const Matrix x = Gate(Op::X, {0}).unitary();
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const std::vector<PulseRequest> requests = {
        {h, 1}, {cx, 2}, {h, 1}, {x, 1}, {cx, 2}, {h, 1},
    };

    SpectralPulseGenerator serial;
    std::vector<PulseGenResult> expected;
    for (const PulseRequest &r : requests)
        expected.push_back(serial.generate(r.unitary, r.numQubits));

    ThreadPool pool(4);
    SpectralPulseGenerator batched;
    const std::vector<PulseGenResult> got =
        batched.generateBatch(requests, &pool);

    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].cacheHit, expected[i].cacheHit) << i;
        EXPECT_DOUBLE_EQ(got[i].latency, expected[i].latency) << i;
        EXPECT_DOUBLE_EQ(got[i].error, expected[i].error) << i;
        EXPECT_DOUBLE_EQ(got[i].costUnits, expected[i].costUnits) << i;
    }
    EXPECT_EQ(batched.generateCalls(), serial.generateCalls());
    EXPECT_EQ(batched.cacheHits(), serial.cacheHits());
    EXPECT_DOUBLE_EQ(batched.totalCostUnits(), serial.totalCostUnits());
}

TEST(Grape, SeedIsAFunctionOfTargetNotCallOrder)
{
    // Two optimizations of the same gate must walk the same path no
    // matter what ran before them (seeds derive from the unitary hash,
    // not from shared RNG state).
    const DeviceModel device(1);
    const Matrix h = Gate(Op::H, {0}).unitary();
    const Matrix x = Gate(Op::X, {0}).unitary();
    GrapeOptions opts;
    opts.maxIterations = 40;

    const GrapeResult direct = grapeOptimize(device, h, 20, opts);
    (void)grapeOptimize(device, x, 20, opts); // unrelated work
    const GrapeResult replay = grapeOptimize(device, h, 20, opts);
    ASSERT_EQ(replay.iterations, direct.iterations);
    ASSERT_EQ(replay.schedule.amplitudes.size(),
              direct.schedule.amplitudes.size());
    for (std::size_t t = 0; t < replay.schedule.amplitudes.size(); ++t)
        for (std::size_t k = 0;
             k < replay.schedule.amplitudes[t].size(); ++k)
            EXPECT_EQ(replay.schedule.amplitudes[t][k],
                      direct.schedule.amplitudes[t][k]);
}

TEST(Grape, PoolDoesNotChangeTheResult)
{
    const DeviceModel device(1);
    const Matrix h = Gate(Op::H, {0}).unitary();
    GrapeOptions opts;
    opts.maxIterations = 300;
    opts.restarts = 2;

    ThreadPool pool(4);
    const MinDurationResult serial =
        findMinimumDuration(device, h, opts, 12, nullptr, nullptr);
    const MinDurationResult pooled =
        findMinimumDuration(device, h, opts, 12, nullptr, &pool);

    EXPECT_EQ(pooled.trials, serial.trials);
    EXPECT_EQ(pooled.totalIterations, serial.totalIterations);
    ASSERT_EQ(pooled.schedule.numSlices(), serial.schedule.numSlices());
    EXPECT_EQ(pooled.schedule.fidelity, serial.schedule.fidelity);
    for (std::size_t t = 0;
         t < pooled.schedule.amplitudes.size(); ++t)
        for (std::size_t k = 0;
             k < pooled.schedule.amplitudes[t].size(); ++k)
            EXPECT_EQ(pooled.schedule.amplitudes[t][k],
                      serial.schedule.amplitudes[t][k]);
}

/** P U P for the qubit-order reversal P on n qubits. */
Matrix
reversedQubits(const Matrix &u, int n)
{
    auto rev = [n](std::size_t x) {
        std::size_t y = 0;
        for (int b = 0; b < n; ++b)
            y |= ((x >> b) & 1u) << (n - 1 - b);
        return y;
    };
    Matrix v(u.rows(), u.cols());
    for (std::size_t r = 0; r < u.rows(); ++r)
        for (std::size_t c = 0; c < u.cols(); ++c)
            v(r, c) = u(rev(r), rev(c));
    return v;
}

TEST(Device, ReverseQubitOrderRealizesTheMirroredUnitary)
{
    // Drives and exchange edges move with the qubits, so the mirrored
    // schedule plays P U P wherever the original plays U.
    Rng rng(31);
    for (int n = 1; n <= 3; ++n) {
        const DeviceModel device(n);
        PulseSchedule s;
        s.amplitudes.assign(7, std::vector<double>(device.numControls()));
        for (auto &slice : s.amplitudes)
            for (std::size_t k = 0; k < slice.size(); ++k)
                slice[k] = device.bound(k) * rng.uniform(-1, 1);
        const Matrix u = schedulePropagator(device, s);
        const Matrix mirrored =
            schedulePropagator(device, reverseQubitOrder(s, n));
        EXPECT_GE(traceFidelity(reversedQubits(u, n), mirrored),
                  1.0 - 1e-12)
            << n;
        // Mirroring twice is the identity.
        EXPECT_EQ(reverseQubitOrder(reverseQubitOrder(s, n), n).amplitudes,
                  s.amplitudes);
    }
}

TEST(PulseCache, ReversedOrientationDetectsOnlyTheMirror)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    const Matrix u = circuitUnitary(c);
    const Matrix phased = u * Complex(std::cos(0.4), std::sin(0.4));
    EXPECT_FALSE(PulseCache::reversedOrientation(u, phased, 2));
    EXPECT_TRUE(PulseCache::reversedOrientation(u, reversedQubits(u, 2), 2));
    // Symmetric gates and single qubits never need a mirror.
    const Matrix swap = Gate(Op::SWAP, {0, 1}).unitary();
    EXPECT_FALSE(PulseCache::reversedOrientation(swap, swap, 2));
    const Matrix h = Gate(Op::H, {0}).unitary();
    EXPECT_FALSE(PulseCache::reversedOrientation(h, h, 1));
}

/**
 * An asymmetric two-qubit target U = H (x) S and its mirror P U P:
 * one canonical key, yet U's schedule played unmirrored realizes
 * P U P with fidelity 1/16.
 */
struct MirroredPair
{
    Matrix u;
    Matrix mirrored;
};

MirroredPair
asymmetricPair()
{
    Circuit c(2);
    c.h(0);
    c.s(1);
    MirroredPair p;
    p.u = circuitUnitary(c);
    p.mirrored = reversedQubits(p.u, 2);
    return p;
}

/** The emitted schedule realizes `target` at the fidelity it claims. */
void
expectClaimedFidelity(const Matrix &target, const PulseGenResult &r)
{
    ASSERT_TRUE(r.schedule.has_value());
    const int n = target.rows() == 4 ? 2 : 1;
    EXPECT_GE(scheduleFidelity(DeviceModel(n), target, *r.schedule),
              1.0 - r.error - 1e-4);
}

TEST(PulseAudit, GrapeCacheHitOfTheMirroredTargetKeepsItsClaim)
{
    const MirroredPair p = asymmetricPair();
    ASSERT_EQ(PulseCache::canonicalKey(p.u, 2),
              PulseCache::canonicalKey(p.mirrored, 2));
    ASSERT_LT(traceFidelity(p.u, p.mirrored), 0.1);

    GrapePulseGenerator gen;
    const PulseGenResult derived = gen.generate(p.u, 2);
    const PulseGenResult hit = gen.generate(p.mirrored, 2);
    EXPECT_FALSE(derived.cacheHit);
    EXPECT_TRUE(hit.cacheHit);
    expectClaimedFidelity(p.u, derived);
    expectClaimedFidelity(p.mirrored, hit);
    // And back: the entry keeps the leader's orientation.
    expectClaimedFidelity(p.u, gen.generate(p.u, 2));
}

TEST(PulseAudit, GrapeBatchDedupOfTheMirroredTargetKeepsItsClaim)
{
    const MirroredPair p = asymmetricPair();
    ThreadPool pool(2);
    GrapePulseGenerator gen;
    const std::vector<PulseGenResult> out = gen.generateBatch(
        {{p.mirrored, 2}, {p.u, 2}, {p.mirrored, 2}}, &pool);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_FALSE(out[0].cacheHit);
    EXPECT_TRUE(out[1].cacheHit);
    expectClaimedFidelity(p.mirrored, out[0]);
    expectClaimedFidelity(p.u, out[1]);
    expectClaimedFidelity(p.mirrored, out[2]);
}

/** A tier that serves one fixed entry under its canonical key. */
class OneEntryTier : public PulseTierSource
{
  public:
    explicit OneEntryTier(CachedPulse entry) : entry_(std::move(entry)) {}
    std::optional<CachedPulse>
    fetch(const std::string &key) override
    {
        if (key != PulseCache::canonicalKey(entry_.unitary, entry_.numQubits))
            return std::nullopt;
        return entry_;
    }

  private:
    CachedPulse entry_;
};

TEST(PulseAudit, GrapeTierFetchOfTheMirroredTargetKeepsItsClaim)
{
    const MirroredPair p = asymmetricPair();
    GrapePulseGenerator origin;
    (void)origin.generate(p.u, 2);
    const std::optional<CachedPulse> entry = origin.cache().find(p.u, 2);
    ASSERT_TRUE(entry.has_value());

    OneEntryTier tier(*entry);
    GrapePulseGenerator gen;
    gen.cache().attachTier(&tier);
    const PulseGenResult fetched = gen.generate(p.mirrored, 2);
    EXPECT_TRUE(fetched.cacheHit);
    expectClaimedFidelity(p.mirrored, fetched);
    // The published entry now holds the mirrored orientation.
    expectClaimedFidelity(p.mirrored, gen.generate(p.mirrored, 2));
    expectClaimedFidelity(p.u, gen.generate(p.u, 2));
    gen.cache().attachTier(nullptr);
}

} // namespace
} // namespace paqoc
