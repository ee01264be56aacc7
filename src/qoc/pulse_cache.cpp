#include "qoc/pulse_cache.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.h"
#include "linalg/unitary_util.h"

namespace paqoc {

namespace {

/**
 * Append `scaled` / 1e4 with four decimals: integer formatting of the
 * rounded value, so no printf on the lookup path.
 */
void
appendFixed4(std::string &s, long long scaled)
{
    char buf[32];
    char *const end = buf + sizeof buf;
    char *p = end;
    unsigned long long m = static_cast<unsigned long long>(scaled);
    if (scaled < 0)
        m = 0 - m;
    for (int i = 0; i < 4; ++i, m /= 10)
        *--p = static_cast<char>('0' + m % 10);
    *--p = '.';
    do {
        *--p = static_cast<char>('0' + m % 10);
        m /= 10;
    } while (m != 0);
    if (scaled < 0)
        *--p = '-';
    s.append(p, end);
}

/**
 * Byte-for-byte the text of printf("%.4f,%.4f;") on the values rounded
 * at 1e-4. Within |n| < 1e14 the double n / 1e4 lies far closer than
 * 0.5e-4 to the decimal n * 10^-4, so "%.4f" prints exactly the digits
 * of the integer n; anything else (never a unitary entry) keeps the
 * printf form. tests/test_qoc.cpp pins the equivalence.
 */
void
appendQuantized(std::string &s, Complex z)
{
    // Round at 1e-4 so GRAPE noise maps to a stable key; the +0.0
    // folds negative zero.
    const double re = std::round(z.real() * 1e4) + 0.0;
    const double im = std::round(z.imag() * 1e4) + 0.0;
    constexpr double kExact = 1e14;
    if (std::abs(re) < kExact && std::abs(im) < kExact) {
        appendFixed4(s, static_cast<long long>(re));
        s += ',';
        appendFixed4(s, static_cast<long long>(im));
        s += ';';
        return;
    }
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.4f,%.4f;", re / 1e4 + 0.0,
                  im / 1e4 + 0.0);
    s += buf;
}

/**
 * Key text of v(r, c) = u(order[r], order[c]) -- `order` is the
 * identity or the qubit-order reversal -- with v's global phase
 * normalized: its first largest-magnitude entry (row-major) is made
 * real positive. v is never materialized; `mags` holds |u| row-major,
 * shared by both orientations.
 */
void
appendOriented(std::string &s, const Matrix &u,
               const std::vector<double> &mags,
               const std::vector<std::size_t> &order)
{
    const std::size_t dim = u.rows();
    std::size_t best_r = 0, best_c = 0;
    double best = -1.0;
    for (std::size_t r = 0; r < dim; ++r) {
        for (std::size_t c = 0; c < dim; ++c) {
            const double m = mags[order[r] * dim + order[c]];
            if (m > best + 1e-12) {
                best = m;
                best_r = r;
                best_c = c;
            }
        }
    }
    const Complex pivot = u(order[best_r], order[best_c]);
    const bool rotate = std::abs(pivot) > 1e-12;
    const Complex phase =
        rotate ? std::conj(pivot) / std::abs(pivot) : Complex(1.0);
    s.reserve(s.size() + dim * dim * 20);
    for (std::size_t r = 0; r < dim; ++r) {
        for (std::size_t c = 0; c < dim; ++c) {
            Complex z = u(order[r], order[c]);
            if (rotate)
                z *= phase;
            appendQuantized(s, z);
        }
    }
}

/** rev[x] = x with its n low bits reversed: the qubit-order reversal. */
std::vector<std::size_t>
reversedIndices(int num_qubits)
{
    std::vector<std::size_t> rev(std::size_t{1} << num_qubits);
    for (std::size_t x = 0; x < rev.size(); ++x) {
        std::size_t y = 0;
        for (int b = 0; b < num_qubits; ++b)
            y |= ((x >> b) & 1u) << (num_qubits - 1 - b);
        rev[x] = y;
    }
    return rev;
}

} // namespace

PulseEpoch::PulseEpoch(Entries entries) : byKey_(std::move(entries))
{
    std::uint64_t generation = 0;
    for (auto &[key, entry] : byKey_)
        entry.generation = generation++;
}

const CachedPulse *
PulseEpoch::find(const std::string &key) const
{
    const auto it = byKey_.find(key);
    return it == byKey_.end() ? nullptr : &it->second;
}

std::string
PulseCache::canonicalKey(const Matrix &unitary, int num_qubits)
{
    PAQOC_ASSERT(unitary.rows() == (std::size_t{1} << num_qubits),
                 "unitary does not match qubit count");
    const std::size_t dim = unitary.rows();
    std::vector<double> mags(dim * dim);
    for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t c = 0; c < dim; ++c)
            mags[r * dim + c] = std::abs(unitary(r, c));
    std::vector<std::size_t> order(dim);
    for (std::size_t x = 0; x < dim; ++x)
        order[x] = x;
    const std::string prefix = std::to_string(num_qubits) + ":";
    std::string key = prefix;
    appendOriented(key, unitary, mags, order);
    if (num_qubits > 1) {
        // A <=3-qubit region couples as a path, so relabeling its
        // qubits in reverse order is the same control problem.
        order = reversedIndices(num_qubits);
        std::string alt = prefix;
        appendOriented(alt, unitary, mags, order);
        if (alt < key)
            key = std::move(alt);
    }
    return key;
}

bool
PulseCache::reversedOrientation(const Matrix &stored, const Matrix &request,
                                int num_qubits)
{
    const std::size_t dim = std::size_t{1} << num_qubits;
    if (num_qubits < 2 || stored.rows() != dim || request.rows() != dim)
        return false;
    const std::vector<std::size_t> rev = reversedIndices(num_qubits);
    Complex direct(0.0), mirrored(0.0);
    for (std::size_t r = 0; r < dim; ++r) {
        for (std::size_t c = 0; c < dim; ++c) {
            const Complex s = std::conj(stored(r, c));
            direct += s * request(r, c);
            mirrored += s * request(rev[r], rev[c]);
        }
    }
    return std::abs(mirrored) > std::abs(direct) + 1e-9;
}

PulseCache::Acquired
PulseCache::acquire(const Matrix &unitary, int num_qubits)
{
    const std::string key = canonicalKey(unitary, num_qubits);
    MutexLock lock(mutex_);
    for (;;) {
        if (const CachedPulse *hit = findLocked(key)) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return {FlightRole::Hit, *hit};
        }
        const auto it = flights_.find(key);
        if (it == flights_.end()) {
            flights_.emplace(key, std::make_shared<Flight>());
            return {FlightRole::Leader, std::nullopt};
        }
        const std::shared_ptr<Flight> flight = it->second;
        while (!flight->done)
            flight->cv.wait(mutex_);
        if (!flight->aborted) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return {FlightRole::Joined, flight->result};
        }
        // The leader failed; loop and re-race for leadership.
    }
}

void
PulseCache::completeFlight(const Matrix &unitary, int num_qubits,
                           CachedPulse entry)
{
    const std::string key = canonicalKey(unitary, num_qubits);
    std::optional<CachedPulse> journaled;
    PulseStoreSink *sink = nullptr;
    {
        MutexLock lock(mutex_);
        const auto it = flights_.find(key);
        PAQOC_ASSERT(it != flights_.end(),
                     "completeFlight without a matching acquire");
        const std::shared_ptr<Flight> flight = it->second;
        flights_.erase(it);
        insertLocked(key, unitary, num_qubits, std::move(entry));
        flight->done = true;
        flight->result = entries_.at(key);
        if (sink_ != nullptr) {
            journaled = entries_.at(key);
            sink = sink_;
        }
        flight->cv.notify_all();
    }
    // Forward outside the lock: the sink may do blocking file I/O.
    if (journaled.has_value())
        sink->onInsert(key, *journaled);
}

void
PulseCache::abortFlight(const Matrix &unitary, int num_qubits)
{
    const std::string key = canonicalKey(unitary, num_qubits);
    MutexLock lock(mutex_);
    const auto it = flights_.find(key);
    if (it == flights_.end())
        return;
    const std::shared_ptr<Flight> flight = it->second;
    flights_.erase(it);
    flight->done = true;
    flight->aborted = true;
    flight->cv.notify_all();
}

const CachedPulse *
PulseCache::lookup(const Matrix &unitary, int num_qubits) const
{
    const std::string key = canonicalKey(unitary, num_qubits);
    MutexLock lock(mutex_);
    const CachedPulse *hit = findLocked(key);
    if (hit != nullptr)
        hits_.fetch_add(1, std::memory_order_relaxed);
    return hit;
}

std::optional<CachedPulse>
PulseCache::find(const Matrix &unitary, int num_qubits) const
{
    const std::string key = canonicalKey(unitary, num_qubits);
    MutexLock lock(mutex_);
    const CachedPulse *hit = findLocked(key);
    if (hit == nullptr)
        return std::nullopt;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return *hit;
}

void
PulseCache::insert(const Matrix &unitary, int num_qubits,
                   CachedPulse entry)
{
    const std::string key = canonicalKey(unitary, num_qubits);
    std::optional<CachedPulse> journaled;
    PulseStoreSink *sink = nullptr;
    {
        MutexLock lock(mutex_);
        insertLocked(key, unitary, num_qubits, std::move(entry));
        if (sink_ != nullptr) {
            journaled = entries_.at(key);
            sink = sink_;
        }
    }
    if (journaled.has_value())
        sink->onInsert(key, *journaled);
}

void
PulseCache::attachStore(PulseStoreSink *sink)
{
    MutexLock lock(mutex_);
    sink_ = sink;
}

void
PulseCache::attachEpoch(std::shared_ptr<const PulseEpoch> epoch)
{
    MutexLock lock(mutex_);
    PAQOC_ASSERT(epoch_ == nullptr && entries_.empty()
                     && generation_.load(std::memory_order_relaxed) == 0,
                 "attachEpoch needs a fresh, empty cache");
    if (epoch != nullptr)
        generation_.store(epoch->size(), std::memory_order_relaxed);
    epoch_ = std::move(epoch);
}

void
PulseCache::attachTier(PulseTierSource *tier)
{
    tier_.store(tier, std::memory_order_release);
}

PulseTierSource *
PulseCache::tierSource() const
{
    return tier_.load(std::memory_order_acquire);
}

void
PulseCache::insertLocked(const std::string &key, const Matrix &unitary,
                         int num_qubits, CachedPulse &&entry)
{
    entry.unitary = unitary;
    entry.numQubits = num_qubits;
    entry.generation =
        generation_.fetch_add(1, std::memory_order_relaxed);
    entries_[key] = std::move(entry);
}

const CachedPulse *
PulseCache::findLocked(const std::string &key) const
{
    const auto it = entries_.find(key);
    if (it != entries_.end())
        return &it->second;
    return epoch_ != nullptr ? epoch_->find(key) : nullptr;
}

template <typename Fn>
void
PulseCache::forEachLocked(Fn &&fn) const
{
    // paqoc-lint: allow(unordered-iteration) callers fold the order
    for (const auto &[key, entry] : entries_)
        fn(key, entry);
    if (epoch_ == nullptr)
        return;
    for (const auto &[key, entry] : epoch_->entries()) {
        if (entries_.empty() || entries_.count(key) == 0)
            fn(key, entry);
    }
}

std::size_t
PulseCache::size() const
{
    MutexLock lock(mutex_);
    std::size_t n = 0;
    forEachLocked([&n](const std::string &, const CachedPulse &) {
        ++n;
    });
    return n;
}

void
PulseCache::save(const std::string &path) const
{
    std::ofstream out(path);
    PAQOC_FATAL_IF(!out, "cannot write pulse database '", path, "'");
    out << "paqoc-pulse-db 1\n";
    out.precision(17);
    MutexLock lock(mutex_);
    // Emit in canonical-key order so the file is byte-stable across
    // STL hash implementations and insert histories.
    std::vector<std::pair<const std::string *, const CachedPulse *>>
        ordered;
    forEachLocked([&ordered](const std::string &key, const CachedPulse &e) {
        // Stitched fallback pulses are session-local best effort; a
        // saved database must never freeze one in.
        if (!e.degraded)
            ordered.emplace_back(&key, &e);
    });
    std::sort(ordered.begin(), ordered.end(),
              [](const auto &a, const auto &b) {
                  return *a.first < *b.first;
              });
    for (const auto &[key_ptr, entry_ptr] : ordered) {
        const CachedPulse &e = *entry_ptr;
        const std::size_t dim = e.unitary.rows();
        out << "entry " << e.numQubits << ' ' << e.latency << ' '
            << e.error << ' ' << dim << ' '
            << e.schedule.numSlices() << ' '
            << (e.schedule.numSlices() > 0
                    ? e.schedule.amplitudes[0].size()
                    : 0)
            << ' ' << e.schedule.fidelity << '\n';
        for (std::size_t r = 0; r < dim; ++r) {
            for (std::size_t c = 0; c < dim; ++c)
                out << e.unitary(r, c).real() << ' '
                    << e.unitary(r, c).imag() << ' ';
            out << '\n';
        }
        for (const auto &slice : e.schedule.amplitudes) {
            for (double a : slice)
                out << a << ' ';
            out << '\n';
        }
    }
}

void
PulseCache::load(const std::string &path)
{
    std::ifstream in(path);
    PAQOC_FATAL_IF(!in, "cannot read pulse database '", path, "'");

    // Parse line-by-line into a staging area first: a malformed file
    // raises a FatalError naming the offending line and the cache is
    // left exactly as it was (no partial load).
    int line_no = 0;
    std::string line;
    auto next_line = [&](const char *what) {
        PAQOC_FATAL_IF(!std::getline(in, line), "pulse database '",
                       path, "' line ", line_no + 1,
                       ": unexpected end of file (expected ", what,
                       ")");
        ++line_no;
    };
    auto bad_line = [&](const std::string &why) {
        PAQOC_FATAL_IF(true, "pulse database '", path, "' line ",
                       line_no, ": ", why, " -- got '", line, "'");
    };

    next_line("header");
    {
        std::istringstream hdr(line);
        std::string magic;
        int version = 0;
        if (!(hdr >> magic >> version) || magic != "paqoc-pulse-db"
            || version != 1)
            bad_line("not a version-1 pulse database header");
    }

    std::vector<CachedPulse> staged;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        CachedPulse e;
        std::size_t dim = 0, slices = 0, channels = 0;
        {
            std::istringstream row(line);
            std::string tag;
            if (!(row >> tag) || tag != "entry")
                bad_line("expected an 'entry' record");
            if (!(row >> e.numQubits >> e.latency >> e.error >> dim
                  >> slices >> channels >> e.schedule.fidelity))
                bad_line("malformed entry header");
            if (e.numQubits <= 0 || dim == 0 || dim > 256
                || dim != (std::size_t{1} << e.numQubits))
                bad_line("entry dimension does not match qubit count");
        }
        e.unitary = Matrix(dim, dim);
        for (std::size_t r = 0; r < dim; ++r) {
            next_line("a unitary row");
            std::istringstream row(line);
            for (std::size_t c = 0; c < dim; ++c) {
                double re = 0.0, im = 0.0;
                if (!(row >> re >> im))
                    bad_line("truncated unitary row");
                e.unitary(r, c) = Complex(re, im);
            }
        }
        e.schedule.amplitudes.assign(slices,
                                     std::vector<double>(channels));
        for (auto &slice : e.schedule.amplitudes) {
            next_line("an amplitude row");
            std::istringstream row(line);
            for (double &a : slice)
                if (!(row >> a))
                    bad_line("truncated amplitude row");
        }
        staged.push_back(std::move(e));
    }
    for (CachedPulse &e : staged) {
        const Matrix u = e.unitary;
        const int nq = e.numQubits;
        insert(u, nq, std::move(e));
    }
}

const CachedPulse *
PulseCache::nearestLocked(const Matrix &unitary, int num_qubits,
                          double max_distance,
                          std::uint64_t generation_bound) const
{
    const CachedPulse *best = nullptr;
    double best_dist = 0.0;
    // Tie-break on the canonical key so equal-distance entries resolve
    // identically regardless of hash-map iteration order or of the
    // (thread-dependent) order concurrent inserts landed in.
    const std::string *best_key = nullptr;
    forEachLocked([&](const std::string &key, const CachedPulse &entry) {
        if (entry.numQubits != num_qubits
            || entry.generation >= generation_bound)
            return;
        const double d = phaseInvariantDistance(entry.unitary, unitary);
        if (d > max_distance)
            return;
        if (best == nullptr || d < best_dist
            || (d == best_dist && key < *best_key)) {
            best_dist = d;
            best = &entry;
            best_key = &key;
        }
    });
    return best;
}

const CachedPulse *
PulseCache::nearest(const Matrix &unitary, int num_qubits,
                    double max_distance) const
{
    MutexLock lock(mutex_);
    return nearestLocked(unitary, num_qubits, max_distance,
                         std::numeric_limits<std::uint64_t>::max());
}

std::optional<CachedPulse>
PulseCache::nearestBefore(const Matrix &unitary, int num_qubits,
                          double max_distance,
                          std::uint64_t generation_bound) const
{
    MutexLock lock(mutex_);
    const CachedPulse *best =
        nearestLocked(unitary, num_qubits, max_distance, generation_bound);
    if (best == nullptr)
        return std::nullopt;
    return *best;
}

} // namespace paqoc
