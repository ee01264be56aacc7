#include "qoc/device.h"

#include <sstream>

#include "circuit/circuit.h"
#include "common/error.h"
#include "linalg/kernels.h"

namespace paqoc {

namespace {

Matrix
pauliX()
{
    return Matrix{{0.0, 1.0}, {1.0, 0.0}};
}

Matrix
pauliY()
{
    return Matrix{{Complex(0, 0), Complex(0, -1)},
                  {Complex(0, 1), Complex(0, 0)}};
}

} // namespace

DeviceModel::DeviceModel(int num_qubits,
                         std::vector<std::pair<int, int>> couplings)
    : num_qubits_(num_qubits)
{
    PAQOC_FATAL_IF(num_qubits < 1 || num_qubits > 6,
                   "DeviceModel supports 1..6 qubits, got ", num_qubits);
    if (couplings.empty()) {
        for (int i = 0; i + 1 < num_qubits; ++i)
            couplings.emplace_back(i, i + 1);
    }

    // Single-qubit sigma_x / sigma_y drives.
    for (int q = 0; q < num_qubits_; ++q) {
        controls_.push_back(embedUnitary(pauliX(), {q}, num_qubits_));
        bounds_.push_back(kOneQubitBound);
        names_.push_back("x" + std::to_string(q));
        controls_.push_back(embedUnitary(pauliY(), {q}, num_qubits_));
        bounds_.push_back(kOneQubitBound);
        names_.push_back("y" + std::to_string(q));
    }

    // XY exchange control per coupled pair: (XX + YY) / 2.
    for (const auto &[a, b] : couplings) {
        PAQOC_FATAL_IF(a < 0 || b < 0 || a >= num_qubits_
                           || b >= num_qubits_ || a == b,
                       "bad coupling edge (", a, ",", b, ")");
        Matrix xy = embedUnitary(kron(pauliX(), pauliX()), {a, b},
                                 num_qubits_)
            + embedUnitary(kron(pauliY(), pauliY()), {a, b}, num_qubits_);
        xy *= Complex(0.5, 0.0);
        controls_.push_back(std::move(xy));
        bounds_.push_back(kTwoQubitBound);
        std::ostringstream name;
        name << "xy" << a << b;
        names_.push_back(name.str());
    }
}

Matrix
DeviceModel::sliceHamiltonian(const std::vector<double> &amplitudes) const
{
    Matrix h;
    sliceHamiltonianInto(amplitudes, h);
    return h;
}

void
DeviceModel::sliceHamiltonianInto(const std::vector<double> &amplitudes,
                                  Matrix &h) const
{
    PAQOC_ASSERT(amplitudes.size() == controls_.size(),
                 "amplitude count mismatch");
    h.resize(dim(), dim());
    const std::size_t n2 = dim() * dim();
    for (std::size_t k = 0; k < controls_.size(); ++k) {
        if (amplitudes[k] == 0.0)
            continue;
        // h += alpha_k * H_k via the axpy kernel: same multiply-then-
        // add rounding as the historical copy/scale/add sequence.
        kernels::axpy(Complex(amplitudes[k], 0.0),
                      controls_[k].data(), h.data(), n2);
    }
}

PulseSchedule
reverseQubitOrder(const PulseSchedule &schedule, int num_qubits)
{
    // DeviceModel's default layout: x_q at 2q, y_q at 2q+1, then the
    // path edge (e, e+1) at 2n+e.
    const auto n = static_cast<std::size_t>(num_qubits);
    const std::size_t controls = n == 1 ? 2 : 3 * n - 1;
    std::vector<std::size_t> to(controls);
    for (std::size_t q = 0; q < n; ++q) {
        to[2 * q] = 2 * (n - 1 - q);
        to[2 * q + 1] = 2 * (n - 1 - q) + 1;
    }
    for (std::size_t e = 0; e + 1 < n; ++e)
        to[2 * n + e] = 2 * n + (n - 2 - e);

    PulseSchedule out;
    out.fidelity = schedule.fidelity;
    out.amplitudes.reserve(schedule.amplitudes.size());
    for (const std::vector<double> &slice : schedule.amplitudes) {
        PAQOC_ASSERT(slice.size() == controls,
                     "schedule does not match the ", num_qubits,
                     "-qubit path device");
        std::vector<double> mirrored(controls);
        for (std::size_t k = 0; k < controls; ++k)
            mirrored[to[k]] = slice[k];
        out.amplitudes.push_back(std::move(mirrored));
    }
    return out;
}

} // namespace paqoc
