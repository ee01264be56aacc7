#include "paqoc/preprocess.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "circuit/contract.h"
#include "circuit/dag.h"
#include "common/error.h"

namespace paqoc {

namespace {

/** Emit a merged custom gate from member gate indices. */
Gate
mergeGates(const Circuit &circuit, const std::vector<int> &members,
           const LatencyFn *latency)
{
    std::vector<Gate> gates;
    gates.reserve(members.size());
    int absorbed = 0;
    double cap = 0.0;
    for (int m : members) {
        gates.push_back(circuit.gate(static_cast<std::size_t>(m)));
        absorbed += gates.back().absorbedCount();
        if (latency != nullptr)
            cap += (*latency)(gates.back());
    }
    const SubcircuitUnitary sub = subcircuitUnitary(gates);
    return Gate::custom("grp", sub.qubits, sub.matrix, absorbed,
                        latency != nullptr
                            ? cap
                            : std::numeric_limits<double>::infinity());
}

/** One fixpoint sweep; returns the (possibly) reduced circuit. */
Circuit
sweep(const Circuit &circuit, int max_qubits, const LatencyFn *latency,
      bool &changed)
{
    const Dag dag = buildDag(circuit);
    GroupContraction gc(circuit, dag);

    // Track each group's qubit support as merges accumulate, keyed by
    // group id (group ids change on merge; stale ids are simply never
    // queried again because groupOf() always returns the live id).
    std::map<int, std::set<int>> support;
    for (std::size_t i = 0; i < circuit.size(); ++i) {
        const Gate &g = circuit.gate(i);
        support[gc.groupOf(static_cast<int>(i))] =
            std::set<int>(g.qubits().begin(), g.qubits().end());
    }

    changed = false;
    for (std::size_t u = 0; u < circuit.size(); ++u) {
        for (int v : dag.succs[u]) {
            const int gu = gc.groupOf(static_cast<int>(u));
            const int gv = gc.groupOf(v);
            if (gu == gv)
                continue;
            const std::set<int> &su = support.at(gu);
            const std::set<int> &sv = support.at(gv);
            // Merge only when one support contains the other
            // (Observation 1: same effective width after merging).
            const bool u_covers =
                std::includes(su.begin(), su.end(), sv.begin(),
                              sv.end());
            const bool v_covers =
                std::includes(sv.begin(), sv.end(), su.begin(),
                              su.end());
            if (!u_covers && !v_covers)
                continue;
            const std::set<int> &merged = u_covers ? su : sv;
            if (static_cast<int>(merged.size()) > max_qubits)
                continue;

            std::set<int> merged_copy = merged;
            if (!gc.tryMerge({static_cast<int>(u), v}))
                continue;
            changed = true;
            support[gc.groupOf(static_cast<int>(u))] =
                std::move(merged_copy);
        }
    }
    if (!changed)
        return circuit;
    return gc.emit([&](const std::vector<int> &group) {
        return mergeGates(circuit, group, latency);
    });
}

} // namespace

Circuit
preprocessMergeNestedSupport(const Circuit &circuit, int max_qubits,
                             const LatencyFn *latency)
{
    PAQOC_FATAL_IF(max_qubits < 1, "max_qubits must be positive");
    Circuit cur = circuit;
    bool changed = true;
    // Each sweep strictly reduces the gate count when it changes, so
    // this terminates after at most size() sweeps.
    while (changed && cur.size() > 1)
        cur = sweep(cur, max_qubits, latency, changed);
    return cur;
}

} // namespace paqoc
