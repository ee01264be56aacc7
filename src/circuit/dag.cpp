#include "circuit/dag.h"

#include <algorithm>
#include <cstdint>

#include "common/error.h"

namespace paqoc {

bool
Dag::hasEdge(int u, int v) const
{
    const auto &s = succs[static_cast<std::size_t>(u)];
    return std::find(s.begin(), s.end(), v) != s.end();
}

bool
Dag::reaches(int u, int v) const
{
    if (u == v)
        return false;
    // Nodes are numbered in topological (program) order, so only nodes
    // in (u, v] can lie on a path.
    if (v < u)
        return false;
    // One visit buffer per thread, stamped per query: the merge
    // engine asks this hundreds of thousands of times per compile, and
    // a per-call buffer would cost an allocation and an O(n) clear.
    thread_local std::vector<std::uint32_t> seen;
    thread_local std::uint32_t stamp = 0;
    thread_local std::vector<int> stack;
    if (seen.size() < size())
        seen.resize(size(), 0);
    if (++stamp == 0) {
        std::fill(seen.begin(), seen.end(), 0);
        stamp = 1;
    }
    stack.assign(1, u);
    while (!stack.empty()) {
        const int n = stack.back();
        stack.pop_back();
        for (int s : succs[static_cast<std::size_t>(n)]) {
            if (s == v)
                return true;
            if (s < v && seen[static_cast<std::size_t>(s)] != stamp) {
                seen[static_cast<std::size_t>(s)] = stamp;
                stack.push_back(s);
            }
        }
    }
    return false;
}

Dag
buildDag(const Circuit &circuit)
{
    Dag dag;
    dag.preds.resize(circuit.size());
    dag.succs.resize(circuit.size());

    std::vector<int> last_on_qubit(
        static_cast<std::size_t>(circuit.numQubits()), -1);
    for (std::size_t i = 0; i < circuit.size(); ++i) {
        const Gate &g = circuit.gate(i);
        for (int q : g.qubits()) {
            const int prev = last_on_qubit[static_cast<std::size_t>(q)];
            if (prev >= 0 && !dag.hasEdge(prev, static_cast<int>(i))) {
                dag.succs[static_cast<std::size_t>(prev)]
                    .push_back(static_cast<int>(i));
                dag.preds[i].push_back(prev);
            }
            last_on_qubit[static_cast<std::size_t>(q)] =
                static_cast<int>(i);
        }
    }
    return dag;
}

} // namespace paqoc
