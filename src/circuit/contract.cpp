#include "circuit/contract.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace paqoc {

GroupContraction::GroupContraction(const Circuit &circuit, const Dag &dag)
    : circuit_(circuit), dag_(dag), group_of_(circuit.size()),
      self_(circuit.size()), live_(circuit.size(), 1),
      rank_(circuit.size()), mark_(circuit.size(), 0)
{
    PAQOC_ASSERT(dag.size() == circuit.size(), "DAG/circuit mismatch");
    // Program order is topological, so gate indices are valid ranks.
    for (std::size_t i = 0; i < circuit.size(); ++i) {
        const int g = static_cast<int>(i);
        group_of_[i] = g;
        self_[i] = g;
        rank_[i] = g;
    }
}

std::span<const int>
GroupContraction::members(int gid) const
{
    const auto g = static_cast<std::size_t>(gid);
    if (!live_[g])
        return {};
    if (g < self_.size())
        return {&self_[g], 1};
    return merged_[g - self_.size()];
}

std::uint32_t
GroupContraction::freshStamp()
{
    if (stamp_ == std::numeric_limits<std::uint32_t>::max()) {
        std::fill(mark_.begin(), mark_.end(), 0);
        stamp_ = 0;
    }
    return ++stamp_;
}

bool
GroupContraction::search(bool forward, int bound, std::uint32_t in_s,
                         std::uint32_t seen, std::vector<int> &found)
{
    const auto &adj = forward ? dag_.succs : dag_.preds;
    found.clear();
    stack_.assign(fused_.begin(), fused_.end());
    while (!stack_.empty()) {
        const int g = stack_.back();
        stack_.pop_back();
        const bool from_s = mark_[static_cast<std::size_t>(g)] == in_s;
        for (int m : members(g)) {
            for (int v : adj[static_cast<std::size_t>(m)]) {
                const int h = group_of_[static_cast<std::size_t>(v)];
                const auto sh = static_cast<std::size_t>(h);
                if (h == g)
                    continue;
                if (mark_[sh] == in_s) {
                    if (from_s)
                        continue; // an edge inside S
                    return false; // left S and came back: a cycle
                }
                if (mark_[sh] == seen
                    || (forward ? rank_[sh] > bound : rank_[sh] < bound))
                    continue;
                mark_[sh] = seen;
                found.push_back(h);
                stack_.push_back(h);
            }
        }
    }
    return true;
}

bool
GroupContraction::tryMerge(const std::vector<int> &gates)
{
    PAQOC_ASSERT(!gates.empty(), "empty merge set");
    const std::uint32_t in_s = freshStamp();
    fused_.clear();
    int lo = std::numeric_limits<int>::max();
    int hi = std::numeric_limits<int>::min();
    int heir = -1;
    std::size_t heir_size = 0;
    for (int gate : gates) {
        const int g = groupOf(gate);
        const auto sg = static_cast<std::size_t>(g);
        if (mark_[sg] == in_s)
            continue;
        mark_[sg] = in_s;
        fused_.push_back(g);
        lo = std::min(lo, rank_[sg]);
        hi = std::max(hi, rank_[sg]);
        if (members(g).size() > heir_size) {
            heir = g;
            heir_size = members(g).size();
        }
    }
    // A path out of S and back only visits groups ranked below S's
    // highest rank; ranks are distinct, so the window is open.
    if (!search(true, hi - 1, in_s, freshStamp(), forward_))
        return false;
    // Groups above S's lowest rank that reach S: they must move below
    // the merged group. Cannot meet S again, the graph is acyclic.
    search(false, lo + 1, in_s, freshStamp(), backward_);

    // Re-rank over the pooled ranks: the backward set (moving only
    // down), the merged group, then the forward set (moving only up).
    const auto by_rank = [&](int a, int b) {
        return rank_[static_cast<std::size_t>(a)]
            < rank_[static_cast<std::size_t>(b)];
    };
    std::sort(forward_.begin(), forward_.end(), by_rank);
    std::sort(backward_.begin(), backward_.end(), by_rank);
    pool_.clear();
    for (const std::vector<int> *set : {&backward_, &fused_, &forward_})
        for (int g : *set)
            pool_.push_back(rank_[static_cast<std::size_t>(g)]);
    std::sort(pool_.begin(), pool_.end());

    journal_.push_back(
        {fused_log_.size(), rank_log_.size(), ++serial_, heir});
    std::size_t next = 0;
    for (int g : backward_) {
        const auto sg = static_cast<std::size_t>(g);
        rank_log_.emplace_back(g, rank_[sg]);
        rank_[sg] = pool_[next++];
    }
    const int merged_rank = pool_[next];
    next = pool_.size() - forward_.size();
    for (int g : forward_) {
        const auto sg = static_cast<std::size_t>(g);
        rank_log_.emplace_back(g, rank_[sg]);
        rank_[sg] = pool_[next++];
    }

    // The merged list takes over the heir's and copies in the rest.
    const auto n = self_.size();
    const auto sheir = static_cast<std::size_t>(heir);
    std::vector<int> list = sheir < n ? std::vector<int>{heir}
                                      : std::move(merged_[sheir - n]);
    const auto mid = static_cast<std::ptrdiff_t>(list.size());
    for (int g : fused_) {
        if (g != heir) {
            const std::span<const int> m = members(g);
            list.insert(list.end(), m.begin(), m.end());
        }
        live_[static_cast<std::size_t>(g)] = 0;
        fused_log_.push_back(g);
    }
    std::sort(list.begin() + mid, list.end());
    if (mid < static_cast<std::ptrdiff_t>(list.size())
        && list[static_cast<std::size_t>(mid)]
            < list[static_cast<std::size_t>(mid - 1)])
        std::inplace_merge(list.begin(), list.begin() + mid, list.end());
    const int gid = static_cast<int>(live_.size());
    for (int gate : list)
        group_of_[static_cast<std::size_t>(gate)] = gid;
    merged_.push_back(std::move(list));
    live_.push_back(1);
    rank_.push_back(merged_rank);
    mark_.push_back(0);
    return true;
}

GroupContraction::State
GroupContraction::snapshot() const
{
    return {journal_.size(), journal_.empty() ? 0 : journal_.back().serial};
}

void
GroupContraction::restore(const State &state)
{
    PAQOC_ASSERT(state.merges <= journal_.size()
                     && (state.merges == 0
                             ? state.serial == 0
                             : journal_[state.merges - 1].serial
                                 == state.serial),
                 "restoring a stale contraction state");
    while (journal_.size() > state.merges)
        undoLast();
}

void
GroupContraction::undoLast()
{
    const Merge m = journal_.back();
    journal_.pop_back();
    for (std::size_t i = m.rankBegin; i < rank_log_.size(); ++i)
        rank_[static_cast<std::size_t>(rank_log_[i].first)] =
            rank_log_[i].second;
    rank_log_.resize(m.rankBegin);
    // Hand every non-heir member back to its group (their lists were
    // copied, not taken); what is left of the merged list is the heir's.
    const int gid = static_cast<int>(live_.size()) - 1;
    std::vector<int> list = std::move(merged_.back());
    merged_.pop_back();
    for (std::size_t i = m.fusedBegin; i < fused_log_.size(); ++i) {
        const int g = fused_log_[i];
        live_[static_cast<std::size_t>(g)] = 1;
        if (g == m.heir)
            continue;
        for (int gate : members(g))
            group_of_[static_cast<std::size_t>(gate)] = g;
    }
    fused_log_.resize(m.fusedBegin);
    std::erase_if(list, [&](int gate) {
        return group_of_[static_cast<std::size_t>(gate)] != gid;
    });
    for (int gate : list)
        group_of_[static_cast<std::size_t>(gate)] = m.heir;
    const auto sheir = static_cast<std::size_t>(m.heir);
    if (sheir >= self_.size())
        merged_[sheir - self_.size()] = std::move(list);
    live_.pop_back();
    rank_.pop_back();
    mark_.pop_back();
}

std::vector<std::vector<int>>
GroupContraction::groups() const
{
    std::vector<std::vector<int>> out;
    for (std::size_t g = 0; g < live_.size(); ++g) {
        if (!live_[g])
            continue;
        const std::span<const int> m = members(static_cast<int>(g));
        out.emplace_back(m.begin(), m.end());
    }
    return out;
}

std::vector<int>
GroupContraction::topologicalOrder() const
{
    // Kahn's algorithm on the contracted graph, reading group edges
    // straight off the gate DAG (parallel edges count once per gate
    // edge on both sides, so readiness is unchanged). The ready set is
    // a min-heap of each group's first member gate.
    std::vector<int> indeg(live_.size(), 0);
    std::vector<int> heap;
    std::size_t live = 0;
    for (std::size_t u = 0; u < circuit_.size(); ++u) {
        const int gu = group_of_[u];
        for (int v : dag_.succs[u]) {
            const int gv = group_of_[static_cast<std::size_t>(v)];
            if (gu != gv)
                ++indeg[static_cast<std::size_t>(gv)];
        }
    }
    for (std::size_t u = 0; u < circuit_.size(); ++u) {
        const int gu = group_of_[u];
        if (members(gu)[0] != static_cast<int>(u))
            continue;
        ++live;
        if (indeg[static_cast<std::size_t>(gu)] == 0)
            heap.push_back(static_cast<int>(u)); // ascending: a heap
    }
    std::vector<int> order;
    order.reserve(live);
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        const int g = group_of_[static_cast<std::size_t>(heap.back())];
        heap.pop_back();
        order.push_back(g);
        for (int m : members(g)) {
            for (int v : dag_.succs[static_cast<std::size_t>(m)]) {
                const int h = group_of_[static_cast<std::size_t>(v)];
                if (h != g && --indeg[static_cast<std::size_t>(h)] == 0) {
                    heap.push_back(members(h)[0]);
                    std::push_heap(heap.begin(), heap.end(),
                                   std::greater<>());
                }
            }
        }
    }
    PAQOC_ASSERT(order.size() == live, "contracted graph is cyclic");
    return order;
}

Circuit
GroupContraction::emit(
    const std::function<Gate(const std::vector<int> &)> &merged_emitter)
    const
{
    Circuit out(circuit_.numQubits());
    std::vector<int> group;
    for (int gid : topologicalOrder()) {
        const std::span<const int> m = members(gid);
        if (m.size() == 1) {
            out.add(circuit_.gate(static_cast<std::size_t>(m[0])));
        } else {
            group.assign(m.begin(), m.end());
            out.add(merged_emitter(group));
        }
    }
    return out;
}

} // namespace paqoc
