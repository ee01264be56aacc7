#ifndef PAQOC_CIRCUIT_CONTRACT_H_
#define PAQOC_CIRCUIT_CONTRACT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/dag.h"

namespace paqoc {

/**
 * Incrementally contracts groups of gates into single nodes of a
 * circuit's dependence DAG, rejecting contractions that would create a
 * cycle, and finally emits a dependence-respecting circuit in which
 * each multi-gate group is replaced by one gate.
 *
 * The contracted graph stays acyclic, so a merge of group set S
 * creates a cycle iff some path leaves S and re-enters it. Each live
 * group carries a rank in a topological order of the contracted graph
 * (initially the gate index); such a path only visits groups ranked
 * below S's highest rank, so the cycle check is a search bounded to
 * that window, and an accepted merge re-ranks only the groups it
 * found (Pearce-Kelly style). A merge costs the groups inside the
 * window, not the whole circuit (DESIGN.md §4).
 *
 * Used by the APA-basis rewriter, the customized-gates merge engine,
 * and the AccQOC baseline's fixed-depth grouping.
 */
class GroupContraction
{
  public:
    GroupContraction(const Circuit &circuit, const Dag &dag);

    /**
     * Try to merge the given gate indices (which may already belong to
     * merged groups; all their groups fuse) into one group with a new
     * id. Returns false and leaves the state unchanged if the
     * contraction would create a dependence cycle.
     */
    bool tryMerge(const std::vector<int> &gates);

    /** Group id currently containing a gate. */
    int groupOf(int gate) const
    { return group_of_[static_cast<std::size_t>(gate)]; }

    /** Member gate indices (ascending) of a live group. */
    std::span<const int> members(int gid) const;

    /** One past the largest group id handed out so far. */
    std::size_t idBound() const { return live_.size(); }

    /**
     * Rollback point: the number of merges applied so far plus the
     * serial of the last one, so a stale state cannot be restored.
     */
    struct State
    {
        std::size_t merges = 0;
        std::uint64_t serial = 0;
    };

    /** Capture the current grouping (O(1)). */
    State snapshot() const;

    /**
     * Undo every merge applied since `state` was captured; costs the
     * size of the undone merges. States captured after `state` become
     * invalid.
     */
    void restore(const State &state);

    /** Members (gate indices, ascending) of every live group. */
    std::vector<std::vector<int>> groups() const;

    /**
     * Live group ids in dependence order, ties broken by lowest member
     * gate index; throws if cyclic.
     */
    std::vector<int> topologicalOrder() const;

    /**
     * Emit the contracted circuit in topologicalOrder(). merged_emitter
     * receives the member gate indices (ascending) of each multi-gate
     * group and returns the replacement gate; single-gate groups pass
     * through.
     */
    Circuit emit(const std::function<Gate(const std::vector<int> &)>
                     &merged_emitter) const;

  private:
    /** One applied merge, as the journal records it for restore(). */
    struct Merge
    {
        std::size_t fusedBegin; // into fused_log_
        std::size_t rankBegin;  // into rank_log_
        std::uint64_t serial;
        int heir; // the fused group whose member list was taken over
    };

    std::uint32_t freshStamp();
    /**
     * Depth-first search from the groups of S (marked `in_s`) along
     * successors when forward, else predecessors, visiting outside
     * groups ranked at most (forward) or at least (backward) `bound`
     * and collecting them in `found`. Returns false when it re-enters
     * S, i.e. when the merge would close a cycle.
     */
    bool search(bool forward, int bound, std::uint32_t in_s,
                std::uint32_t seen, std::vector<int> &found);
    void undoLast();

    const Circuit &circuit_;
    const Dag &dag_;
    std::vector<int> group_of_;
    // Member lists. Group g < n is gate g's singleton, stored as
    // self_[g]; merged group g >= n owns merged_[g - n]. A merge takes
    // over its largest fused group's list and copies in the others,
    // whose lists stay for restore(): small-to-large, so all lists
    // together hold O(n log n) entries.
    std::vector<int> self_;
    std::vector<std::vector<int>> merged_;
    // Per group id (dead ids keep their entries for restore()).
    std::vector<char> live_;
    std::vector<int> rank_;
    std::vector<std::uint32_t> mark_;
    std::uint32_t stamp_ = 0;

    std::vector<Merge> journal_;
    std::vector<int> fused_log_;
    std::vector<std::pair<int, int>> rank_log_; // (group, old rank)
    std::uint64_t serial_ = 0;

    // Reused search scratch.
    std::vector<int> fused_, forward_, backward_, stack_, pool_;
};

} // namespace paqoc

#endif // PAQOC_CIRCUIT_CONTRACT_H_
