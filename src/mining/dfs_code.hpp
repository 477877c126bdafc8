#ifndef APEX_MINING_DFS_CODE_H_
#define APEX_MINING_DFS_CODE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "ir/graph.hpp"

/**
 * @file
 * Minimum DFS codes over pattern cores — the miner's cheap canonical
 * identity (Pangolin/gSpan style), replacing the full-graph
 * `ir::canonicalCode` WL-refinement B&B on the per-candidate hot path.
 *
 * A pattern's *core* is its non-placeholder nodes; placeholders are
 * determined by the core (one fresh input per unfilled operand port),
 * so two miner patterns are isomorphic iff their cores are.  A DFS
 * code of a core is the token stream of one depth-first connected
 * expansion: vertices are emitted in discovery order, each with its
 * label and the edges (as (earlier-vertex, direction, port) triples,
 * ascending) that attach it to the already-discovered part.  The
 * stream encodes every vertex label and every edge exactly once, so
 * it reconstructs the core up to isomorphism; the lexicographic
 * minimum over all expansions is therefore a canonical form, and two
 * cores are isomorphic iff their minimum codes are equal.
 *
 * minCode() finds the minimum by branch-and-bound: expansions are
 * explored smallest-token-first and a branch is abandoned the moment
 * its emitted prefix exceeds the incumbent, so for the label-rich
 * cores mining produces the search degenerates to a single
 * O(code-length) walk plus O(1) aborted probes.
 */

namespace apex::mining::dfs {

/** One DFS code: a flat token stream (cheap to compare/hash/order). */
using Code = std::vector<std::uint64_t>;

/** A pattern core lifted out of its Graph: labels + adjacency. */
struct CoreView {
    struct Half {
        int other; ///< Core index of the neighbour.
        int dir;   ///< 0: this vertex consumes `other`; 1: converse.
        int port;  ///< Consumer-side input port of the edge.
    };
    /** Label per core vertex: op + LUT truth table (const values are
     * not identity, mirroring labelsMatch()/canonicalCode()). */
    std::vector<std::pair<ir::Op, std::uint64_t>> labels;
    std::vector<std::vector<Half>> adj; ///< Both half-edges per edge.

    std::size_t size() const { return labels.size(); }
};

/** Extract the core (non-placeholder) view of a miner pattern. */
CoreView coreView(const ir::Graph &pattern);

/** Minimum DFS code of @p core (empty for an empty core). */
Code minCode(const CoreView &core);

} // namespace apex::mining::dfs

#endif // APEX_MINING_DFS_CODE_H_
