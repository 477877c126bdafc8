#ifndef APEX_MINING_MIS_H_
#define APEX_MINING_MIS_H_

#include <vector>

#include "ir/graph.hpp"

/**
 * @file
 * Maximal independent set analysis of pattern occurrences (Sec. 3.2).
 *
 * Each occurrence of a pattern becomes a node of an *overlap graph*;
 * two occurrences are connected when their node sets intersect.  An
 * independent set of that graph is a family of occurrences that can
 * all be accelerated by fully-utilized PEs simultaneously; its size is
 * the paper's ranking signal for pattern interestingness.
 *
 * The solver is exact (branch and bound with a greedy bound) for
 * overlap graphs up to a size threshold and falls back to the
 * min-degree greedy heuristic above it — both return a *maximal*
 * independent set, matching the paper's terminology.
 *
 * Implementation: the overlap graph is a union of cliques, one per
 * target node shared by two or more occurrences, and it is stored that
 * way — one dense bitset row per such node ("bucket"), whose bits are
 * the occurrences containing it.  Occurrence i's closed neighbourhood
 * is the OR of its few bucket rows, so a hub node shared by thousands
 * of occurrences costs one row instead of millions of edges.  The
 * greedy keeps a lazy min-heap per degree and, after each pick,
 * updates degrees only for survivors sharing a bucket with a removed
 * occurrence; the exact branch and bound runs on adjacency rows ORed
 * from the same buckets.  All of it is deterministic with
 * ascending-index tie-breaking; the historic implementations are
 * retained as `*Reference` for differential testing
 * (tests/kernels_test.cpp) and must stay byte-identical.
 */

namespace apex::mining {

/** Occurrence count up to which maximalIndependentSet() solves
 * exactly; above it the min-degree greedy answers. */
inline constexpr int kMisExactLimit = 28;

/** Result of the independent-set computation. */
struct MisResult {
    /** Indices (into the occurrence list) of the chosen occurrences. */
    std::vector<int> chosen;
    /** Size of the set (== chosen.size()). */
    int size = 0;
};

/**
 * Compute a maximal independent set over occurrence overlap.
 *
 * @param occurrences    Sorted node-id sets, one per occurrence.
 * @param exact_limit    Use the exact solver when the occurrence count
 *                       is at most this.
 */
MisResult
maximalIndependentSet(const std::vector<std::vector<ir::NodeId>>
                          &occurrences,
                      int exact_limit = kMisExactLimit);

/**
 * Build the overlap adjacency used by maximalIndependentSet().
 * adjacency[i] lists the occurrence indices whose node sets intersect
 * occurrence i's, ascending.
 */
std::vector<std::vector<int>>
overlapGraph(const std::vector<std::vector<ir::NodeId>> &occurrences);

/** Historic all-pairs overlap construction (O(n^2) sorted-set
 * intersections), retained as the differential-test oracle. */
std::vector<std::vector<int>>
overlapGraphReference(
    const std::vector<std::vector<ir::NodeId>> &occurrences);

/** Historic solver (O(n) greedy scans, per-recursion degree
 * recomputation), retained as the differential-test oracle.  Must
 * return byte-identical results to maximalIndependentSet(). */
MisResult
maximalIndependentSetReference(
    const std::vector<std::vector<ir::NodeId>> &occurrences,
    int exact_limit = kMisExactLimit);

} // namespace apex::mining

#endif // APEX_MINING_MIS_H_
