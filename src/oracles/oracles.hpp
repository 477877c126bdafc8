#ifndef APEX_ORACLES_ORACLES_H_
#define APEX_ORACLES_ORACLES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/deadline.hpp"
#include "mapper/rewrite.hpp"
#include "merging/clique.hpp"
#include "mining/isomorphism.hpp"
#include "mining/miner.hpp"
#include "mining/mis.hpp"

/**
 * @file
 * Differential oracles: the historic implementations of the mining,
 * merging and rewrite-validation kernels, kept verbatim so tests and
 * benches can check the optimized product code against them byte for
 * byte and use them as perf baselines.  They build as the
 * apex_oracles library, which only tests/ and bench/ link; no product
 * code path reaches them.
 */

namespace apex::mining {

/**
 * Retained reference matcher: the historic backtracking search whose
 * unconstrained pattern nodes scan the whole target graph.  Kept as
 * the differential-testing oracle for the label-indexed matcher —
 * findEmbeddings() must return a byte-identical embedding list
 * (order and `limit` truncation included).
 */
std::vector<Embedding>
findEmbeddingsReference(const ir::Graph &pattern,
                        const ir::Graph &target,
                        std::size_t limit = 0);

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

/**
 * The historic pattern-growth miner, kept verbatim as the
 * differential oracle for FrequentSubgraphMiner::mine: the pattern
 * lists must be byte-identical.
 */
std::vector<MinedPattern>
minePatternsReference(const ir::Graph &app,
                      const MinerOptions &options,
                      MineStats *stats = nullptr);

} // namespace apex::mining

namespace apex::merging {

/** Upper bound used by the reference solver. */
enum class CliqueBound {
    kWeightSum, ///< Sum of remaining candidate weights (historic).
    kColoring,  ///< Greedy-colouring bound (matches maxWeightClique).
};

/**
 * Reference solver on naive data structures (vector candidate lists,
 * per-node allocations), retained for differential tests and the
 * kernel benchmarks.  With CliqueBound::kColoring it must return
 * byte-identical results to maxWeightClique on every path, including
 * budget and deadline truncation; with kWeightSum it reproduces the
 * historic weak bound (same answers at ample budget, many more nodes).
 * No telemetry is recorded.
 */
CliqueResult
maxWeightCliqueReference(const CliqueProblem &problem,
                         std::int64_t node_budget = 2'000'000,
                         const Deadline &deadline = {},
                         CliqueBound bound = CliqueBound::kColoring);

} // namespace apex::merging

namespace apex::mapper {

/**
 * The historic rule validation, which redoes its set-up for every
 * test vector, retained as the differential oracle for
 * validateRule(): same vectors in the same order, and the same
 * accept/reject on every rule.  Records no telemetry.
 */
bool validateRuleReference(const pe::PeSpec &spec,
                           const RewriteRule &rule,
                           const SynthesisOptions &options = {});

} // namespace apex::mapper

#endif // APEX_ORACLES_ORACLES_H_
