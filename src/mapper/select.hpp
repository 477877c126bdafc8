#ifndef APEX_MAPPER_SELECT_H_
#define APEX_MAPPER_SELECT_H_

#include <string>
#include <vector>

#include "core/status.hpp"
#include "ir/graph.hpp"
#include "mapper/mapped_graph.hpp"
#include "mapper/rewrite.hpp"

/**
 * @file
 * Instruction selection (Sec. 4.1.2): transform the application
 * dataflow graph of IR operations into a dataflow graph of PE
 * instances by greedily applying rewrite rules, most complex first —
 * the LLVM-style tiling the paper uses.
 *
 * A rule matches at an application node when its pattern embeds with
 * the sink anchored there, every internal node of the match has no
 * consumer outside the match (its value would not be observable on
 * the PE output), every pattern constant lands on an application
 * constant (absorbed into the PE's constant registers), and pattern
 * inputs bind to values produced outside the match.
 */

namespace apex::mapper {

/** Result of mapping one application. */
struct SelectionResult {
    bool success = false;
    Status status;           ///< Typed outcome (kMappingFailed).
    MappedGraph mapped;      ///< Valid when success.
    std::vector<int> rule_uses; ///< Per-rule application counts.

    /** Number of PE instances used (the paper's "#PEs"). */
    int peCount() const { return mapped.count(MappedKind::kPe); }
};

/** Tiling policy. */
enum class SelectionPolicy {
    /** The paper's policy: greedy, most complex rule first
     * (LLVM-style maximal munch). */
    kGreedyLargestFirst,
    /** Dynamic-programming cost minimization: per node, choose the
     * rule minimizing (1 + sum of the costs of the values it
     * consumes).  Optimal PE count on expression trees; on DAGs
     * shared values are materialized once but the DP bound may
     * overcount them (classic tiling heuristic). */
    kMinCost,
};

/** Instruction selector (greedy or DP tiling). */
class InstructionSelector {
  public:
    /** @param rules  Rule library, ordered most-complex-first (as
     * produced by RewriteRuleSynthesizer::synthesizeLibrary). */
    explicit InstructionSelector(
        std::vector<RewriteRule> rules,
        SelectionPolicy policy = SelectionPolicy::kGreedyLargestFirst)
        : rules_(std::move(rules)), policy_(policy) {}

    /** Map @p app onto PEs; fails when some compute node cannot be
     * covered by any rule. */
    SelectionResult map(const ir::Graph &app) const;

    const std::vector<RewriteRule> &rules() const { return rules_; }
    SelectionPolicy policy() const { return policy_; }

  private:
    std::vector<RewriteRule> rules_;
    SelectionPolicy policy_;
};

/**
 * Execute a mapped application on the PE functional model and return
 * the output values in application output order.  Registers, register
 * files and memory nodes forward their input (steady-state streaming
 * semantics) so the result is directly comparable with
 * ir::Interpreter::evalByOrder on the source application.
 */
std::vector<std::uint64_t>
executeMapped(const MappedGraph &mapped,
              const std::vector<RewriteRule> &rules,
              const pe::PeSpec &spec,
              const std::vector<std::uint64_t> &inputs_by_order);

/**
 * Heterogeneous-fabric variant of executeMapped(): each rule's
 * pe_type indexes @p specs (see combineLibraries()).
 */
std::vector<std::uint64_t>
executeMappedHetero(const MappedGraph &mapped,
                    const std::vector<RewriteRule> &rules,
                    const std::vector<const pe::PeSpec *> &specs,
                    const std::vector<std::uint64_t>
                        &inputs_by_order);

} // namespace apex::mapper

#endif // APEX_MAPPER_SELECT_H_
