#ifndef APEX_MAPPER_REWRITE_H_
#define APEX_MAPPER_REWRITE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ir/graph.hpp"
#include "pe/functional.hpp"
#include "pe/spec.hpp"

/**
 * @file
 * Rewrite-rule synthesis (Sec. 4.1.1) — the SMT-based synthesis
 * substitute.
 *
 * A rewrite rule records how a PE must be configured to execute one
 * operation pattern: the mapping of pattern nodes onto datapath
 * resources, the mux selects and opcodes that realize the pattern's
 * edges, which PE input port carries each pattern input, which
 * constant register absorbs each pattern constant, and the output
 * select.
 *
 * The paper solves "exists config x, forall inputs y: P(x, y) = Op(y)"
 * with an SMT solver.  Here the exists is solved *structurally*
 * (backtracking embedding of the pattern into the configurable
 * datapath — the config space of these PEs is exactly their routing
 * and opcode space), and the forall is validated by exhaustive
 * equivalence at reduced bit-width plus randomized checking at full
 * width (see DESIGN.md for the soundness discussion).
 */

namespace apex::mapper {

/** A synthesized rewrite rule. */
struct RewriteRule {
    ir::Graph pattern;  ///< Pattern graph (placeholders + consts).
    pe::PeConfig config; ///< PE configuration executing the pattern
                         ///< (const values are bound per match site).
    /** Pattern node id -> datapath node id (-1 for unmapped). */
    std::vector<int> node_to_dp;
    /** Placeholder pattern node ids, ascending — rule input order. */
    std::vector<ir::NodeId> placeholders;
    /** For each placeholder: index into PeSpec::word_inputs (word
     * placeholders) or PeSpec::bit_inputs (bit placeholders). */
    std::vector<int> input_ports;
    /** Pattern const node ids -> position in PeSpec::const_regs. */
    std::vector<std::pair<ir::NodeId, int>> const_bindings;
    ir::NodeId out_node = ir::kNoNode; ///< Pattern sink node.
    bool word_output = true;  ///< Sink produces a word (else a bit).
    int size = 0;             ///< Compute nodes covered by the rule.
    /** PE type executing this rule (0 in homogeneous CGRAs; set by
     * combineLibraries() for heterogeneous fabrics). */
    int pe_type = 0;
};

/** Synthesis parameters. */
struct SynthesisOptions {
    /** Random vectors checked at full width. */
    int random_checks = 128;
    /** Width of the reduced-width exhaustive sweep (skipped when the
     * pattern has more than exhaustive_max_inputs free inputs). */
    int exhaustive_width = 3;
    int exhaustive_max_inputs = 3;
    unsigned seed = 0xA9EC;
};

/** Synthesizes rewrite rules for one PE specification. */
class RewriteRuleSynthesizer {
  public:
    explicit RewriteRuleSynthesizer(const pe::PeSpec &spec,
                                    SynthesisOptions options = {});

    /**
     * Try to synthesize a rule executing @p pattern on the PE.
     *
     * @return the validated rule, or nullopt when the PE cannot
     * execute the pattern (no structural embedding, or — should the
     * structural argument ever be violated — validation failure).
     */
    std::optional<RewriteRule>
    synthesize(const ir::Graph &pattern) const;

    /**
     * Synthesize the standard rule library for this PE:
     *  - one rule per single op the datapath supports, plus variants
     *    with each word operand bound to a constant register;
     *  - one rule per entry of @p complex_patterns (merged subgraphs
     *    from application analysis) that the PE can execute.
     *
     * Rules are returned largest-first (instruction-selection order).
     */
    std::vector<RewriteRule>
    synthesizeLibrary(const std::vector<ir::Graph> &complex_patterns)
        const;

    const pe::PeSpec &spec() const { return spec_; }

  private:
    const pe::PeSpec &spec_;
    SynthesisOptions options_;
};

/**
 * Check functional equivalence of @p rule against its pattern on the
 * PE @p spec (exhaustive reduced-width + randomized full-width).  The
 * set-up (evaluation order, models, buffers) is done once per rule;
 * each test vector costs one pattern and one PE evaluation.  Adds
 * the number of vectors checked to the apex.rewrite.checks counter.
 * Exposed for tests.
 */
bool validateRule(const pe::PeSpec &spec, const RewriteRule &rule,
                  const SynthesisOptions &options = {});

/**
 * Configure the PE to run @p rule on concrete values: @p cfg becomes
 * rule.config with @p const_vals[c] in the register of
 * rule.const_bindings[c], and @p in carries @p operands[k] on the
 * input port of rule.placeholders[k] (bit ports take the low bit,
 * unbound ports read 0).  The buffers are the caller's, so a loop
 * that reuses them allocates nothing after its first call.
 */
void bindRule(const pe::PeSpec &spec, const RewriteRule &rule,
              std::span<const std::uint64_t> operands,
              std::span<const std::uint64_t> const_vals,
              pe::PeConfig *cfg, pe::PeInputs *in);

/**
 * Merge several per-PE-type rule libraries into one instruction-
 * selection library for a heterogeneous CGRA: rules from
 * libraries[t] get pe_type = t, and the result is re-sorted
 * most-complex-first with cheaper PE types preferred on ties (a tie
 * means both PE types execute the pattern; the smaller PE should).
 *
 * @param libraries       One library per PE type.
 * @param type_area_rank  Optional areas per type used for the
 *                        tie-break (smaller = preferred).
 */
std::vector<RewriteRule>
combineLibraries(std::vector<std::vector<RewriteRule>> libraries,
                 const std::vector<double> &type_area_rank = {});

} // namespace apex::mapper

#endif // APEX_MAPPER_REWRITE_H_
