#ifndef APEX_PE_FUNCTIONAL_H_
#define APEX_PE_FUNCTIONAL_H_

#include <cstdint>
#include <vector>

#include "pe/spec.hpp"

/**
 * @file
 * PE functional model — executes a PeSpec on concrete values, the way
 * a PEak program executes as Python.  Used as the golden model for
 * rewrite-rule validation and for CGRA simulation.
 *
 * Evaluation is demand-driven from the selected output(s): only nodes
 * reachable through the *configured* mux selections are computed, and
 * a configuration whose selected edges form a combinational loop is
 * rejected (merged datapaths may contain such loops across mutually
 * exclusive configurations).
 */

namespace apex::pe {

/** Input values for one evaluation. */
struct PeInputs {
    std::vector<std::uint64_t> word; ///< Per PeSpec::word_inputs.
    std::vector<std::uint64_t> bit;  ///< Per PeSpec::bit_inputs.
};

/** Output values of one evaluation. */
struct PeOutputs {
    std::uint64_t word = 0;
    std::uint64_t bit = 0;
    bool has_word = false;
    bool has_bit = false;
};

/** Demand-driven evaluator for a PE specification. */
class PeFunctionalModel {
  public:
    /**
     * @param spec   PE to model (must outlive the model and not
     *               change while it is in use).
     * @param width  Datapath width in bits (reduced widths support the
     *               exhaustive rewrite-rule validation sweep).
     */
    explicit PeFunctionalModel(const PeSpec &spec,
                               int width = ir::kWordWidth);

    /**
     * Evaluate the PE.
     *
     * @param config  Configuration (mux selects, opcodes, constants).
     * @param inputs  Input port values.
     * @param out     Receives the output port values.
     * @return false when the configuration selects a combinational
     *         cycle or an invalid index; true otherwise.
     */
    bool evaluate(const PeConfig &config, const PeInputs &inputs,
                  PeOutputs *out) const;

    /**
     * Evaluate and return the value of one specific datapath node
     * (used by rewrite-rule validation for intermediate taps).
     *
     * @return false on cycle/invalid config.
     */
    bool evaluateNode(const PeConfig &config, const PeInputs &inputs,
                      int node, std::uint64_t *value) const;

    int width() const { return width_; }

  private:
    /** Largest operand count of any op. */
    static constexpr int kMaxArity = 3;

    /** What the walk reads about one datapath node, resolved once
     * from the spec so that evaluation does no lookups. */
    struct NodeInfo {
        merging::DpNodeKind kind = merging::DpNodeKind::kBlock;
        bool bit = false; ///< kInput: reads PeInputs::bit.
        /** kInput: input port position; kConst: const register
         * position; kBlock: first PeSpec::lut_blocks slot naming the
         * block.  -1 when there is none. */
        int index = -1;
        std::uint64_t ops = 0; ///< kBlock: one bit per supported op.
        /** kBlock: mux site index per operand port, or -1. */
        int mux[kMaxArity] = {-1, -1, -1};
        /** kBlock: lowest-id source of a port without a mux, or -1. */
        int fixed[kMaxArity] = {-1, -1, -1};
    };

    /** Walk state of one node during an evaluation. */
    struct Slot {
        std::uint64_t value = 0;
        std::uint8_t state = 0; ///< 0 unvisited, 1 on stack, 2 done.
    };

    /** Demand-driven DFS: compute node @p id into @p slots.
     * @return false on a selected cycle or an invalid config. */
    bool visit(int id, const PeConfig &config, const PeInputs &inputs,
               Slot *slots) const;

    const PeSpec &spec_;
    int width_;
    std::vector<NodeInfo> nodes_; ///< Indexed by datapath node id.
};

} // namespace apex::pe

#endif // APEX_PE_FUNCTIONAL_H_
