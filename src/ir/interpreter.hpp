#ifndef APEX_IR_INTERPRETER_H_
#define APEX_IR_INTERPRETER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "ir/graph.hpp"

/**
 * @file
 * Reference interpreter for dataflow graphs.
 *
 * Evaluates a graph combinationally: pipeline registers, register files
 * and memory nodes forward their input unchanged (steady-state streaming
 * semantics).  This is the golden model against which mapped and routed
 * applications are checked — mapping and pipelining may only shift
 * values in time, never change them.
 */

namespace apex::ir {

/** Evaluates graphs on concrete values. */
class Interpreter {
  public:
    /**
     * @param width  Datapath width in bits (1..16); word values are
     *               masked to this width.
     */
    explicit Interpreter(int width = kWordWidth) : width_(width) {}

    /**
     * Evaluate @p g given values for its input nodes.
     *
     * @param g       A validated graph.
     * @param inputs  Value per kInput/kInputBit node id; an input
     *                without an entry reads 0.
     * @return value of every node, indexed by node id.
     */
    std::vector<std::uint64_t>
    evalAll(const Graph &g,
            const std::map<NodeId, std::uint64_t> &inputs) const;

    /**
     * Evaluate @p g with inputs bound positionally (order of input-node
     * creation) and outputs returned positionally (order of output-node
     * creation).  Inputs beyond the end of @p inputs read 0.
     */
    std::vector<std::uint64_t>
    evalByOrder(const Graph &g,
                const std::vector<std::uint64_t> &inputs) const;

    /**
     * The evaluation loop behind evalAll() and evalByOrder(), for
     * callers that evaluate one graph on many value sets and so set
     * up the order and the value array once.
     *
     * @param g      A validated graph.
     * @param order  A topological order of @p g (Graph::topoOrder()).
     * @param value  One slot per node.  On entry every kInput /
     *               kInputBit slot holds its input value and every
     *               kConst / kConstBit slot its constant (the node's
     *               param, or an override); both are masked to width
     *               in place.  A shorter array is zero-extended, so
     *               the inputs it lacks read 0.  On return it holds
     *               every node's value.
     */
    void evalInto(const Graph &g, const std::vector<NodeId> &order,
                  std::vector<std::uint64_t> &value) const;

    int width() const { return width_; }

  private:
    int width_;
};

} // namespace apex::ir

#endif // APEX_IR_INTERPRETER_H_
