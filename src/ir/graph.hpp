#ifndef APEX_IR_GRAPH_H_
#define APEX_IR_GRAPH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/op.hpp"

/**
 * @file
 * Labeled dataflow graph: the application IR that APEX analyses.
 *
 * A Graph is a DAG of Nodes.  Each node carries an Op label, an ordered
 * list of operand edges (producer node id + destination port), an
 * optional integer parameter (constant value, LUT truth table, FIFO
 * depth) and a debug name.  Edges are stored on the consumer side;
 * fan-out lists can be derived on demand.
 */

namespace apex::ir {

/** Index of a node within its Graph. */
using NodeId = std::uint32_t;

/** Sentinel for "no node". */
inline constexpr NodeId kNoNode = 0xffffffffu;

/** One node of the dataflow graph. */
struct Node {
    Op op = Op::kConst;        ///< Operation label.
    std::vector<NodeId> operands; ///< Producer of each input port.
    std::uint64_t param = 0;   ///< Const value / LUT table / FIFO depth.
    std::string name;          ///< Debug name (may be empty).
};

/** A directed edge, identified by its consumer node and input port. */
struct Edge {
    NodeId src = kNoNode; ///< Producer node.
    NodeId dst = kNoNode; ///< Consumer node.
    int port = 0;         ///< Input port index on the consumer.

    bool operator==(const Edge &) const = default;
};

/**
 * A dataflow graph of labeled operations.
 *
 * Invariants (checked by ir::validate(), see ir/validate.hpp):
 *  - every operand id refers to an existing node;
 *  - operand counts match opArity();
 *  - every cycle crosses a register (kReg);
 *  - operand value types match opOperandType().
 */
class Graph {
  public:
    /** Append a node; operands may be filled later via setOperand(). */
    NodeId addNode(Op op, std::vector<NodeId> operands = {},
                   std::uint64_t param = 0, std::string name = {});

    /** Rebind input @p port of @p node to producer @p src. */
    void setOperand(NodeId node, int port, NodeId src);

    /** @return number of nodes. */
    std::size_t size() const { return nodes_.size(); }

    /** @return true when the graph has no nodes. */
    bool empty() const { return nodes_.empty(); }

    const Node &node(NodeId id) const { return nodes_[id]; }
    Node &node(NodeId id) { return nodes_[id]; }

    Op op(NodeId id) const { return nodes_[id].op; }

    /** @return node ids in a topological order (operands first). */
    std::vector<NodeId> topoOrder() const;

    /** @return all edges (consumer-side enumeration). */
    std::vector<Edge> edges() const;

    /** @return per-node fan-out lists (consumers of each node). */
    std::vector<std::vector<Edge>> fanouts() const;

    /** @return histogram over op labels. */
    std::map<Op, int> opHistogram() const;

    /** @return ids of nodes whose op satisfies opIsCompute(). */
    std::vector<NodeId> computeNodes() const;

    /** @return ids of nodes with the given op. */
    std::vector<NodeId> nodesWithOp(Op op) const;

    /**
     * Extract the induced subgraph over @p keep (ids into this graph).
     *
     * Operands outside @p keep become fresh kInput/kInputBit nodes of the
     * matching value type; distinct external producers map to distinct
     * inputs.  @p old_to_new, when non-null, receives the id mapping for
     * the kept nodes.
     */
    Graph inducedSubgraph(const std::vector<NodeId> &keep,
                          std::map<NodeId, NodeId> *old_to_new
                              = nullptr) const;

  private:
    std::vector<Node> nodes_;
};

} // namespace apex::ir

#endif // APEX_IR_GRAPH_H_
