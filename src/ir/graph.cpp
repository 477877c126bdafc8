#include "ir/graph.hpp"

#include <algorithm>

#include "core/status.hpp"

namespace apex::ir {

NodeId
Graph::addNode(Op op, std::vector<NodeId> operands, std::uint64_t param,
               std::string name)
{
    Node n;
    n.op = op;
    n.operands = std::move(operands);
    n.param = param;
    n.name = std::move(name);
    nodes_.push_back(std::move(n));
    return static_cast<NodeId>(nodes_.size() - 1);
}

void
Graph::setOperand(NodeId node, int port, NodeId src)
{
    if (node >= nodes_.size())
        throw IrError(ErrorCode::kInvalidIr,
                      "setOperand: node id " + std::to_string(node) +
                          " is out of range");
    auto &ops = nodes_[node].operands;
    if (static_cast<int>(ops.size()) <= port)
        ops.resize(port + 1, kNoNode);
    ops[port] = src;
}

std::vector<NodeId>
Graph::topoOrder() const
{
    // indeg of a node = number of its operands (consumer-side edges).
    std::vector<int> indeg(nodes_.size(), 0);
    for (NodeId id = 0; id < nodes_.size(); ++id)
        indeg[id] = static_cast<int>(nodes_[id].operands.size());

    // Consumers-of lists.
    std::vector<std::vector<NodeId>> consumers(nodes_.size());
    for (NodeId id = 0; id < nodes_.size(); ++id)
        for (NodeId src : nodes_[id].operands)
            if (src < nodes_.size())
                consumers[src].push_back(id);

    std::vector<NodeId> ready;
    for (NodeId id = 0; id < nodes_.size(); ++id)
        if (indeg[id] == 0)
            ready.push_back(id);

    std::vector<NodeId> order;
    order.reserve(nodes_.size());
    while (!ready.empty()) {
        const NodeId id = ready.back();
        ready.pop_back();
        order.push_back(id);
        for (NodeId c : consumers[id])
            if (--indeg[c] == 0)
                ready.push_back(c);
    }
    return order;
}

std::vector<Edge>
Graph::edges() const
{
    std::vector<Edge> result;
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        const Node &n = nodes_[id];
        for (int p = 0; p < static_cast<int>(n.operands.size()); ++p)
            result.push_back(Edge{n.operands[p], id, p});
    }
    return result;
}

std::vector<std::vector<Edge>>
Graph::fanouts() const
{
    std::vector<std::vector<Edge>> result(nodes_.size());
    for (const Edge &e : edges())
        if (e.src < nodes_.size())
            result[e.src].push_back(e);
    return result;
}

std::map<Op, int>
Graph::opHistogram() const
{
    std::map<Op, int> hist;
    for (const Node &n : nodes_)
        ++hist[n.op];
    return hist;
}

std::vector<NodeId>
Graph::computeNodes() const
{
    std::vector<NodeId> result;
    for (NodeId id = 0; id < nodes_.size(); ++id)
        if (opIsCompute(nodes_[id].op))
            result.push_back(id);
    return result;
}

std::vector<NodeId>
Graph::nodesWithOp(Op op) const
{
    std::vector<NodeId> result;
    for (NodeId id = 0; id < nodes_.size(); ++id)
        if (nodes_[id].op == op)
            result.push_back(id);
    return result;
}

Graph
Graph::inducedSubgraph(const std::vector<NodeId> &keep,
                       std::map<NodeId, NodeId> *old_to_new) const
{
    Graph sub;
    std::map<NodeId, NodeId> remap;       // kept old id -> new id
    std::map<NodeId, NodeId> ext_inputs;  // external old id -> new input

    // Create kept nodes first, in topological order restricted to keep,
    // so operand ids always exist when we wire them.
    std::vector<NodeId> kept_sorted;
    {
        std::vector<bool> in_keep(nodes_.size(), false);
        for (NodeId id : keep)
            in_keep[id] = true;
        for (NodeId id : topoOrder())
            if (in_keep[id])
                kept_sorted.push_back(id);
    }

    for (NodeId old_id : kept_sorted) {
        const Node &n = nodes_[old_id];
        std::vector<NodeId> new_operands;
        new_operands.reserve(n.operands.size());
        for (int p = 0; p < static_cast<int>(n.operands.size()); ++p) {
            const NodeId src = n.operands[p];
            auto it = remap.find(src);
            if (it != remap.end()) {
                new_operands.push_back(it->second);
                continue;
            }
            auto ext = ext_inputs.find(src);
            if (ext == ext_inputs.end()) {
                const Op in_op =
                    opResultType(nodes_[src].op) == ValueType::kBit
                        ? Op::kInputBit
                        : Op::kInput;
                const NodeId in_id = sub.addNode(in_op, {}, 0,
                                                 nodes_[src].name);
                ext = ext_inputs.emplace(src, in_id).first;
            }
            new_operands.push_back(ext->second);
        }
        const NodeId new_id = sub.addNode(n.op, std::move(new_operands),
                                          n.param, n.name);
        remap[old_id] = new_id;
    }

    if (old_to_new)
        *old_to_new = std::move(remap);
    return sub;
}

} // namespace apex::ir
