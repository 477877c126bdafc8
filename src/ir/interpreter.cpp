#include "ir/interpreter.hpp"

#include <cassert>

namespace apex::ir {

namespace {

/** Value array seeded with every constant's param; inputs read 0. */
std::vector<std::uint64_t>
seededValues(const Graph &g)
{
    std::vector<std::uint64_t> value(g.size(), 0);
    for (NodeId id = 0; id < g.size(); ++id) {
        const Op op = g.op(id);
        if (op == Op::kConst || op == Op::kConstBit)
            value[id] = g.node(id).param;
    }
    return value;
}

} // namespace

void
Interpreter::evalInto(const Graph &g, const std::vector<NodeId> &order,
                      std::vector<std::uint64_t> &value) const
{
    value.resize(g.size(), 0);
    const std::uint64_t mask = (width_ >= 64)
        ? ~std::uint64_t{0}
        : (std::uint64_t{1} << width_) - 1;

    for (NodeId id : order) {
        const Node &n = g.node(id);
        switch (n.op) {
          case Op::kInput:
          case Op::kConst:
            value[id] &= mask;
            break;
          case Op::kInputBit:
          case Op::kConstBit:
            value[id] &= 1;
            break;
          case Op::kOutput:
          case Op::kOutputBit:
          case Op::kReg:
          case Op::kRegFile:
          case Op::kMem:
            value[id] = value[n.operands[0]];
            break;
          default: {
            assert(opIsCompute(n.op));
            const std::uint64_t a =
                !n.operands.empty() ? value[n.operands[0]] : 0;
            const std::uint64_t b =
                n.operands.size() > 1 ? value[n.operands[1]] : 0;
            const std::uint64_t c =
                n.operands.size() > 2 ? value[n.operands[2]] : 0;
            value[id] = evalOp(n.op, a, b, c, n.param, width_);
            break;
          }
        }
    }
}

std::vector<std::uint64_t>
Interpreter::evalAll(const Graph &g,
                     const std::map<NodeId, std::uint64_t> &inputs) const
{
    std::vector<std::uint64_t> value = seededValues(g);
    for (const auto &[id, v] : inputs) {
        const Op op = id < g.size() ? g.op(id) : Op::kNumOps;
        if (op == Op::kInput || op == Op::kInputBit)
            value[id] = v;
    }
    evalInto(g, g.topoOrder(), value);
    return value;
}

std::vector<std::uint64_t>
Interpreter::evalByOrder(const Graph &g,
                         const std::vector<std::uint64_t> &inputs) const
{
    std::vector<std::uint64_t> value = seededValues(g);
    std::size_t next = 0;
    for (NodeId id = 0; id < g.size(); ++id) {
        const Op op = g.op(id);
        if (op == Op::kInput || op == Op::kInputBit)
            value[id] = next < inputs.size() ? inputs[next++] : 0;
    }
    evalInto(g, g.topoOrder(), value);

    std::vector<std::uint64_t> outs;
    for (NodeId id = 0; id < g.size(); ++id) {
        const Op op = g.op(id);
        if (op == Op::kOutput || op == Op::kOutputBit)
            outs.push_back(value[id]);
    }
    return outs;
}

} // namespace apex::ir
