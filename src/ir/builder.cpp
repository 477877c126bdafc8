#include "ir/builder.hpp"

#include <utility>

#include "core/status.hpp"

namespace apex::ir {

namespace {

/** Typed replacement for the former asserts: a default-constructed
 * Value reaching a builder op is a caller bug that must not survive
 * release builds. */
void
requireValid(const Value &v, const char *where)
{
    if (!v.valid())
        throw IrError(ErrorCode::kInvalidIr,
                      std::string("GraphBuilder::") + where +
                          ": operand Value is invalid "
                          "(default-constructed or moved-from)");
}

} // namespace

Value
GraphBuilder::input(std::string name)
{
    return {this, graph_.addNode(Op::kInput, {}, 0, std::move(name))};
}

Value
GraphBuilder::inputBit(std::string name)
{
    return {this, graph_.addNode(Op::kInputBit, {}, 0, std::move(name))};
}

Value
GraphBuilder::constant(std::uint64_t value, std::string name)
{
    return {this,
            graph_.addNode(Op::kConst, {}, value, std::move(name))};
}

Value
GraphBuilder::output(Value v, std::string name)
{
    requireValid(v, "output");
    return {this,
            graph_.addNode(Op::kOutput, {v.id()}, 0, std::move(name))};
}

Value
GraphBuilder::outputBit(Value v, std::string name)
{
    requireValid(v, "outputBit");
    return {this,
            graph_.addNode(Op::kOutputBit, {v.id()}, 0, std::move(name))};
}

Value
GraphBuilder::mem(Value v, std::string name)
{
    requireValid(v, "mem");
    return {this,
            graph_.addNode(Op::kMem, {v.id()}, 0, std::move(name))};
}

Value
GraphBuilder::reg(Value v)
{
    requireValid(v, "reg");
    return {this, graph_.addNode(Op::kReg, {v.id()})};
}

Value
GraphBuilder::select(Value sel, Value a, Value b)
{
    requireValid(sel, "select");
    requireValid(a, "select");
    requireValid(b, "select");
    return {this,
            graph_.addNode(Op::kSel, {sel.id(), a.id(), b.id()})};
}

Value
GraphBuilder::lut(std::uint64_t table, Value a, Value b, Value c)
{
    requireValid(a, "lut");
    requireValid(b, "lut");
    requireValid(c, "lut");
    return {this,
            graph_.addNode(Op::kLut, {a.id(), b.id(), c.id()}, table)};
}

Value
GraphBuilder::macTree(const std::vector<Value> &ins,
                      const std::vector<Value> &ws, Value bias)
{
    if (ins.empty() || ins.size() != ws.size())
        throw IrError(ErrorCode::kInvalidArgument,
                      "GraphBuilder::macTree: inputs and weights must "
                      "be non-empty and the same length");
    // Balanced reduction tree over the products, the shape schedulers
    // emit for wide reductions: it keeps every operand path within
    // one add-level of the others, which is what keeps branch-delay-
    // matching register pressure manageable on pipelined PEs
    // (Sec. 4.3).  mul->add and add->add remain the dominant mined
    // patterns, as in the Fig. 3 example.
    std::vector<Value> level;
    level.reserve(ins.size());
    for (std::size_t i = 0; i < ins.size(); ++i)
        level.push_back(mul(ins[i], ws[i]));
    while (level.size() > 1) {
        std::vector<Value> next;
        for (std::size_t i = 0; i + 1 < level.size(); i += 2)
            next.push_back(add(level[i], level[i + 1]));
        if (level.size() % 2 == 1)
            next.push_back(level.back());
        level = std::move(next);
    }
    Value acc = level[0];
    if (bias.valid())
        acc = add(acc, bias);
    return acc;
}

Value
GraphBuilder::clamp(Value v, Value lo, Value hi)
{
    return min(max(v, lo), hi);
}

Value
GraphBuilder::relu(Value v)
{
    return max(v, constant(0));
}

Graph
GraphBuilder::take()
{
    return std::exchange(graph_, Graph{});
}

Value
GraphBuilder::unary(Op op, Value a)
{
    requireValid(a, "unary");
    return {this, graph_.addNode(op, {a.id()})};
}

Value
GraphBuilder::binary(Op op, Value a, Value b)
{
    requireValid(a, "binary");
    requireValid(b, "binary");
    return {this, graph_.addNode(op, {a.id(), b.id()})};
}

} // namespace apex::ir
