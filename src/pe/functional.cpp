#include "pe/functional.hpp"

#include "ir/op.hpp"

namespace apex::pe {

using merging::DpNodeKind;

static_assert(ir::kNumOps <= 64, "NodeInfo::ops is a 64-bit op set");

namespace {

enum : std::uint8_t { kUnvisited, kOnStack, kDone };

} // namespace

PeFunctionalModel::PeFunctionalModel(const PeSpec &spec, int width)
    : spec_(spec), width_(width), nodes_(spec.dp.nodes.size())
{
    for (std::size_t id = 0; id < nodes_.size(); ++id) {
        nodes_[id].kind = spec.dp.nodes[id].kind;
        nodes_[id].bit = spec.dp.nodes[id].type == ir::ValueType::kBit;
        for (ir::Op op : spec.dp.nodes[id].ops)
            nodes_[id].ops |= std::uint64_t{1} << static_cast<int>(op);
    }
    auto set_index = [&](int id, DpNodeKind kind, std::size_t i) {
        if (nodes_[id].kind == kind)
            nodes_[id].index = static_cast<int>(i);
    };
    for (std::size_t i = 0; i < spec.word_inputs.size(); ++i)
        set_index(spec.word_inputs[i], DpNodeKind::kInput, i);
    for (std::size_t i = 0; i < spec.bit_inputs.size(); ++i)
        set_index(spec.bit_inputs[i], DpNodeKind::kInput, i);
    for (std::size_t i = 0; i < spec.const_regs.size(); ++i)
        set_index(spec.const_regs[i], DpNodeKind::kConst, i);
    // A block named twice reads the first lut_blocks entry.
    for (std::size_t i = spec.lut_blocks.size(); i-- > 0;)
        set_index(spec.lut_blocks[i], DpNodeKind::kBlock, i);
    for (std::size_t m = 0; m < spec.muxes.size(); ++m) {
        const MuxSite &site = spec.muxes[m];
        if (site.port < kMaxArity && nodes_[site.node].mux[site.port] < 0)
            nodes_[site.node].mux[site.port] = static_cast<int>(m);
    }
    // Ports without a mux read their lowest-id source.
    for (const merging::DpEdge &e : spec.dp.edges) {
        if (e.port < 0 || e.port >= kMaxArity)
            continue;
        int &fixed = nodes_[e.dst].fixed[e.port];
        if (fixed < 0 || e.src < fixed)
            fixed = e.src;
    }
}

bool
PeFunctionalModel::visit(int id, const PeConfig &config,
                         const PeInputs &inputs, Slot *slots) const
{
    Slot &slot = slots[id];
    if (slot.state == kDone)
        return true;
    if (slot.state == kOnStack)
        return false; // combinational cycle under this config
    slot.state = kOnStack;

    const NodeInfo &nd = nodes_[id];
    switch (nd.kind) {
      case DpNodeKind::kInput: {
        const auto &vec = nd.bit ? inputs.bit : inputs.word;
        if (nd.index < 0 || nd.index >= static_cast<int>(vec.size()))
            return false;
        slot.value = vec[nd.index];
        break;
      }
      case DpNodeKind::kConst: {
        if (nd.index < 0 ||
            nd.index >= static_cast<int>(config.const_val.size())) {
            return false;
        }
        slot.value = config.const_val[nd.index];
        break;
      }
      case DpNodeKind::kBlock: {
        const ir::Op op = config.block_op[id];
        if (op >= ir::Op::kNumOps ||
            !(nd.ops >> static_cast<int>(op) & 1)) {
            return false;
        }
        const int arity = ir::opArity(op);
        std::uint64_t operand[kMaxArity] = {0, 0, 0};
        for (int p = 0; p < arity; ++p) {
            int src = nd.fixed[p];
            if (nd.mux[p] >= 0) {
                const int sel = config.mux_sel[nd.mux[p]];
                const auto &sources = spec_.muxes[nd.mux[p]].sources;
                if (sel < 0 || sel >= static_cast<int>(sources.size()))
                    return false;
                src = sources[sel];
            }
            if (src < 0 || !visit(src, config, inputs, slots))
                return false;
            operand[p] = slots[src].value;
        }
        const std::uint64_t lut =
            nd.index >= 0 &&
                    nd.index < static_cast<int>(config.lut_table.size())
                ? config.lut_table[nd.index]
                : 0;
        slot.value = ir::evalOp(op, operand[0], operand[1], operand[2],
                                lut, width_);
        break;
      }
    }
    slot.state = kDone;
    return true;
}

bool
PeFunctionalModel::evaluateNode(const PeConfig &config,
                                const PeInputs &inputs, int node,
                                std::uint64_t *value) const
{
    if (node < 0 || node >= static_cast<int>(nodes_.size()))
        return false;
    std::vector<Slot> slots(nodes_.size());
    if (!visit(node, config, inputs, slots.data()))
        return false;
    *value = slots[node].value;
    return true;
}

bool
PeFunctionalModel::evaluate(const PeConfig &config,
                            const PeInputs &inputs,
                            PeOutputs *out) const
{
    *out = PeOutputs{};
    // Both outputs share one walk: a node finished for the word
    // output has the same value when the bit output reads it, and no
    // node is left on the stack between the two.
    std::vector<Slot> slots(nodes_.size());
    auto output = [&](const std::vector<int> &outputs, int sel,
                      std::uint64_t *value) {
        if (sel < 0 || sel >= static_cast<int>(outputs.size()) ||
            !visit(outputs[sel], config, inputs, slots.data())) {
            return false;
        }
        *value = slots[outputs[sel]].value;
        return true;
    };
    if (!spec_.word_outputs.empty()) {
        if (!output(spec_.word_outputs, config.word_out_sel, &out->word))
            return false;
        out->has_word = true;
    }
    if (!spec_.bit_outputs.empty()) {
        if (!output(spec_.bit_outputs, config.bit_out_sel, &out->bit))
            return false;
        out->has_bit = true;
    }
    return true;
}

} // namespace apex::pe
