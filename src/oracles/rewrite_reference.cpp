#include <functional>
#include <map>
#include <random>

#include "ir/interpreter.hpp"
#include "oracles/oracles.hpp"

/**
 * @file
 * Retained reference rewrite-rule validation: the historic
 * validateRule, which rebuilds the pattern copy, input map,
 * evaluation order and PE model for every test vector.  Kept verbatim
 * as the differential oracle for the set-up-once validateRule in
 * rewrite.cpp: both must check the same vectors and agree on every
 * accept/reject.
 */

namespace apex::mapper {

using ir::Graph;
using ir::NodeId;
using ir::Op;
using pe::PeConfig;
using pe::PeSpec;

namespace {

bool
isPlaceholderNode(const Graph &g, NodeId id)
{
    const Op op = g.op(id);
    return op == Op::kInput || op == Op::kInputBit;
}

} // namespace

bool
validateRuleReference(const PeSpec &spec, const RewriteRule &rule,
             const SynthesisOptions &options)
{
    // Free variables of the forall: placeholders and constants.
    std::vector<NodeId> free_vars = rule.placeholders;
    for (const auto &[const_node, reg] : rule.const_bindings)
        free_vars.push_back(const_node);

    auto check = [&](const std::vector<std::uint64_t> &values,
                     int width) {
        // Bind the pattern side: copy the pattern with const params
        // overridden, interpret.
        Graph bound = rule.pattern;
        std::map<NodeId, std::uint64_t> inputs;
        pe::PeInputs pe_in;
        pe_in.word.assign(spec.word_inputs.size(), 0);
        pe_in.bit.assign(spec.bit_inputs.size(), 0);
        PeConfig cfg = rule.config;

        for (std::size_t i = 0; i < free_vars.size(); ++i) {
            const NodeId id = free_vars[i];
            const std::uint64_t v = values[i];
            if (isPlaceholderNode(rule.pattern, id)) {
                inputs[id] = v;
                // Locate this placeholder's rule input port.
                for (std::size_t k = 0; k < rule.placeholders.size();
                     ++k) {
                    if (rule.placeholders[k] != id)
                        continue;
                    if (rule.pattern.op(id) == Op::kInputBit)
                        pe_in.bit[rule.input_ports[k]] = v & 1;
                    else
                        pe_in.word[rule.input_ports[k]] = v;
                }
            } else {
                bound.node(id).param = v;
                for (const auto &[cnode, reg] : rule.const_bindings)
                    if (cnode == id)
                        cfg.const_val[reg] = v;
            }
        }

        const ir::Interpreter interp(width);
        const auto pattern_vals = interp.evalAll(bound, inputs);
        const std::uint64_t want = pattern_vals[rule.out_node];

        const pe::PeFunctionalModel model(spec, width);
        pe::PeOutputs out;
        if (!model.evaluate(cfg, pe_in, &out))
            return false;
        const std::uint64_t got = rule.word_output ? out.word
                                                   : out.bit;
        return got == want;
    };

    const int nvars = static_cast<int>(free_vars.size());
    auto width_of = [&](NodeId id) {
        return ir::opResultType(rule.pattern.op(id)) ==
                       ir::ValueType::kBit
                   ? 1
                   : 0; // 0 = word (width set per phase)
    };

    // Phase 1: exhaustive at reduced width when tractable.
    if (nvars <= options.exhaustive_max_inputs) {
        const int w = options.exhaustive_width;
        std::vector<std::uint64_t> values(nvars, 0);
        std::function<bool(int)> sweep = [&](int i) -> bool {
            if (i == nvars)
                return check(values, w);
            const std::uint64_t limit =
                width_of(free_vars[i]) == 1 ? 2 : (1u << w);
            for (std::uint64_t v = 0; v < limit; ++v) {
                values[i] = v;
                if (!sweep(i + 1))
                    return false;
            }
            return true;
        };
        if (!sweep(0))
            return false;
    }

    // Phase 2: randomized checking at full width.
    std::mt19937 rng(options.seed);
    std::uniform_int_distribution<std::uint32_t> dist(0, 0xFFFF);
    for (int t = 0; t < options.random_checks; ++t) {
        std::vector<std::uint64_t> values(nvars);
        for (int i = 0; i < nvars; ++i) {
            values[i] = width_of(free_vars[i]) == 1 ? (dist(rng) & 1)
                                                    : dist(rng);
        }
        if (!check(values, ir::kWordWidth))
            return false;
    }
    return true;
}

} // namespace apex::mapper
