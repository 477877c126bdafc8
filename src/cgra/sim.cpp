#include "cgra/sim.hpp"

#include <algorithm>

#include "pipeline/app_pipeline.hpp"

namespace apex::cgra {

using mapper::MappedGraph;
using mapper::MappedKind;
using mapper::MappedNode;

namespace {

/** Buffers evalPe() reuses across PE instances and cycles. */
struct PeScratch {
    std::vector<std::uint64_t> operands;
    pe::PeConfig cfg;
    pe::PeInputs in;
};

/** Evaluate one PE instance on the currently-visible input values. */
std::uint64_t
evalPe(const MappedNode &node, const mapper::RewriteRule &rule,
       const pe::PeSpec &spec, const pe::PeFunctionalModel &model,
       const std::vector<std::uint64_t> &visible, PeScratch &scratch)
{
    scratch.operands.clear();
    for (int src : node.inputs)
        scratch.operands.push_back(visible[src]);
    mapper::bindRule(spec, rule, scratch.operands, node.const_vals,
                     &scratch.cfg, &scratch.in);
    pe::PeOutputs out;
    if (!model.evaluate(scratch.cfg, scratch.in, &out))
        return 0;
    return rule.word_output ? out.word : out.bit;
}

} // namespace

CycleSimulator::CycleSimulator(
    const MappedGraph &mapped,
    const std::vector<mapper::RewriteRule> &rules,
    const pe::PeSpec &spec)
    : mapped_(mapped), rules_(rules), spec_(spec), model_(spec),
      topo_(mapped.topoOrder())
{
    for (std::size_t id = 0; id < mapped.nodes.size(); ++id) {
        const MappedKind k = mapped.nodes[id].kind;
        if (k == MappedKind::kInput || k == MappedKind::kInputBit)
            input_pads_.push_back(static_cast<int>(id));
        if (k == MappedKind::kOutput || k == MappedKind::kOutputBit)
            output_pads_.push_back(static_cast<int>(id));
    }
    auto by_app_node = [&](int a, int b) {
        return mapped.nodes[a].app_node < mapped.nodes[b].app_node;
    };
    std::sort(input_pads_.begin(), input_pads_.end(), by_app_node);
    std::sort(output_pads_.begin(), output_pads_.end(), by_app_node);
}

SimTrace
CycleSimulator::run(
    const std::vector<std::vector<std::uint64_t>> &input_streams,
    int cycles)
{
    const int pe_latency = std::max(spec_.pipeline_stages, 0);
    const std::size_t n = mapped_.nodes.size();

    // Per-node latency and delay queue: front() is the value computed
    // `latency` cycles ago (zero-filled at reset).
    std::vector<int> latency(n, 0);
    std::vector<std::deque<std::uint64_t>> pipe(n);
    for (std::size_t id = 0; id < n; ++id) {
        latency[id] =
            pipeline::nodeLatency(mapped_.nodes[id], pe_latency);
        pipe[id].assign(latency[id], 0);
    }

    SimTrace trace;
    trace.cycles = cycles;
    trace.outputs.assign(output_pads_.size(), {});
    const auto arrivals =
        pipeline::arrivalCycles(mapped_, pe_latency);
    for (int pad : output_pads_)
        trace.latency.push_back(arrivals[pad]);

    std::vector<std::uint64_t> visible(n, 0);
    PeScratch scratch;

    for (int t = 0; t < cycles; ++t) {
        // Phase 1: input pads take this cycle's samples; latency
        // nodes expose the head of their delay queue.
        for (std::size_t i = 0; i < input_pads_.size(); ++i) {
            const auto *stream =
                i < input_streams.size() ? &input_streams[i]
                                         : nullptr;
            visible[input_pads_[i]] =
                (stream && t < static_cast<int>(stream->size()))
                    ? (*stream)[t]
                    : 0;
        }
        for (std::size_t id = 0; id < n; ++id)
            if (latency[id] > 0)
                visible[id] = pipe[id].front();

        // Phase 2: settle the combinational nodes in topo order.
        for (int id : topo_) {
            if (latency[id] > 0)
                continue;
            const MappedNode &node = mapped_.nodes[id];
            switch (node.kind) {
              case MappedKind::kOutput:
              case MappedKind::kOutputBit:
                visible[id] = visible[node.inputs[0]];
                break;
              case MappedKind::kPe:
                visible[id] = evalPe(node, rules_[node.rule], spec_,
                                     model_, visible, scratch);
                break;
              default:
                break; // inputs already bound; no other latency-0 kind
            }
        }

        // Phase 3: latency nodes capture this cycle's inputs.
        for (std::size_t id = 0; id < n; ++id) {
            if (latency[id] == 0)
                continue;
            const MappedNode &node = mapped_.nodes[id];
            const std::uint64_t next =
                node.kind == MappedKind::kPe
                    ? evalPe(node, rules_[node.rule], spec_, model_,
                             visible, scratch)
                    : visible[node.inputs[0]];
            pipe[id].pop_front();
            pipe[id].push_back(next);
        }

        for (std::size_t o = 0; o < output_pads_.size(); ++o)
            trace.outputs[o].push_back(visible[output_pads_[o]]);
    }
    return trace;
}

} // namespace apex::cgra
