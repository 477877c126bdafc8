#include "mapper/select.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "core/fault.hpp"
#include "pe/functional.hpp"
#include "runtime/telemetry.hpp"

/*
 * Determinism contract (parallel DSE runtime): this module is called
 * from concurrently evaluated sweep cells, and its output feeds the
 * content-addressed evaluation cache, so for identical inputs it must
 * produce identical results on every lane and every run.  Concretely:
 * only ordered containers (std::map / std::sort with total orders) —
 * never unordered_* whose iteration order can vary —, no reads of
 * global mutable state, and tie-breaks resolved by explicit keys
 * (node id, rule index), never by pointer values or hashes.
 */
namespace apex::mapper {

using ir::Graph;
using ir::NodeId;
using ir::Op;

namespace {

bool
isPlaceholderNode(const Graph &g, NodeId id)
{
    const Op op = g.op(id);
    return op == Op::kInput || op == Op::kInputBit;
}

bool
isConstNode(const Graph &g, NodeId id)
{
    const Op op = g.op(id);
    return op == Op::kConst || op == Op::kConstBit;
}

/** One successful rule application. */
struct Match {
    int rule = -1;
    std::vector<NodeId> pat2app; ///< pattern node -> app node.
};

/** Anchored matcher: embed rule.pattern with out_node fixed. */
struct AnchoredMatcher {
    const Graph &pattern;
    const Graph &app;
    const std::vector<std::vector<ir::Edge>> &app_fanout;
    const std::vector<bool> &covered;
    std::vector<NodeId> pat2app;
    std::vector<bool> app_used; // app compute nodes used by the match

    AnchoredMatcher(const Graph &p, const Graph &a,
                    const std::vector<std::vector<ir::Edge>> &fan,
                    const std::vector<bool> &cov)
        : pattern(p), app(a), app_fanout(fan), covered(cov),
          pat2app(p.size(), ir::kNoNode), app_used(a.size(), false) {}

    /** Recursive match downward from (pattern node, app node). */
    bool
    match(NodeId pid, NodeId aid)
    {
        if (pat2app[pid] != ir::kNoNode)
            return pat2app[pid] == aid;

        if (isPlaceholderNode(pattern, pid)) {
            // Placeholders bind to any externally-produced value of
            // the right type, but never to constants (those must be
            // absorbed by a const-binding rule variant).
            if (isConstNode(app, aid))
                return false;
            const ir::ValueType want =
                pattern.op(pid) == Op::kInputBit ? ir::ValueType::kBit
                                                 : ir::ValueType::kWord;
            if (ir::opResultType(app.op(aid)) != want)
                return false;
            pat2app[pid] = aid;
            return true;
        }
        if (isConstNode(pattern, pid)) {
            if (app.op(aid) != pattern.op(pid))
                return false;
            pat2app[pid] = aid;
            return true;
        }

        // Compute node: ops equal, app node free and uncovered.
        const ir::Node &pn = pattern.node(pid);
        const ir::Node &an = app.node(aid);
        if (pn.op != an.op || covered[aid] || app_used[aid])
            return false;
        if (pn.op == Op::kLut && pn.param != an.param)
            return false;
        if (pn.operands.size() != an.operands.size())
            return false;

        pat2app[pid] = aid;
        app_used[aid] = true;
        for (std::size_t p = 0; p < pn.operands.size(); ++p) {
            if (!match(pn.operands[p], an.operands[p])) {
                // Unwind this subtree.
                undo(pid);
                return false;
            }
        }
        return true;
    }

    /** Undo the binding of @p pid and everything bound after it is
     * handled by restarting the whole match — matches are cheap, so
     * the matcher simply resets on failure (see tryMatch). */
    void
    undo(NodeId pid)
    {
        app_used[pat2app[pid]] = false;
        pat2app[pid] = ir::kNoNode;
    }

    /** Validate internal-fanout and shared-placeholder conditions. */
    bool
    finalize(NodeId sink_pid)
    {
        // Internal compute nodes must have all consumers inside.
        std::map<NodeId, NodeId> app2pat;
        for (NodeId pid = 0; pid < pattern.size(); ++pid) {
            if (pat2app[pid] == ir::kNoNode)
                continue;
            if (ir::opIsCompute(pattern.op(pid)))
                app2pat[pat2app[pid]] = pid;
        }
        for (NodeId pid = 0; pid < pattern.size(); ++pid) {
            if (pid == sink_pid || pat2app[pid] == ir::kNoNode)
                continue;
            if (!ir::opIsCompute(pattern.op(pid)))
                continue;
            for (const ir::Edge &e : app_fanout[pat2app[pid]]) {
                auto it = app2pat.find(e.dst);
                if (it == app2pat.end())
                    return false; // internal value escapes
                // The consuming pattern node must use it on the same
                // port.
                const ir::Node &cons = pattern.node(it->second);
                if (e.port >=
                        static_cast<int>(cons.operands.size()) ||
                    cons.operands[e.port] != pid) {
                    return false;
                }
            }
        }
        return true;
    }
};

} // namespace

SelectionResult
InstructionSelector::map(const Graph &app) const
{
    APEX_SPAN("map.select");
    telemetry::StageTimer timer(
        telemetry::histogram("apex.map.ms"));
    SelectionResult result;
    if (Status fault = checkFault(FaultStage::kMap); !fault.ok()) {
        result.status = std::move(fault);
        return result;
    }
    result.rule_uses.assign(rules_.size(), 0);

    const auto app_fanout = app.fanouts();
    std::vector<bool> covered(app.size(), false);
    std::vector<int> producer_match(app.size(), -1);
    std::vector<Match> matches;

    auto no_rule_error = [&](NodeId aid) {
        std::ostringstream os;
        os << "no rewrite rule covers node " << aid << " ("
           << ir::opName(app.op(aid)) << ")";
        result.status = Status(ErrorCode::kMappingFailed, os.str());
    };

    if (policy_ == SelectionPolicy::kGreedyLargestFirst) {
        // Reverse topological order: sinks first, so the largest
        // rules tile from the outputs down (the paper's policy).
        std::vector<NodeId> order = app.topoOrder();
        std::reverse(order.begin(), order.end());

        for (NodeId aid : order) {
            if (!ir::opIsCompute(app.op(aid)) || covered[aid])
                continue;
            bool matched = false;
            for (std::size_t r = 0; r < rules_.size() && !matched;
                 ++r) {
                const RewriteRule &rule = rules_[r];
                AnchoredMatcher matcher(rule.pattern, app,
                                        app_fanout, covered);
                if (!matcher.match(rule.out_node, aid))
                    continue;
                if (!matcher.finalize(rule.out_node))
                    continue;
                Match m;
                m.rule = static_cast<int>(r);
                m.pat2app = matcher.pat2app;
                for (NodeId pid = 0; pid < rule.pattern.size();
                     ++pid) {
                    if (m.pat2app[pid] != ir::kNoNode &&
                        ir::opIsCompute(rule.pattern.op(pid))) {
                        covered[m.pat2app[pid]] = true;
                    }
                }
                producer_match[aid] =
                    static_cast<int>(matches.size());
                matches.push_back(std::move(m));
                ++result.rule_uses[r];
                matched = true;
            }
            if (!matched) {
                no_rule_error(aid);
                return result;
            }
        }
    } else {
        // Min-cost DP tiling.  Phase A: per compute node, the best
        // rule anchored there and its accumulated cost.
        const std::vector<bool> nothing_covered(app.size(), false);
        std::vector<double> cost(app.size(), 0.0);
        std::vector<Match> best_match(app.size());
        for (NodeId aid : app.topoOrder()) {
            if (!ir::opIsCompute(app.op(aid)))
                continue;
            double best = 1e18;
            for (std::size_t r = 0; r < rules_.size(); ++r) {
                const RewriteRule &rule = rules_[r];
                AnchoredMatcher matcher(rule.pattern, app,
                                        app_fanout,
                                        nothing_covered);
                if (!matcher.match(rule.out_node, aid) ||
                    !matcher.finalize(rule.out_node)) {
                    continue;
                }
                double c = 1.0; // one PE instance
                for (NodeId ph : rule.placeholders) {
                    const NodeId src = matcher.pat2app[ph];
                    if (ir::opIsCompute(app.op(src)))
                        c += cost[src];
                }
                if (c < best) {
                    best = c;
                    best_match[aid].rule = static_cast<int>(r);
                    best_match[aid].pat2app = matcher.pat2app;
                }
            }
            if (best >= 1e18) {
                no_rule_error(aid);
                return result;
            }
            cost[aid] = best;
        }

        // Phase B: reconstruct from the values that must exist —
        // compute nodes consumed by structural nodes and compute
        // nodes without consumers; placeholder-bound producers of
        // applied matches join the worklist.
        std::vector<bool> required(app.size(), false);
        std::vector<NodeId> worklist;
        auto require = [&](NodeId aid) {
            if (!required[aid]) {
                required[aid] = true;
                worklist.push_back(aid);
            }
        };
        for (NodeId aid = 0; aid < app.size(); ++aid) {
            if (!ir::opIsCompute(app.op(aid)))
                continue;
            if (app_fanout[aid].empty())
                require(aid);
            for (const ir::Edge &e : app_fanout[aid])
                if (!ir::opIsCompute(app.op(e.dst)))
                    require(aid);
        }
        while (!worklist.empty()) {
            const NodeId aid = worklist.back();
            worklist.pop_back();
            if (producer_match[aid] >= 0)
                continue;
            const Match &m = best_match[aid];
            const RewriteRule &rule = rules_[m.rule];
            producer_match[aid] = static_cast<int>(matches.size());
            matches.push_back(m);
            ++result.rule_uses[m.rule];
            for (NodeId pid = 0; pid < rule.pattern.size(); ++pid) {
                if (m.pat2app[pid] != ir::kNoNode &&
                    ir::opIsCompute(rule.pattern.op(pid))) {
                    covered[m.pat2app[pid]] = true;
                }
            }
            for (NodeId ph : rule.placeholders) {
                const NodeId src = m.pat2app[ph];
                if (ir::opIsCompute(app.op(src)))
                    require(src);
            }
        }
    }

    // Build the mapped graph in app topological order so producers
    // exist before consumers.
    std::vector<int> app2mapped(app.size(), -1);
    auto producer_of = [&](NodeId aid) {
        return app2mapped[aid];
    };

    for (NodeId aid : app.topoOrder()) {
        const ir::Node &an = app.node(aid);
        MappedNode mn;
        mn.name = an.name;
        mn.app_node = aid;
        switch (an.op) {
          case Op::kInput:
            mn.kind = MappedKind::kInput;
            break;
          case Op::kInputBit:
            mn.kind = MappedKind::kInputBit;
            break;
          case Op::kOutput:
          case Op::kOutputBit:
            mn.kind = an.op == Op::kOutput ? MappedKind::kOutput
                                           : MappedKind::kOutputBit;
            mn.inputs = {producer_of(an.operands[0])};
            break;
          case Op::kMem:
            mn.kind = MappedKind::kMem;
            mn.inputs = {producer_of(an.operands[0])};
            break;
          case Op::kReg:
            mn.kind = MappedKind::kReg;
            mn.inputs = {producer_of(an.operands[0])};
            break;
          case Op::kRegFile:
            mn.kind = MappedKind::kRegFile;
            mn.depth = static_cast<int>(an.param);
            mn.inputs = {producer_of(an.operands[0])};
            break;
          case Op::kConst:
          case Op::kConstBit:
            continue; // absorbed into PE constant registers
          default: {
            if (producer_match[aid] < 0)
                continue; // internal node of some PE
            const Match &m = matches[producer_match[aid]];
            const RewriteRule &rule = rules_[m.rule];
            mn.kind = MappedKind::kPe;
            mn.rule = m.rule;
            for (NodeId ph : rule.placeholders) {
                const int src = producer_of(m.pat2app[ph]);
                if (src < 0) {
                    result.status = Status(
                        ErrorCode::kMappingFailed,
                        "placeholder bound to an unavailable value");
                    return result;
                }
                mn.inputs.push_back(src);
            }
            for (const auto &[cnode, reg] : rule.const_bindings) {
                mn.const_vals.push_back(
                    app.node(m.pat2app[cnode]).param);
            }
            break;
          }
        }
        for (int src : mn.inputs) {
            if (src < 0) {
                result.status = Status(ErrorCode::kMappingFailed,
                                       "dangling mapped edge");
                return result;
            }
        }
        app2mapped[aid] =
            static_cast<int>(result.mapped.nodes.size());
        result.mapped.nodes.push_back(std::move(mn));
    }

    result.success = true;
    return result;
}

std::vector<std::uint64_t>
executeMapped(const MappedGraph &mapped,
              const std::vector<RewriteRule> &rules,
              const pe::PeSpec &spec,
              const std::vector<std::uint64_t> &inputs_by_order)
{
    return executeMappedHetero(mapped, rules, {&spec},
                               inputs_by_order);
}

std::vector<std::uint64_t>
executeMappedHetero(const MappedGraph &mapped,
                    const std::vector<RewriteRule> &rules,
                    const std::vector<const pe::PeSpec *> &specs,
                    const std::vector<std::uint64_t> &inputs_by_order)
{
    std::vector<pe::PeFunctionalModel> models;
    models.reserve(specs.size());
    for (const pe::PeSpec *spec : specs)
        models.emplace_back(*spec);
    std::vector<std::uint64_t> value(mapped.nodes.size(), 0);
    std::vector<std::uint64_t> operands;
    pe::PeConfig cfg;
    pe::PeInputs in;

    // Bind input pads in *application* input order (app_node id
    // order), matching ir::Interpreter::evalByOrder.
    std::vector<int> input_pads;
    for (std::size_t id = 0; id < mapped.nodes.size(); ++id) {
        const MappedKind k = mapped.nodes[id].kind;
        if (k == MappedKind::kInput || k == MappedKind::kInputBit)
            input_pads.push_back(static_cast<int>(id));
    }
    std::sort(input_pads.begin(), input_pads.end(), [&](int a, int b) {
        return mapped.nodes[a].app_node < mapped.nodes[b].app_node;
    });
    for (std::size_t i = 0; i < input_pads.size(); ++i) {
        value[input_pads[i]] =
            i < inputs_by_order.size() ? inputs_by_order[i] : 0;
    }

    for (int id : mapped.topoOrder()) {
        const MappedNode &mn = mapped.nodes[id];
        switch (mn.kind) {
          case MappedKind::kInput:
          case MappedKind::kInputBit:
            break;
          case MappedKind::kOutput:
          case MappedKind::kOutputBit:
          case MappedKind::kMem:
          case MappedKind::kReg:
          case MappedKind::kRegFile:
            value[id] = value[mn.inputs[0]];
            break;
          case MappedKind::kPe: {
            const RewriteRule &rule = rules[mn.rule];
            operands.clear();
            for (int src : mn.inputs)
                operands.push_back(value[src]);
            bindRule(*specs[rule.pe_type], rule, operands,
                     mn.const_vals, &cfg, &in);
            pe::PeOutputs out;
            const bool ok =
                models[rule.pe_type].evaluate(cfg, in, &out);
            value[id] = ok ? (rule.word_output ? out.word : out.bit)
                           : 0;
            break;
          }
        }
    }

    // Report outputs in application output order.
    std::vector<int> output_pads;
    for (std::size_t id = 0; id < mapped.nodes.size(); ++id) {
        const MappedKind k = mapped.nodes[id].kind;
        if (k == MappedKind::kOutput || k == MappedKind::kOutputBit)
            output_pads.push_back(static_cast<int>(id));
    }
    std::sort(output_pads.begin(), output_pads.end(),
              [&](int a, int b) {
                  return mapped.nodes[a].app_node <
                         mapped.nodes[b].app_node;
              });
    std::vector<std::uint64_t> outputs;
    for (int id : output_pads)
        outputs.push_back(value[id]);
    return outputs;
}

} // namespace apex::mapper
