#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "apps/apps.hpp"
#include "core/explorer.hpp"
#include "ir/builder.hpp"
#include "ir/interpreter.hpp"
#include "ir/validate.hpp"
#include "mapper/rewrite.hpp"
#include "mapper/report.hpp"
#include "mapper/select.hpp"
#include "merging/merge.hpp"
#include "model/tech.hpp"
#include "oracles/oracles.hpp"
#include "pe/baseline.hpp"
#include "runtime/telemetry.hpp"

namespace apex::mapper {
namespace {

using ir::Graph;
using ir::GraphBuilder;
using ir::Op;
using ir::Value;

Graph
macPattern()
{
    GraphBuilder b;
    b.add(b.mul(b.input(), b.constant(0)), b.input());
    return b.take();
}

TEST(RewriteTest, SynthesizesSingleAddOnBaseline) {
    const pe::PeSpec spec = pe::baselinePe();
    RewriteRuleSynthesizer synth(spec);

    GraphBuilder b;
    b.add(b.input(), b.input());
    const auto rule = synth.synthesize(b.take());
    ASSERT_TRUE(rule.has_value());
    EXPECT_EQ(rule->size, 1);
    EXPECT_EQ(rule->placeholders.size(), 2u);
    EXPECT_TRUE(rule->const_bindings.empty());
    EXPECT_TRUE(rule->word_output);
}

TEST(RewriteTest, SynthesizesConstVariant) {
    const pe::PeSpec spec = pe::baselinePe();
    RewriteRuleSynthesizer synth(spec);

    GraphBuilder b;
    b.mul(b.input(), b.constant(0));
    const auto rule = synth.synthesize(b.take());
    ASSERT_TRUE(rule.has_value());
    EXPECT_EQ(rule->const_bindings.size(), 1u);
}

TEST(RewriteTest, RejectsUnsupportedPattern) {
    // PE with only an adder cannot execute a multiply.
    const pe::PeSpec spec =
        pe::baselineSubsetPe({Op::kAdd}, "pe_add_only");
    RewriteRuleSynthesizer synth(spec);
    GraphBuilder b;
    b.mul(b.input(), b.input());
    EXPECT_FALSE(synth.synthesize(b.take()).has_value());
}

TEST(RewriteTest, RejectsTooManyOpsOfOneClass) {
    // Baseline has one adder; a two-add chain needs two.
    const pe::PeSpec spec = pe::baselinePe();
    RewriteRuleSynthesizer synth(spec);
    GraphBuilder b;
    b.add(b.add(b.input(), b.input()), b.input());
    EXPECT_FALSE(synth.synthesize(b.take()).has_value());
}

TEST(RewriteTest, MergedPeExecutesComplexPattern) {
    const auto &tech = model::defaultTech();
    const pe::PeSpec base = pe::baselineSubsetPe(
        {Op::kAdd, Op::kMul}, "pe_seed");
    std::vector<int> seed_map;
    const auto mm = merging::mergeIntoDatapath(
        base.dp, {macPattern()}, tech, &seed_map);
    const pe::PeSpec spec = pe::makePeSpec(mm.merged, "pe_mac");

    RewriteRuleSynthesizer synth(spec);
    const auto rule = synth.synthesize(macPattern());
    ASSERT_TRUE(rule.has_value());
    EXPECT_EQ(rule->size, 2) << "mac covers two compute ops";
}

TEST(RewriteTest, LibraryCoversAllOpsLargestFirst) {
    const pe::PeSpec spec = pe::baselinePe();
    RewriteRuleSynthesizer synth(spec);
    const auto rules = synth.synthesizeLibrary({});
    ASSERT_FALSE(rules.empty());
    // Every op of the baseline gets at least one rule.
    std::set<Op> covered;
    for (const auto &r : rules) {
        for (ir::NodeId id = 0; id < r.pattern.size(); ++id)
            if (ir::opIsCompute(r.pattern.op(id)))
                covered.insert(r.pattern.op(id));
        EXPECT_TRUE(validateRule(spec, r));
    }
    for (Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kMin, Op::kMax,
                  Op::kShl, Op::kLshr, Op::kAshr, Op::kSlt, Op::kSel,
                  Op::kLut}) {
        EXPECT_TRUE(covered.count(op)) << ir::opName(op);
    }
    for (std::size_t i = 1; i < rules.size(); ++i)
        EXPECT_GE(rules[i - 1].size, rules[i].size);
}

TEST(RewriteTest, ValidationCatchesCorruptedRule) {
    const pe::PeSpec spec = pe::baselinePe();
    RewriteRuleSynthesizer synth(spec);
    GraphBuilder b;
    b.sub(b.input(), b.input());
    auto rule = synth.synthesize(b.take());
    ASSERT_TRUE(rule.has_value());
    // Corrupt: swap the two input port assignments (sub is not
    // commutative, so the rule must now fail validation).
    std::swap(rule->input_ports[0], rule->input_ports[1]);
    EXPECT_FALSE(validateRule(spec, *rule));
}

/** Every rule the synthesizer builds for @p spec before validation:
 * with no vectors to check, validateRule accepts every embedding. */
std::vector<RewriteRule>
candidateRules(const pe::PeSpec &spec,
               const std::vector<Graph> &patterns)
{
    SynthesisOptions unchecked;
    unchecked.random_checks = 0;
    unchecked.exhaustive_max_inputs = -1;
    return RewriteRuleSynthesizer(spec, unchecked)
        .synthesizeLibrary(patterns);
}

/** Vectors a passing rule is checked on under default options. */
long long
expectedChecks(const RewriteRule &rule)
{
    const SynthesisOptions opt;
    std::vector<ir::NodeId> vars = rule.placeholders;
    for (const auto &[node, reg] : rule.const_bindings)
        vars.push_back(node);
    long long exhaustive = 1;
    for (ir::NodeId v : vars)
        exhaustive *= ir::opResultType(rule.pattern.op(v)) ==
                              ir::ValueType::kBit
                          ? 2
                          : 1 << opt.exhaustive_width;
    const bool swept =
        static_cast<int>(vars.size()) <= opt.exhaustive_max_inputs;
    return (swept ? exhaustive : 0) + opt.random_checks;
}

/** Corrupted copies of @p rule, tagged by kind. */
std::vector<std::pair<std::string, RewriteRule>>
mutations(const pe::PeSpec &spec, const RewriteRule &rule)
{
    std::vector<std::pair<std::string, RewriteRule>> out;
    // Swap the ports of two same-typed placeholders.
    for (std::size_t a = 0; a < rule.placeholders.size(); ++a) {
        for (std::size_t b = a + 1; b < rule.placeholders.size(); ++b) {
            if (rule.pattern.op(rule.placeholders[a]) !=
                    rule.pattern.op(rule.placeholders[b]) ||
                rule.input_ports[a] == rule.input_ports[b]) {
                continue;
            }
            RewriteRule m = rule;
            std::swap(m.input_ports[a], m.input_ports[b]);
            out.emplace_back("swapped inputs", std::move(m));
            a = b = rule.placeholders.size(); // first pair only
        }
    }
    // Flip the select of the first mux on a configured block.
    for (std::size_t i = 0; i < spec.muxes.size(); ++i) {
        if (rule.config.block_op[spec.muxes[i].node] == Op::kNumOps)
            continue;
        RewriteRule m = rule;
        m.config.mux_sel[i] = (m.config.mux_sel[i] + 1) %
                              static_cast<int>(
                                  spec.muxes[i].sources.size());
        out.emplace_back("flipped mux", std::move(m));
        break;
    }
    // Give the sink's block another op (outside its set if need be).
    const int sink = rule.node_to_dp[rule.out_node];
    const Op op = rule.config.block_op[sink];
    Op wrong = op == Op::kAdd ? Op::kSub : Op::kAdd;
    for (Op o : spec.dp.nodes[sink].ops)
        if (o != op && ir::opArity(o) == ir::opArity(op))
            wrong = o;
    RewriteRule m = rule;
    m.config.block_op[sink] = wrong;
    out.emplace_back("wrong opcode", std::move(m));
    // Bind the first constant to another register of its type.
    if (!rule.const_bindings.empty()) {
        const int reg = rule.const_bindings[0].second;
        for (std::size_t r = 0; r < spec.const_regs.size(); ++r) {
            if (static_cast<int>(r) == reg ||
                spec.dp.nodes[spec.const_regs[r]].type !=
                    spec.dp.nodes[spec.const_regs[reg]].type) {
                continue;
            }
            RewriteRule c = rule;
            c.const_bindings[0].second = static_cast<int>(r);
            out.emplace_back("wrong const register", std::move(c));
            break;
        }
    }
    return out;
}

TEST(RewriteDifferentialTest, ValidationAgreesWithReference) {
    const core::Explorer ex;
    std::vector<core::PeVariant> variants = {ex.baselineVariant()};
    for (const apps::AppInfo &app : apps::allApps()) {
        if (app.name == "gaussian" || app.name == "camera" ||
            app.name == "harris" || app.name == "fast") {
            variants.push_back(ex.subsetVariant(app));
            variants.push_back(ex.specVariant(app).value());
        }
    }
    ASSERT_EQ(variants.size(), 9u);

    telemetry::Counter &checks =
        telemetry::counter("apex.rewrite.checks");
    std::map<std::string, int> mutated, caught;
    int candidates = 0;
    for (const core::PeVariant &v : variants) {
        for (const RewriteRule &rule :
             candidateRules(v.spec, v.patterns)) {
            ++candidates;
            const long long before = checks.value();
            const bool ok = validateRule(v.spec, rule);
            ASSERT_EQ(ok, validateRuleReference(v.spec, rule))
                << v.name << " rule of size " << rule.size;
            if (!ok)
                continue;
            EXPECT_EQ(checks.value() - before, expectedChecks(rule))
                << v.name << ": a passing rule checks every vector";
            for (const auto &[kind, m] : mutations(v.spec, rule)) {
                const bool m_ok = validateRule(v.spec, m);
                ASSERT_EQ(m_ok, validateRuleReference(v.spec, m))
                    << v.name << " " << kind;
                ++mutated[kind];
                caught[kind] += !m_ok;
            }
        }
    }
    EXPECT_GT(candidates, 300);
    for (const char *kind : {"swapped inputs", "flipped mux",
                             "wrong opcode", "wrong const register"}) {
        EXPECT_GT(mutated[kind], 0) << kind;
        EXPECT_GT(caught[kind], 0) << kind << " never rejected";
    }
}

/** Map with the baseline PE library and check functional equality
 * against the IR interpreter on random inputs. */
void
expectMappingCorrect(const Graph &app, const pe::PeSpec &spec,
                     const std::vector<Graph> &complex_patterns,
                     int min_pe_count = 1)
{
    RewriteRuleSynthesizer synth(spec);
    InstructionSelector selector(
        synth.synthesizeLibrary(complex_patterns));
    const SelectionResult sel = selector.map(app);
    ASSERT_TRUE(sel.success) << sel.status.toString();
    EXPECT_GE(sel.peCount(), min_pe_count);

    std::mt19937 rng(99);
    std::uniform_int_distribution<std::uint32_t> dist(0, 255);
    for (int trial = 0; trial < 5; ++trial) {
        std::vector<std::uint64_t> inputs;
        for (ir::NodeId id = 0; id < app.size(); ++id) {
            if (app.op(id) == Op::kInput)
                inputs.push_back(dist(rng));
            else if (app.op(id) == Op::kInputBit)
                inputs.push_back(dist(rng) & 1);
        }
        const ir::Interpreter interp;
        const auto want = interp.evalByOrder(app, inputs);
        const auto got = executeMapped(sel.mapped, selector.rules(),
                                       spec, inputs);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(got[i], want[i]) << "output " << i;
    }
}

TEST(SelectTest, MapsGaussianOnBaseline) {
    const auto app = apps::gaussianBlur(1);
    expectMappingCorrect(app.graph, pe::baselinePe(), {}, 10);
}

TEST(SelectTest, MapsCameraOnBaseline) {
    const auto app = apps::cameraPipeline(1);
    expectMappingCorrect(app.graph, pe::baselinePe(), {}, 30);
}

TEST(SelectTest, ComplexRuleReducesPeCount) {
    const auto &tech = model::defaultTech();
    const auto app = apps::gaussianBlur(1);

    // Baseline mapping: one PE per compute op (9 mul + 8 add + 1 shr
    // = 18, minus const-folded multiplies still 18 sites).
    const pe::PeSpec base = pe::baselinePe();
    RewriteRuleSynthesizer base_synth(base);
    InstructionSelector base_sel(base_synth.synthesizeLibrary({}));
    const auto base_result = base_sel.map(app.graph);
    ASSERT_TRUE(base_result.success) << base_result.status.toString();

    // Specialized: merge the MAC pattern into a restricted baseline.
    const pe::PeSpec seed = pe::baselineSubsetPe(
        pe::opsUsedBy(app.graph), "pe_gauss_seed");
    const auto mm = merging::mergeIntoDatapath(
        seed.dp, {macPattern()}, tech, nullptr);
    const pe::PeSpec spec = pe::makePeSpec(mm.merged, "pe_gauss");

    RewriteRuleSynthesizer synth(spec);
    InstructionSelector selector(
        synth.synthesizeLibrary({macPattern()}));
    const auto result = selector.map(app.graph);
    ASSERT_TRUE(result.success) << result.status.toString();
    EXPECT_LT(result.peCount(), base_result.peCount())
        << "MAC-specialized PE must reduce the PE count";
}

TEST(SelectTest, FailsOnUnsupportedOp) {
    const pe::PeSpec spec =
        pe::baselineSubsetPe({Op::kAdd}, "pe_add_only");
    RewriteRuleSynthesizer synth(spec);
    InstructionSelector selector(synth.synthesizeLibrary({}));
    GraphBuilder b;
    b.output(b.mul(b.input(), b.input()));
    const auto result = selector.map(b.take());
    EXPECT_FALSE(result.success);
    EXPECT_NE(result.status.toString().find("mul"), std::string::npos);
}

TEST(SelectTest, InternalFanoutBlocksComplexRule) {
    // app: m = mul(x, c); y = add(m, z); w = sub(m, z).
    // The mul's value is needed by both add and sub, so a mac rule
    // anchored at the add must NOT swallow the mul.
    const auto &tech = model::defaultTech();
    GraphBuilder b;
    Value x = b.input(), z = b.input();
    Value m = b.mul(x, b.constant(5));
    b.output(b.add(m, z));
    b.output(b.sub(m, z));
    const Graph app = b.take();

    const pe::PeSpec seed = pe::baselineSubsetPe(
        {Op::kAdd, Op::kSub, Op::kMul}, "pe_seed");
    const auto mm =
        merging::mergeIntoDatapath(seed.dp, {macPattern()}, tech);
    const pe::PeSpec spec = pe::makePeSpec(mm.merged, "pe_mac");
    RewriteRuleSynthesizer synth(spec);
    InstructionSelector selector(
        synth.synthesizeLibrary({macPattern()}));
    const auto result = selector.map(app);
    ASSERT_TRUE(result.success) << result.status.toString();
    // mul, add and sub each need their own PE: 3 PEs.
    EXPECT_EQ(result.peCount(), 3);

    const ir::Interpreter interp;
    const auto want = interp.evalByOrder(app, {7, 9});
    const auto got =
        executeMapped(result.mapped, selector.rules(), spec, {7, 9});
    EXPECT_EQ(got, want);
}

TEST(SelectTest, MappedGraphCountsResources) {
    const auto app = apps::gaussianBlur(1);
    const pe::PeSpec spec = pe::baselinePe();
    RewriteRuleSynthesizer synth(spec);
    InstructionSelector selector(synth.synthesizeLibrary({}));
    const auto result = selector.map(app.graph);
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.mapped.count(MappedKind::kMem), 2);
    EXPECT_EQ(result.mapped.count(MappedKind::kInput), 1);
    EXPECT_EQ(result.mapped.count(MappedKind::kOutput), 1);
    EXPECT_EQ(result.mapped.count(MappedKind::kReg), 6);
}

// Property sweep: mapping correctness across apps on the baseline PE.
class MappingEquivalenceTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(MappingEquivalenceTest, MappedEqualsInterpreter) {
    const std::string name = GetParam();
    apps::AppInfo app =
        name == "gaussian"    ? apps::gaussianBlur(1)
        : name == "unsharp"   ? apps::unsharp(1)
        : name == "laplacian" ? apps::laplacianPyramid(1)
        : name == "mobilenet" ? apps::mobilenetLayer(2)
        : name == "stereo"    ? apps::stereo(2)
                              : apps::harrisCorner(1);
    expectMappingCorrect(app.graph, pe::baselinePe(), {});
}

INSTANTIATE_TEST_SUITE_P(Apps, MappingEquivalenceTest,
                         ::testing::Values("gaussian", "unsharp",
                                           "laplacian", "mobilenet",
                                           "stereo", "harris"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(MinCostTest, DpBeatsGreedyOnAdversarialChain) {
    // Chain d = lshr(c, x3); c = add(b, x2); b = mul(x0, x1).
    // Library: pair(lshr(add)), triple(lshr(add(mul))), singles.
    // Greedy anchored at d prefers... both tilings of size >= 2 are
    // possible; construct so greedy takes the pair and strands the
    // mul as a single (3 PEs), while DP finds triple + nothing
    // (|cover| = 1 PE for the whole chain).
    const auto &tech = model::defaultTech();
    GraphBuilder bt; // triple pattern
    bt.lshr(bt.add(bt.mul(bt.input(), bt.input()), bt.input()),
            bt.input());
    const Graph triple = bt.take();
    GraphBuilder bp; // pair pattern
    bp.lshr(bp.add(bp.input(), bp.input()), bp.input());
    const Graph pair = bp.take();

    // PE hosting both patterns.
    const pe::PeSpec seed = pe::baselineSubsetPe(
        {Op::kMul, Op::kAdd, Op::kLshr}, "pe_seed");
    const auto mm = merging::mergeIntoDatapath(
        seed.dp, {triple, pair}, tech, nullptr);
    const pe::PeSpec spec = pe::makePeSpec(mm.merged, "pe_chain");

    RewriteRuleSynthesizer synth(spec);
    auto rules = synth.synthesizeLibrary({pair, triple});
    // Force the pair ahead of the triple to make greedy provably
    // suboptimal (greedy takes rules in order within equal size; put
    // pair first among multi-op rules by resorting).
    std::stable_sort(rules.begin(), rules.end(),
                     [](const RewriteRule &a, const RewriteRule &b) {
                         if ((a.size >= 2) != (b.size >= 2))
                             return a.size >= 2;
                         if (a.size >= 2 && b.size >= 2)
                             return a.size < b.size; // pair first
                         return a.size > b.size;
                     });

    GraphBuilder ba; // the application chain
    auto m = ba.mul(ba.input(), ba.input());
    auto c = ba.add(m, ba.input());
    ba.output(ba.lshr(c, ba.input()));
    const Graph app = ba.take();

    InstructionSelector greedy(rules,
                               SelectionPolicy::kGreedyLargestFirst);
    InstructionSelector dp(rules, SelectionPolicy::kMinCost);
    const auto rg = greedy.map(app);
    const auto rd = dp.map(app);
    ASSERT_TRUE(rg.success) << rg.status.toString();
    ASSERT_TRUE(rd.success) << rd.status.toString();
    EXPECT_EQ(rg.peCount(), 2) << "greedy: pair + stranded mul";
    EXPECT_EQ(rd.peCount(), 1) << "DP finds the whole-chain rule";

    // Both are functionally correct.
    const ir::Interpreter interp;
    const std::vector<std::uint64_t> in = {5, 6, 7, 2};
    const auto want = interp.evalByOrder(app, in);
    EXPECT_EQ(executeMapped(rg.mapped, rules, spec, in), want);
    EXPECT_EQ(executeMapped(rd.mapped, rules, spec, in), want);
}

TEST(MinCostTest, NeverWorseThanGreedyOnApps) {
    const pe::PeSpec spec = pe::baselinePe();
    RewriteRuleSynthesizer synth(spec);
    const auto rules = synth.synthesizeLibrary({});
    for (const auto &app :
         {apps::gaussianBlur(1), apps::unsharp(1),
          apps::laplacianPyramid(1)}) {
        InstructionSelector greedy(
            rules, SelectionPolicy::kGreedyLargestFirst);
        InstructionSelector dp(rules, SelectionPolicy::kMinCost);
        const auto rg = greedy.map(app.graph);
        const auto rd = dp.map(app.graph);
        ASSERT_TRUE(rg.success) << app.name << ": " << rg.status.toString();
        ASSERT_TRUE(rd.success) << app.name << ": " << rd.status.toString();
        EXPECT_LE(rd.peCount(), rg.peCount()) << app.name;

        // Functional equivalence of the DP mapping.
        const ir::Interpreter interp;
        std::vector<std::uint64_t> in;
        for (ir::NodeId id = 0; id < app.graph.size(); ++id)
            if (app.graph.op(id) == Op::kInput)
                in.push_back(37 + 11 * in.size());
        EXPECT_EQ(executeMapped(rd.mapped, rules, spec, in),
                  interp.evalByOrder(app.graph, in))
            << app.name;
    }
}

TEST(MinCostTest, FailsGracefullyOnUnsupportedOp) {
    const pe::PeSpec spec =
        pe::baselineSubsetPe({Op::kAdd}, "pe_add_only");
    RewriteRuleSynthesizer synth(spec);
    InstructionSelector dp(synth.synthesizeLibrary({}),
                           SelectionPolicy::kMinCost);
    GraphBuilder b;
    b.output(b.mul(b.input(), b.input()));
    const auto r = dp.map(b.take());
    EXPECT_FALSE(r.success);
    EXPECT_NE(r.status.toString().find("mul"), std::string::npos);
}

TEST(ReportTest, StatsMatchMapping) {
    const auto app = apps::gaussianBlur(1);
    const pe::PeSpec spec = pe::baselinePe();
    RewriteRuleSynthesizer synth(spec);
    InstructionSelector selector(synth.synthesizeLibrary({}));
    const auto result = selector.map(app.graph);
    ASSERT_TRUE(result.success);

    const auto stats = mappingStats(result, selector.rules());
    EXPECT_EQ(stats.pe_count, result.peCount());
    // All 18 compute ops of a 1-lane gaussian are covered.
    EXPECT_EQ(stats.covered_ops,
              static_cast<int>(app.graph.computeNodes().size()));
    EXPECT_GE(stats.ops_per_pe, 1.0);
    // All multiplies bind their weight constants.
    EXPECT_GE(stats.consts_absorbed, 9);
    EXPECT_GE(stats.distinct_rules, 2);

    const std::string report =
        mappingReport(result, selector.rules());
    EXPECT_NE(report.find("mapping report"), std::string::npos);
    EXPECT_NE(report.find("ops covered"), std::string::npos);
    EXPECT_NE(report.find("per-rule uses"), std::string::npos);
    EXPECT_NE(report.find("mul"), std::string::npos);
}

TEST(ReportTest, MergedRulesRaiseOpsPerPe) {
    const auto &tech = model::defaultTech();
    const auto app = apps::gaussianBlur(1);

    const pe::PeSpec base = pe::baselinePe();
    RewriteRuleSynthesizer base_synth(base);
    InstructionSelector base_sel(base_synth.synthesizeLibrary({}));
    const auto r0 = base_sel.map(app.graph);
    ASSERT_TRUE(r0.success);
    const auto s0 = mappingStats(r0, base_sel.rules());

    const pe::PeSpec seed = pe::baselineSubsetPe(
        pe::opsUsedBy(app.graph), "seed");
    const auto mm = merging::mergeIntoDatapath(
        seed.dp, {macPattern()}, tech, nullptr);
    const pe::PeSpec spec = pe::makePeSpec(mm.merged, "pe_mac");
    RewriteRuleSynthesizer synth(spec);
    InstructionSelector selector(
        synth.synthesizeLibrary({macPattern()}));
    const auto r1 = selector.map(app.graph);
    ASSERT_TRUE(r1.success);
    const auto s1 = mappingStats(r1, selector.rules());

    EXPECT_GT(s1.ops_per_pe, s0.ops_per_pe);
    EXPECT_GT(s1.multi_op_pes, 0);
    EXPECT_GE(s1.max_rule_size, 2);
}

/** Random layered DAG over the word-level op set. */
Graph
randomDag(std::mt19937 &rng, int depth, int width)
{
    GraphBuilder b;
    std::uniform_int_distribution<std::uint32_t> val(0, 0xFFFF);
    const Op binary_ops[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kMin,
                             Op::kMax, Op::kShl, Op::kLshr,
                             Op::kAshr, Op::kAnd, Op::kOr, Op::kXor};
    const Op unary_ops[] = {Op::kAbs, Op::kNot};

    std::vector<Value> pool;
    for (int i = 0; i < width; ++i)
        pool.push_back(b.input());
    for (int i = 0; i < 2; ++i)
        pool.push_back(b.constant(val(rng)));

    auto pick = [&]() { return pool[rng() % pool.size()]; };
    for (int layer = 0; layer < depth; ++layer) {
        const int nodes = 1 + static_cast<int>(rng() % width);
        for (int k = 0; k < nodes; ++k) {
            Value v;
            switch (rng() % 8) {
              case 0:
                v = (rng() % 2) ? b.abs(pick())
                                : b.bitwiseNot(pick());
                (void)unary_ops; // documented alternatives
                break;
              case 1: {
                // Compare feeding a select keeps bit types legal.
                Value c = b.slt(pick(), pick());
                v = b.select(c, pick(), pick());
                break;
              }
              default: {
                const Op op =
                    binary_ops[rng() % std::size(binary_ops)];
                Value a = pick(), c = pick();
                switch (op) {
                  case Op::kAdd: v = b.add(a, c); break;
                  case Op::kSub: v = b.sub(a, c); break;
                  case Op::kMul: v = b.mul(a, c); break;
                  case Op::kMin: v = b.min(a, c); break;
                  case Op::kMax: v = b.max(a, c); break;
                  case Op::kShl: v = b.shl(a, c); break;
                  case Op::kLshr: v = b.lshr(a, c); break;
                  case Op::kAshr: v = b.ashr(a, c); break;
                  case Op::kAnd: v = b.bitwiseAnd(a, c); break;
                  case Op::kOr: v = b.bitwiseOr(a, c); break;
                  default: v = b.bitwiseXor(a, c); break;
                }
                break;
              }
            }
            pool.push_back(v);
        }
    }
    b.output(pool.back());
    b.output(pool[pool.size() / 2].valid() ? pool[pool.size() / 2]
                                           : pool.back());
    return b.take();
}

TEST(MappingFuzzTest, RandomDagsMapAndExecuteCorrectly) {
    const pe::PeSpec spec = pe::baselinePe();
    RewriteRuleSynthesizer synth(spec);
    InstructionSelector selector(synth.synthesizeLibrary({}));
    const ir::Interpreter interp;

    std::mt19937 rng(0xF00D);
    std::uniform_int_distribution<std::uint32_t> val(0, 0xFFFF);
    int mapped_count = 0;
    for (int trial = 0; trial < 25; ++trial) {
        const Graph g = randomDag(rng, 3 + trial % 4, 3);
        const Status verr = ir::validate(g);
        ASSERT_TRUE(verr.ok()) << verr.toString();
        ASSERT_EQ(g.topoOrder().size(), g.size());

        const auto sel = selector.map(g);
        // Outputs fed directly by constants are unmappable by
        // design (constants live in PE const regs); skip those rare
        // DAGs, everything else must map.
        if (!sel.success)
            continue;
        ++mapped_count;

        std::vector<std::uint64_t> inputs;
        for (ir::NodeId id = 0; id < g.size(); ++id)
            if (g.op(id) == Op::kInput)
                inputs.push_back(val(rng));
        const auto want = interp.evalByOrder(g, inputs);
        const auto got = executeMapped(sel.mapped, selector.rules(),
                                       spec, inputs);
        ASSERT_EQ(got, want) << "fuzz trial " << trial;
    }
    EXPECT_GE(mapped_count, 20) << "too many unmappable fuzz DAGs";
}

} // namespace
} // namespace apex::mapper
