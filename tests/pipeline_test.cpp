#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "ir/builder.hpp"
#include "mapper/rewrite.hpp"
#include "mapper/select.hpp"
#include "merging/merge.hpp"
#include "model/tech.hpp"
#include "pe/baseline.hpp"
#include "pipeline/app_pipeline.hpp"
#include "pipeline/pe_pipeline.hpp"
#include "pipeline/timing.hpp"

namespace apex::pipeline {
namespace {

using ir::GraphBuilder;
using ir::Op;
using mapper::MappedGraph;
using mapper::MappedKind;
using mapper::MappedNode;

pe::PeSpec
deepPeSpec()
{
    // Four multiplies chained through adds: long critical path.
    GraphBuilder b;
    auto m1 = b.mul(b.input(), b.input());
    auto m2 = b.mul(m1, b.input());
    auto m3 = b.mul(m2, b.input());
    b.add(m3, b.input());
    return pe::makePeSpec(
        merging::datapathFromPattern(b.take()), "pe_deep");
}

TEST(TimingTest, CriticalPathAccumulatesBlockDelays) {
    const auto &tech = model::defaultTech();
    const pe::PeSpec spec = deepPeSpec();
    const auto report = analyzeTiming(spec, tech);
    const double mul_d =
        model::blockCost(tech, model::HwBlockClass::kMul).delay;
    const double add_d =
        model::blockCost(tech, model::HwBlockClass::kAddSub).delay;
    EXPECT_NEAR(report.critical_path,
                3 * mul_d + add_d + tech.reg_setup_delay, 1e-9);
}

TEST(TimingTest, BaselineMeetsRelaxedPeriodUnpipelined) {
    const auto &tech = model::defaultTech();
    const auto report = analyzeTiming(pe::baselinePe(), tech);
    // One mul + muxes: close to but above 1 ns.
    EXPECT_GT(report.critical_path, 0.9);
    EXPECT_LT(report.critical_path, 1.6);
}

TEST(TimingTest, StagesReducePeriodMonotonically) {
    const auto &tech = model::defaultTech();
    const pe::PeSpec spec = deepPeSpec();
    double prev = 1e9;
    for (int stages = 1; stages <= 4; ++stages) {
        const double p = stagedCriticalPath(spec, tech, stages);
        EXPECT_LE(p, prev + 1e-9) << stages << " stages";
        prev = p;
    }
    // 4 stages on a 4-block chain: one mul per stage.
    const double mul_d =
        model::blockCost(tech, model::HwBlockClass::kMul).delay;
    EXPECT_LE(stagedCriticalPath(spec, tech, 4),
              mul_d + tech.reg_setup_delay + 0.05);
}

TEST(TimingTest, StageAssignmentRespectsDependencies) {
    const auto &tech = model::defaultTech();
    const pe::PeSpec spec = deepPeSpec();
    std::vector<int> stage;
    assignStages(spec, tech, 3, &stage);
    for (const merging::DpEdge &e : spec.dp.edges)
        EXPECT_LE(stage[e.src], stage[e.dst])
            << "stage order must follow dataflow";
}

TEST(PePipelineTest, DeepPeGetsPipelined) {
    const auto &tech = model::defaultTech();
    pe::PeSpec spec = deepPeSpec();
    const auto result = pipelinePe(spec, tech);
    EXPECT_GT(result.stages, 1);
    EXPECT_LT(result.period, result.unpipelined);
    EXPECT_EQ(spec.pipeline_stages, result.stages);
    EXPECT_LE(result.period, tech.target_period + 0.3);
}

TEST(PePipelineTest, ShallowPeStaysCombinational) {
    const auto &tech = model::defaultTech();
    GraphBuilder b;
    b.add(b.input(), b.input());
    pe::PeSpec spec = pe::makePeSpec(
        merging::datapathFromPattern(b.take()), "pe_add");
    const auto result = pipelinePe(spec, tech);
    EXPECT_EQ(result.stages, 1);
    EXPECT_EQ(spec.pipeline_stages, 0);
}

MappedGraph
unbalancedDiamond()
{
    // in -> pe_a -> pe_b -> join; in -> join (short path).
    MappedGraph g;
    MappedNode in;
    in.kind = MappedKind::kInput;
    g.nodes.push_back(in);
    MappedNode a;
    a.kind = MappedKind::kPe;
    a.inputs = {0};
    g.nodes.push_back(a);
    MappedNode b;
    b.kind = MappedKind::kPe;
    b.inputs = {1};
    g.nodes.push_back(b);
    MappedNode join;
    join.kind = MappedKind::kPe;
    join.inputs = {2, 0};
    g.nodes.push_back(join);
    MappedNode out;
    out.kind = MappedKind::kOutput;
    out.inputs = {3};
    g.nodes.push_back(out);
    return g;
}

TEST(BranchDelayTest, BalancesDiamond) {
    MappedGraph g = unbalancedDiamond();
    const int pe_latency = 2;
    EXPECT_FALSE(delaysBalanced(g, pe_latency));
    const auto result = balanceBranchDelays(&g, pe_latency);
    EXPECT_EQ(result.registers_added, 4)
        << "short path lags by 2 PEs x 2 cycles";
    EXPECT_TRUE(delaysBalanced(g, pe_latency));
    EXPECT_EQ(result.max_latency, 6);
}

TEST(BranchDelayTest, NoopWhenAlreadyBalanced) {
    MappedGraph g = unbalancedDiamond();
    balanceBranchDelays(&g, 1);
    MappedGraph g2 = g;
    const auto again = balanceBranchDelays(&g2, 1);
    EXPECT_EQ(again.registers_added, 0);
}

TEST(BranchDelayTest, CombinationalPesNeedNoBalancing) {
    MappedGraph g = unbalancedDiamond();
    const auto result = balanceBranchDelays(&g, 0);
    EXPECT_EQ(result.registers_added, 0);
    EXPECT_TRUE(delaysBalanced(g, 0));
}

TEST(RegFileTest, LongChainBecomesFifo) {
    MappedGraph g = unbalancedDiamond();
    balanceBranchDelays(&g, 3); // 6-cycle lag -> chain of 6 regs
    const int regs_before = g.count(MappedKind::kReg);
    ASSERT_GE(regs_before, 6);

    const auto fold = foldRegisterChains(&g);
    EXPECT_EQ(fold.regfiles_created, 1);
    EXPECT_EQ(fold.registers_folded, regs_before);
    EXPECT_EQ(g.count(MappedKind::kReg), 0);
    const auto rfs = g.nodesOfKind(MappedKind::kRegFile);
    ASSERT_EQ(rfs.size(), 1u);
    EXPECT_EQ(g.nodes[rfs[0]].depth, regs_before);
    // Latency is preserved exactly.
    EXPECT_TRUE(delaysBalanced(g, 3));
}

TEST(RegFileTest, ShortChainsAreKept) {
    MappedGraph g = unbalancedDiamond();
    balanceBranchDelays(&g, 1); // chain of 2 regs only
    const auto fold = foldRegisterChains(&g);
    EXPECT_EQ(fold.regfiles_created, 0);
    EXPECT_EQ(g.count(MappedKind::kReg), 2);
}

TEST(RegFileTest, CutoffIsAdjustable) {
    MappedGraph g = unbalancedDiamond();
    balanceBranchDelays(&g, 1);
    AppPipelineOptions options;
    options.rf_cutoff = 1;
    const auto fold = foldRegisterChains(&g, options);
    EXPECT_EQ(fold.regfiles_created, 1);
}

TEST(AppPipelineTest, FullFlowOnRealApplication) {
    const auto app = apps::harrisCorner(1);
    const auto &tech = model::defaultTech();

    pe::PeSpec spec = pe::baselinePe();
    mapper::RewriteRuleSynthesizer synth(spec);
    mapper::InstructionSelector selector(synth.synthesizeLibrary({}));
    auto sel = selector.map(app.graph);
    ASSERT_TRUE(sel.success) << sel.status.toString();

    const auto pe_result = pipelinePe(spec, tech);
    const auto result = pipelineApplication(
        &sel.mapped, spec.pipeline_stages, {});
    EXPECT_TRUE(delaysBalanced(sel.mapped, spec.pipeline_stages));
    EXPECT_GT(result.max_latency, 0);
    (void)pe_result;
}

} // namespace
} // namespace apex::pipeline
