#include <gtest/gtest.h>

#include "core/evaluate.hpp"
#include "core/explorer.hpp"
#include "ir/validate.hpp"
#include "model/tech.hpp"

namespace apex::core {
namespace {

const model::TechModel &tech = model::defaultTech();

TEST(ExplorerTest, AnalyzeProducesViableRankedPatterns) {
    Explorer ex;
    const auto app = apps::gaussianBlur(4);
    const auto patterns = ex.analyze(app.graph).value();
    ASSERT_FALSE(patterns.empty());
    for (const auto &p : patterns) {
        EXPECT_GE(p.core_size, 2);
        EXPECT_GE(p.mis_size, ex.options().min_mis);
        EXPECT_TRUE(ir::validate(p.pattern).ok());
        EXPECT_EQ(p.pattern.topoOrder().size(), p.pattern.size());
    }
    for (std::size_t i = 1; i < patterns.size(); ++i)
        EXPECT_GE(patterns[i - 1].mis_size, patterns[i].mis_size);
}

TEST(ExplorerTest, VariantRecipeShrinksWithSpecialization) {
    Explorer ex;
    const auto app = apps::cameraPipeline(1);

    const PeVariant base = ex.baselineVariant();
    const PeVariant pe1 = ex.subsetVariant(app);
    EXPECT_LT(pe1.spec.area(tech), base.spec.area(tech))
        << "PE 1 drops unused hardware";

    // Merging subgraphs grows the PE core itself...
    const PeVariant pe2 = ex.specializedVariant(app, 1).value();
    EXPECT_GE(pe2.spec.area(tech), pe1.spec.area(tech) * 0.9);
    EXPECT_FALSE(pe2.patterns.empty());
}

TEST(ExplorerTest, DomainVariantCoversAllApps) {
    Explorer ex;
    const auto ip = apps::ipApps();
    const PeVariant pe_ip = ex.domainVariant(ip, 1, "pe_ip").value();
    EXPECT_GE(pe_ip.patterns.size(), 2u)
        << "at least two distinct domain subgraphs expected";
    EXPECT_TRUE(pe_ip.spec.dp.validate());
}

TEST(EvaluateTest, PostMappingCameraSpecializationShape) {
    // Fig. 11 / Table 2 shape: specialization reduces #PEs and total
    // PE area and energy monotonically-ish from baseline to PE spec.
    Explorer ex;
    const auto app = apps::cameraPipeline(1);

    const auto base = evaluate(app, ex.baselineVariant(),
                               EvalLevel::kPostMapping, tech);
    const auto pe1 = evaluate(app, ex.subsetVariant(app),
                              EvalLevel::kPostMapping, tech);
    const auto spec =
        evaluate(app, bestSpecializedVariant(app, ex, tech).value(),
                 EvalLevel::kPostMapping, tech);
    ASSERT_TRUE(base.success) << base.status.toString();
    ASSERT_TRUE(pe1.success) << pe1.status.toString();
    ASSERT_TRUE(spec.success) << spec.status.toString();

    // PE 1: same PE count (same coverage), smaller area.
    EXPECT_EQ(pe1.pe_count, base.pe_count);
    EXPECT_LT(pe1.pe_area, base.pe_area);
    EXPECT_LT(pe1.pe_energy, base.pe_energy);

    // PE spec: fewer PEs and lower area/energy than baseline.
    EXPECT_LT(spec.pe_count, base.pe_count);
    EXPECT_LT(spec.pe_area, pe1.pe_area * 1.05);
    EXPECT_LT(spec.pe_energy, pe1.pe_energy);

    // Headline: large reduction vs baseline.  The paper reports up
    // to -78% area / -68% energy from gate-level synthesis; the
    // analytic cost model here reproduces the direction and a
    // substantial fraction of the magnitude (see EXPERIMENTS.md).
    EXPECT_LT(spec.pe_area, 0.65 * base.pe_area);
    EXPECT_LT(spec.pe_energy, 0.85 * base.pe_energy);
}

TEST(EvaluateTest, PostPnrAddsInterconnect) {
    Explorer ex;
    const auto app = apps::gaussianBlur(2);
    const auto r = evaluate(app, ex.baselineVariant(),
                            EvalLevel::kPostPnr, tech);
    ASSERT_TRUE(r.success) << r.status.toString();
    EXPECT_GT(r.sb_area, 0.0);
    EXPECT_GT(r.cb_area, 0.0);
    EXPECT_GT(r.mem_area, 0.0);
    EXPECT_GT(r.cgra_area, r.pe_area);
    EXPECT_GT(r.cgra_energy, r.pe_energy);
    EXPECT_EQ(r.util.pes, r.pe_count);
}

TEST(EvaluateTest, PostPipeliningImprovesPerformance) {
    Explorer ex;
    const auto app = apps::gaussianBlur(2);
    const PeVariant spec_variant = ex.specVariant(app).value();

    const auto pnr = evaluate(app, spec_variant,
                              EvalLevel::kPostPnr, tech);
    const auto piped = evaluate(app, spec_variant,
                                EvalLevel::kPostPipelining, tech);
    ASSERT_TRUE(pnr.success) << pnr.status.toString();
    ASSERT_TRUE(piped.success) << piped.status.toString();

    // Fig. 16 shape: pipelining cuts the clock period (the merged
    // datapath is deep), at some register/RF cost.
    EXPECT_LT(piped.period_ns, pnr.period_ns);
    EXPECT_GT(piped.pipeline_stages, 0);
    EXPECT_GT(piped.frames_per_ms_mm2, 0.0);
    EXPECT_LE(piped.period_ns, tech.target_period + 0.35);
}

TEST(EvaluateTest, DomainPeBeatsBaselineOnUnseenApps) {
    // Fig. 13 shape: PE IP, built WITHOUT seeing laplacian, still
    // beats the baseline on it.
    Explorer ex;
    const PeVariant pe_ip =
        ex.domainVariant(apps::ipApps(), 1, "pe_ip").value();
    const auto unseen = apps::laplacianPyramid(1);

    const auto base = evaluate(unseen, ex.baselineVariant(),
                               EvalLevel::kPostMapping, tech);
    const auto ip = evaluate(unseen, pe_ip,
                             EvalLevel::kPostMapping, tech);
    ASSERT_TRUE(base.success) << base.status.toString();
    ASSERT_TRUE(ip.success) << ip.status.toString();
    EXPECT_LT(ip.pe_area, base.pe_area);
    EXPECT_LT(ip.pe_energy, base.pe_energy);
}

TEST(EvaluateTest, MlPeOnMlApps) {
    Explorer ex;
    const PeVariant pe_ml =
        ex.domainVariant(apps::mlApps(), 1, "pe_ml").value();
    const auto app = apps::mobilenetLayer(2);

    const auto base = evaluate(app, ex.baselineVariant(),
                               EvalLevel::kPostMapping, tech);
    const auto ml = evaluate(app, pe_ml, EvalLevel::kPostMapping,
                             tech);
    ASSERT_TRUE(base.success) << base.status.toString();
    ASSERT_TRUE(ml.success) << ml.status.toString();
    EXPECT_LT(ml.pe_count, base.pe_count);
    EXPECT_LT(ml.pe_area, base.pe_area);
}

TEST(EvaluateTest, ReportsFailureForUndersizedFabric) {
    Explorer ex;
    const auto app = apps::cameraPipeline(2);
    EvalOptions options;
    options.fabric_width = 4;
    options.fabric_height = 2;
    options.auto_grow_fabric = false;
    const auto r = evaluate(app, ex.baselineVariant(),
                            EvalLevel::kPostPnr, tech, options);
    EXPECT_FALSE(r.success);
    EXPECT_FALSE(r.status.message().empty());
}

TEST(EvaluateTest, AutoGrowRecoversFromSmallFabric) {
    Explorer ex;
    const auto app = apps::gaussianBlur(1);
    EvalOptions options;
    options.fabric_width = 4;
    options.fabric_height = 2;
    const auto r = evaluate(app, ex.baselineVariant(),
                            EvalLevel::kPostPnr, tech, options);
    ASSERT_TRUE(r.success) << r.status.toString();
    EXPECT_GT(r.fabric_width * r.fabric_height, 8);
}

} // namespace
} // namespace apex::core
