#include <gtest/gtest.h>

#include <random>

#include "cgra/place.hpp"
#include "core/hetero.hpp"
#include "ir/interpreter.hpp"
#include "mapper/select.hpp"
#include "model/tech.hpp"
#include "pe/baseline.hpp"

namespace apex::core {
namespace {

const model::TechModel &tech = model::defaultTech();

TEST(CombineLibrariesTest, TagsTypesAndPrefersCheapOnTies) {
    const pe::PeSpec big = pe::baselinePe();
    const pe::PeSpec little = pe::baselineSubsetPe(
        {ir::Op::kAdd, ir::Op::kSub}, "little");

    mapper::RewriteRuleSynthesizer sb(big), sl(little);
    auto combined = mapper::combineLibraries(
        {sb.synthesizeLibrary({}), sl.synthesizeLibrary({})},
        {big.area(tech), little.area(tech)});

    ASSERT_FALSE(combined.empty());
    bool has_type0 = false, has_type1 = false;
    for (std::size_t i = 1; i < combined.size(); ++i)
        EXPECT_GE(combined[i - 1].size, combined[i].size);
    for (const auto &rule : combined) {
        has_type0 |= rule.pe_type == 0;
        has_type1 |= rule.pe_type == 1;
    }
    EXPECT_TRUE(has_type0);
    EXPECT_TRUE(has_type1);

    // For a plain add (both types implement it, same size/bindings),
    // the first matching rule must be the little PE's.
    for (const auto &rule : combined) {
        if (rule.size == 1 && rule.const_bindings.empty() &&
            rule.pattern.nodesWithOp(ir::Op::kAdd).size() == 1 &&
            rule.pattern.size() == 3) {
            EXPECT_EQ(rule.pe_type, 1)
                << "cheap PE must win the tie";
            break;
        }
    }
}

TEST(HeteroTest, BigLittleMapsAndSplitsWork) {
    Explorer ex;
    const auto app = apps::gaussianBlur(2);
    const HeteroCgra cgra = makeBigLittleCgra(
        ex.domainVariant(apps::ipApps(), 1, "pe_ip").value(), "biglittle");

    const auto r = evaluateHetero(app, cgra,
                                  EvalLevel::kPostMapping, tech);
    ASSERT_TRUE(r.success) << r.status.toString();
    ASSERT_EQ(r.pe_count_by_type.size(), 2u);
    EXPECT_GT(r.pe_count_by_type[0], 0) << "MACs need the big PE";
    EXPECT_GT(r.pe_count_by_type[1], 0)
        << "plain adds/shifts should land on the little PE";
    EXPECT_EQ(r.pe_count,
              r.pe_count_by_type[0] + r.pe_count_by_type[1]);
}

TEST(HeteroTest, HeteroBeatsHomogeneousOnArea) {
    // The little PE absorbs single-op work at a fraction of the big
    // PE's area: total PE area must drop vs the homogeneous fabric.
    Explorer ex;
    const auto app = apps::gaussianBlur(2);
    const PeVariant pe_ip =
        ex.domainVariant(apps::ipApps(), 1, "pe_ip").value();

    const auto homo = evaluate(app, pe_ip,
                               EvalLevel::kPostMapping, tech);
    const auto hetero = evaluateHetero(
        app, makeBigLittleCgra(pe_ip, "biglittle"),
        EvalLevel::kPostMapping, tech);
    ASSERT_TRUE(homo.success) << homo.status.toString();
    ASSERT_TRUE(hetero.success) << hetero.status.toString();
    EXPECT_LT(hetero.pe_area, homo.pe_area);
    EXPECT_LE(hetero.pe_energy, homo.pe_energy * 1.05);
}

TEST(HeteroTest, FunctionalEquivalenceAcrossTypes) {
    Explorer ex;
    const auto app = apps::gaussianBlur(1);
    const HeteroCgra cgra = makeBigLittleCgra(
        ex.domainVariant(apps::ipApps(), 1, "pe_ip").value(), "biglittle");

    std::vector<std::vector<mapper::RewriteRule>> libs;
    std::vector<double> areas;
    std::vector<const pe::PeSpec *> specs;
    for (const PeVariant &v : cgra.types) {
        mapper::RewriteRuleSynthesizer synth(v.spec);
        libs.push_back(synth.synthesizeLibrary(v.patterns));
        areas.push_back(v.spec.area(tech));
        specs.push_back(&v.spec);
    }
    const auto rules =
        mapper::combineLibraries(std::move(libs), areas);
    mapper::InstructionSelector selector(rules);
    const auto sel = selector.map(app.graph);
    ASSERT_TRUE(sel.success) << sel.status.toString();

    std::mt19937 rng(3);
    std::uniform_int_distribution<std::uint32_t> dist(0, 255);
    for (int trial = 0; trial < 4; ++trial) {
        const std::vector<std::uint64_t> inputs = {dist(rng)};
        const ir::Interpreter interp;
        const auto want = interp.evalByOrder(app.graph, inputs);
        const auto got = mapper::executeMappedHetero(
            sel.mapped, rules, specs, inputs);
        EXPECT_EQ(got, want);
    }
}

TEST(HeteroTest, PlacementRespectsTypePools) {
    Explorer ex;
    const auto app = apps::gaussianBlur(2);
    const HeteroCgra cgra = makeBigLittleCgra(
        ex.domainVariant(apps::ipApps(), 1, "pe_ip").value(), "biglittle");

    const auto r = evaluateHetero(app, cgra, EvalLevel::kPostPnr,
                                  tech);
    ASSERT_TRUE(r.success) << r.status.toString();
    EXPECT_GT(r.cgra_area, r.pe_area);
    EXPECT_GT(r.cgra_energy, r.pe_energy);
    EXPECT_EQ(r.util.pes, r.pe_count);
}

TEST(HeteroTest, TypePoolCapacityIsEnforced) {
    // A fabric with very few tiles per pool must fail placement
    // rather than overfill one pool.
    Explorer ex;
    const auto app = apps::gaussianBlur(4);
    const HeteroCgra cgra = makeBigLittleCgra(
        ex.domainVariant(apps::ipApps(), 1, "pe_ip").value(), "biglittle");
    EvalOptions options;
    options.fabric_width = 4;
    options.fabric_height = 4;
    options.auto_grow_fabric = false;
    const auto r = evaluateHetero(app, cgra, EvalLevel::kPostPnr,
                                  tech, options);
    EXPECT_FALSE(r.success);
    EXPECT_NE(r.status.toString().find("too small"), std::string::npos);
}

} // namespace
} // namespace apex::core
