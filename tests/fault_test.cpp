// Fault-injection harness tests: the DSE pipeline must survive a
// deterministic fault at every stage — the sweep keeps going, only
// the affected app/variant is skipped, and the ExplorationReport
// names the failed stage, error code and attempts consumed.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "cgra/place.hpp"
#include "cgra/route.hpp"
#include "core/evaluate.hpp"
#include "core/fault.hpp"
#include "core/hetero.hpp"
#include "core/sweep.hpp"
#include "ir/serialize.hpp"
#include "mapper/rewrite.hpp"
#include "mapper/select.hpp"

namespace apex::core {
namespace {

const model::TechModel tech = model::defaultTech();

class FaultTest : public ::testing::Test {
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }

    static std::vector<apps::AppInfo> smallApps() {
        return {apps::gaussianBlur(1), apps::unsharp(1)};
    }

    /** Eval options that make one injected fault terminal: no seed
     * retries, no track escalation, no fabric growth. */
    static EvalOptions strictEval() {
        EvalOptions eval;
        eval.place_retries = 1;
        eval.route_track_escalations = 0;
        eval.auto_grow_fabric = false;
        return eval;
    }
};

TEST_F(FaultTest, DeserializeFaultInjection) {
    const std::string text =
        ir::serialize(apps::gaussianBlur(1).graph);
    {
        FaultScope scope(FaultStage::kDeserialize, 1);
        const auto parsed = ir::parseGraph(text);
        ASSERT_FALSE(parsed.ok());
        EXPECT_EQ(parsed.status().code(), ErrorCode::kParseError);
        EXPECT_NE(parsed.status().message().find("injected fault"),
                  std::string::npos);
    }
    // Disarmed again: the same text parses.
    EXPECT_TRUE(ir::parseGraph(text).ok());
}

TEST_F(FaultTest, SweepSurvivesFaultAtEveryStage) {
    const struct {
        FaultStage stage;
        EvalLevel level;
    } cases[] = {
        {FaultStage::kValidate, EvalLevel::kPostMapping},
        {FaultStage::kMine, EvalLevel::kPostMapping},
        {FaultStage::kMerge, EvalLevel::kPostMapping},
        {FaultStage::kMap, EvalLevel::kPostMapping},
        {FaultStage::kPlace, EvalLevel::kPostPnr},
        {FaultStage::kRoute, EvalLevel::kPostPnr},
        {FaultStage::kEvaluate, EvalLevel::kPostMapping},
    };
    const auto apps_list = smallApps();
    Explorer ex;

    for (const auto &c : cases) {
        SCOPED_TRACE(std::string(faultStageName(c.stage)));
        SweepOptions options;
        options.level = c.level;
        options.eval = strictEval();

        FaultScope scope(c.stage, 1);
        const SweepOutcome outcome =
            runSweep(apps_list, ex, tech, options);

        // The sweep finished and evaluated everything except the one
        // faulted pair (or app, for a validate fault).
        ASSERT_EQ(outcome.report.failures.size(), 1u);
        const StageFailure &f = outcome.report.failures.front();
        EXPECT_EQ(f.stage, faultStageName(c.stage));
        EXPECT_EQ(f.status.code(), faultErrorCode(c.stage));
        EXPECT_GE(f.attempts, 1);
        EXPECT_EQ(f.app, apps_list.front().name);
        EXPECT_EQ(outcome.report.skipped, 1);
        EXPECT_GE(outcome.report.evaluated, 3);
        EXPECT_EQ(outcome.entries.size(),
                  static_cast<std::size_t>(
                      outcome.report.evaluated));

        // The second application is untouched by the fault.
        int second_app_entries = 0;
        for (const SweepEntry &e : outcome.entries)
            if (e.app == apps_list.back().name)
                ++second_app_entries;
        EXPECT_EQ(second_app_entries, 3);

        // The summary names the failed stage for the operator.
        const std::string summary = outcome.report.summary();
        EXPECT_NE(summary.find("stage '" +
                               std::string(faultStageName(c.stage)) +
                               "'"),
                  std::string::npos);
    }
}

TEST_F(FaultTest, ExplorerReturnsMineAndMergeFailuresAtAnyJobs) {
    // Every Explorer builder, and the PE Spec walk, hands a mine or
    // merge failure back as its Status instead of a weaker variant,
    // and the failure is the same with a null pool and a 4-lane one.
    // The window fails every call of the stage, so the failure the
    // in-order walk reaches first is fixed; only the injector's
    // "(call N)" ordinal depends on which lane claimed it.
    const auto app = apps::gaussianBlur(1);
    const auto domain = smallApps();
    runtime::ThreadPool pool(4);
    const Explorer sequential(tech);
    ExplorerOptions with_pool;
    with_pool.pool = &pool;
    const Explorer parallel(tech, with_pool);
    auto sansOrdinal = [](const Status &s) {
        std::string text = s.toString();
        const std::size_t at = text.find(" (call ");
        if (at != std::string::npos)
            text.erase(at, text.find(')', at) + 1 - at);
        return text;
    };
    auto expectFailure = [&](const Status &seq, const Status &par,
                             ErrorCode code, const char *what) {
        SCOPED_TRACE(what);
        EXPECT_EQ(seq.code(), code) << seq.toString();
        EXPECT_EQ(par.code(), code) << par.toString();
        EXPECT_EQ(sansOrdinal(seq), sansOrdinal(par));
    };

    for (const FaultStage stage : {FaultStage::kMine, FaultStage::kMerge}) {
        SCOPED_TRACE(std::string(faultStageName(stage)));
        const ErrorCode code = faultErrorCode(stage);
        auto failed = [&](auto build) {
            FaultScope scope(stage, 1, 1000);
            return build().status();
        };

        // analyze() only mines: a merge fault cannot reach it.
        const Status a_seq =
            failed([&] { return sequential.analyze(app.graph); });
        const Status a_par =
            failed([&] { return parallel.analyze(app.graph); });
        if (stage == FaultStage::kMine) {
            expectFailure(a_seq, a_par, code, "analyze");
        } else {
            EXPECT_TRUE(a_seq.ok() && a_par.ok());
        }

        expectFailure(
            failed([&] { return sequential.specializedVariant(app, 2); }),
            failed([&] { return parallel.specializedVariant(app, 2); }),
            code, "specializedVariant");
        expectFailure(
            failed([&] {
                return sequential.domainVariant(domain, 1, "pe_dom");
            }),
            failed([&] {
                return parallel.domainVariant(domain, 1, "pe_dom");
            }),
            code, "domainVariant");
        expectFailure(
            failed([&] {
                return bestSpecializedVariant(app, sequential, tech);
            }),
            failed([&] {
                return bestSpecializedVariant(app, parallel, tech,
                                              &pool);
            }),
            code, "bestSpecializedVariant");
    }
}

TEST_F(FaultTest, ValidateFaultSkipsWholeApp) {
    const auto apps_list = smallApps();
    Explorer ex;
    SweepOptions options;
    options.eval = strictEval();

    FaultScope scope(FaultStage::kValidate, 1);
    const SweepOutcome outcome =
        runSweep(apps_list, ex, tech, options);
    ASSERT_EQ(outcome.report.failures.size(), 1u);
    EXPECT_EQ(outcome.report.failures.front().app,
              apps_list.front().name);
    EXPECT_TRUE(outcome.report.failures.front().variant.empty());
    // Only the other app's variants ran.
    EXPECT_EQ(outcome.report.evaluated, 3);
}

TEST_F(FaultTest, PlacementRetriesWithNewSeedAfterFailure) {
    Explorer ex;
    const auto app = apps::gaussianBlur(1);
    EvalOptions options;
    options.place_retries = 3;

    // First placement call fails; the retry with a derived seed must
    // succeed and the trail must show both attempts.
    FaultScope scope(FaultStage::kPlace, 1);
    const EvalResult r = evaluate(app, ex.baselineVariant(),
                                  EvalLevel::kPostPnr, tech, options);
    ASSERT_TRUE(r.success) << r.status.toString();
    EXPECT_EQ(r.pnr_attempts, 2);

    const auto trail = r.diagnostics.forStage("place");
    ASSERT_GE(trail.size(), 2u);
    EXPECT_EQ(trail[0].severity, Severity::kError);
    EXPECT_EQ(trail[0].code, ErrorCode::kPlaceFailed);
    EXPECT_EQ(trail[0].attempt, 1);
    EXPECT_EQ(trail[1].severity, Severity::kInfo);
    EXPECT_EQ(trail[1].attempt, 2);
}

TEST_F(FaultTest, RoutingRetriesWithMoreTracksAfterFailure) {
    Explorer ex;
    const auto app = apps::gaussianBlur(1);
    EvalOptions options;
    options.route_track_escalations = 2;

    FaultScope scope(FaultStage::kRoute, 1);
    const EvalResult r = evaluate(app, ex.baselineVariant(),
                                  EvalLevel::kPostPnr, tech, options);
    ASSERT_TRUE(r.success) << r.status.toString();
    EXPECT_EQ(r.pnr_attempts, 1); // placement never failed

    const auto trail = r.diagnostics.forStage("route");
    ASSERT_GE(trail.size(), 2u);
    EXPECT_EQ(trail[0].severity, Severity::kError);
    EXPECT_EQ(trail[0].code, ErrorCode::kRouteFailed);
    EXPECT_EQ(trail[1].severity, Severity::kInfo);
    EXPECT_NE(trail[1].message.find("escalation"),
              std::string::npos);
}

TEST_F(FaultTest, ExhaustedRetriesReportTheFullTrail) {
    Explorer ex;
    const auto app = apps::gaussianBlur(1);
    EvalOptions options;
    options.place_retries = 2;
    options.auto_grow_fabric = false;

    // Both placement attempts fail: the evaluation must fail with
    // the typed code and report every attempt.
    FaultScope scope(FaultStage::kPlace, 1, 2);
    const EvalResult r = evaluate(app, ex.baselineVariant(),
                                  EvalLevel::kPostPnr, tech, options);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.status.code(), ErrorCode::kPlaceFailed);
    EXPECT_EQ(r.pnr_attempts, 2);
    EXPECT_EQ(r.diagnostics.count(Severity::kError), 2);
    EXPECT_FALSE(r.status.message().empty());
}

TEST_F(FaultTest, EveryFailedStageResultCarriesItsStatus) {
    // Status is the only failure record: a failed result of every
    // stage, called alone or through evaluate(), must carry a non-ok
    // status with that stage's code.
    Explorer ex;
    const auto app = apps::gaussianBlur(1);
    const PeVariant base = ex.baselineVariant();
    mapper::RewriteRuleSynthesizer synth(base.spec);
    const mapper::InstructionSelector selector(
        synth.synthesizeLibrary(base.patterns));
    const mapper::SelectionResult sel = selector.map(app.graph);
    ASSERT_TRUE(sel.success) << sel.status.toString();
    EXPECT_TRUE(sel.status.ok());
    const cgra::Fabric fabric(32, 16);
    const cgra::PlacementResult placement =
        cgra::place(fabric, sel.mapped);
    ASSERT_TRUE(placement.success) << placement.status.toString();

    {
        FaultScope scope(FaultStage::kMap, 1);
        const mapper::SelectionResult r = selector.map(app.graph);
        EXPECT_FALSE(r.success);
        EXPECT_EQ(r.status.code(), ErrorCode::kMappingFailed);
    }
    {
        FaultScope scope(FaultStage::kPlace, 1);
        const cgra::PlacementResult r = cgra::place(fabric, sel.mapped);
        EXPECT_FALSE(r.success);
        EXPECT_EQ(r.status.code(), ErrorCode::kPlaceFailed);
    }
    {
        FaultScope scope(FaultStage::kRoute, 1);
        const cgra::RouteResult r = cgra::route(fabric, placement);
        EXPECT_FALSE(r.success);
        EXPECT_EQ(r.status.code(), ErrorCode::kRouteFailed);
    }

    const struct {
        FaultStage stage;
        ErrorCode code;
    } cases[] = {
        {FaultStage::kValidate, ErrorCode::kInvalidIr},
        {FaultStage::kEvaluate, ErrorCode::kEvaluationFailed},
        {FaultStage::kMap, ErrorCode::kMappingFailed},
        {FaultStage::kPlace, ErrorCode::kPlaceFailed},
        {FaultStage::kRoute, ErrorCode::kRouteFailed},
    };
    const HeteroCgra hetero = makeBigLittleCgra(base, "biglittle");
    for (const auto &c : cases) {
        SCOPED_TRACE(std::string(faultStageName(c.stage)));
        {
            FaultScope scope(c.stage, 1, 1000);
            const EvalResult r = evaluate(
                app, base, EvalLevel::kPostPnr, tech, strictEval());
            EXPECT_FALSE(r.success);
            EXPECT_EQ(r.status.code(), c.code);
            EXPECT_FALSE(r.status.message().empty());
        }
        // The heterogeneous evaluator has no validate/evaluate hook.
        if (c.stage == FaultStage::kValidate ||
            c.stage == FaultStage::kEvaluate)
            continue;
        FaultScope scope(c.stage, 1, 1000);
        const HeteroEvalResult r = evaluateHetero(
            app, hetero, EvalLevel::kPostPnr, tech, strictEval());
        EXPECT_FALSE(r.success);
        EXPECT_EQ(r.status.code(), c.code);
    }
}

TEST_F(FaultTest, EvaluateRejectsCorruptApplicationGraph) {
    // A corrupt graph must be caught by boundary validation, not
    // crash the mapper.
    apps::AppInfo app = apps::gaussianBlur(1);
    const ir::NodeId victim = app.graph.size() - 1;
    app.graph.setOperand(victim, 0,
                         static_cast<ir::NodeId>(10000)); // dangling

    Explorer ex;
    const EvalResult r = evaluate(app, ex.baselineVariant(),
                                  EvalLevel::kPostMapping, tech);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.status.code(), ErrorCode::kInvalidIr);
    EXPECT_FALSE(r.diagnostics.forStage("validate").empty());
}

TEST_F(FaultTest, SweepSkipsCorruptAppAndContinues) {
    auto apps_list = smallApps();
    apps_list.front().graph.setOperand(
        apps_list.front().graph.size() - 1, 0,
        static_cast<ir::NodeId>(10000));

    Explorer ex;
    SweepOptions options;
    options.eval = strictEval();
    const SweepOutcome outcome =
        runSweep(apps_list, ex, tech, options);
    ASSERT_EQ(outcome.report.failures.size(), 1u);
    EXPECT_EQ(outcome.report.failures.front().stage, "validate");
    EXPECT_EQ(outcome.report.failures.front().status.code(),
              ErrorCode::kInvalidIr);
    EXPECT_EQ(outcome.report.evaluated, 3);
}

} // namespace
} // namespace apex::core
