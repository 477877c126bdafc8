#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "apps/apps.hpp"
#include "cgra/bitstream.hpp"
#include "cgra/fabric.hpp"
#include "cgra/metrics.hpp"
#include "cgra/place.hpp"
#include "cgra/route.hpp"
#include "cgra/sim.hpp"
#include "cgra/visualize.hpp"
#include "ir/builder.hpp"
#include "ir/interpreter.hpp"
#include "ir/streaming.hpp"
#include "mapper/select.hpp"
#include "model/tech.hpp"
#include "pe/baseline.hpp"
#include "pipeline/app_pipeline.hpp"
#include "pipeline/pe_pipeline.hpp"

namespace apex::cgra {
namespace {

using mapper::MappedKind;

TEST(FabricTest, GeometryAndKinds) {
    const Fabric f(32, 16);
    EXPECT_EQ(f.kindAt({0, 0}), TileKind::kPe);
    EXPECT_EQ(f.kindAt({3, 0}), TileKind::kMem);
    EXPECT_EQ(f.kindAt({7, 5}), TileKind::kMem);
    EXPECT_EQ(f.kindAt({5, -1}), TileKind::kIo);
    EXPECT_EQ(f.kindAt({5, 16}), TileKind::kIo);
    EXPECT_EQ(f.peTiles().size(), 32u * 16u * 3u / 4u);
    EXPECT_EQ(f.memTiles().size(), 32u * 16u / 4u);
    EXPECT_EQ(f.ioTiles().size(), 64u);
}

TEST(FabricTest, IndexRoundTrip) {
    const Fabric f(8, 4);
    for (int y = -1; y <= 4; ++y) {
        for (int x = 0; x < 8; ++x) {
            const Coord c{x, y};
            EXPECT_EQ(f.coordAt(f.indexOf(c)), c);
        }
    }
}

TEST(FabricTest, LinkRoundTrip) {
    const Fabric f(8, 4);
    const Coord c{3, 2};
    for (const Coord &n : f.neighbours(c)) {
        const int link = f.linkIndex(c, n);
        const auto [src, dst] = f.linkEnds(link);
        EXPECT_EQ(src, c);
        EXPECT_EQ(dst, n);
    }
}

TEST(FabricTest, IoRowsOnlyConnectVertically) {
    const Fabric f(8, 4);
    for (const Coord &n : f.neighbours({3, -1}))
        EXPECT_EQ(n.y, 0);
}

/** Fully mapped small app fixture. */
struct Flow {
    apps::AppInfo app;
    pe::PeSpec spec;
    std::vector<mapper::RewriteRule> rules;
    mapper::SelectionResult sel;

    explicit Flow(apps::AppInfo a, bool pipeline_pes = false,
                  double target_period = 0.0)
        : app(std::move(a)), spec(pe::baselinePe())
    {
        mapper::RewriteRuleSynthesizer synth(spec);
        rules = synth.synthesizeLibrary({});
        mapper::InstructionSelector selector(rules);
        sel = selector.map(app.graph);
        if (pipeline_pes) {
            model::TechModel tech = model::defaultTech();
            pipeline::PePipelineOptions popt;
            if (target_period > 0.0) {
                // Aggressive mode for tests that need stages > 0
                // even on shallow PEs.
                tech.target_period = target_period;
                popt.min_gain = 0.005;
            }
            pipeline::pipelinePe(spec, tech, popt);
            pipeline::pipelineApplication(&sel.mapped,
                                          spec.pipeline_stages, {});
        }
    }
};

TEST(PlaceTest, GaussianPlacesLegally) {
    Flow flow(apps::gaussianBlur(1));
    ASSERT_TRUE(flow.sel.success) << flow.sel.status.toString();

    const Fabric fabric(16, 8);
    const auto placement = place(fabric, flow.sel.mapped);
    ASSERT_TRUE(placement.success) << placement.status.toString();

    // Legality: every placeable node on a tile of the right kind,
    // no two nodes sharing a tile.
    std::set<int> used;
    for (std::size_t id = 0; id < flow.sel.mapped.nodes.size();
         ++id) {
        const auto &n = flow.sel.mapped.nodes[id];
        if (!isPlaceable(n.kind)) {
            EXPECT_EQ(placement.loc[id].x, -1);
            continue;
        }
        const Coord c = placement.loc[id];
        ASSERT_TRUE(fabric.inBounds(c));
        EXPECT_TRUE(used.insert(fabric.indexOf(c)).second)
            << "two nodes share a tile";
        switch (n.kind) {
          case MappedKind::kPe:
          case MappedKind::kRegFile:
            EXPECT_EQ(fabric.kindAt(c), TileKind::kPe);
            break;
          case MappedKind::kMem:
            EXPECT_EQ(fabric.kindAt(c), TileKind::kMem);
            break;
          default:
            EXPECT_EQ(fabric.kindAt(c), TileKind::kIo);
        }
    }
}

TEST(PlaceTest, AnnealingImprovesOverScatter) {
    Flow flow(apps::harrisCorner(1));
    ASSERT_TRUE(flow.sel.success);
    const Fabric fabric(32, 16);

    PlacerOptions no_anneal;
    no_anneal.moves_per_node = 0;
    const auto scattered =
        place(fabric, flow.sel.mapped, no_anneal);
    const auto annealed = place(fabric, flow.sel.mapped);
    ASSERT_TRUE(scattered.success);
    ASSERT_TRUE(annealed.success);
    EXPECT_LT(annealed.wirelength, scattered.wirelength);
}

TEST(PlaceTest, FailsWhenFabricTooSmall) {
    Flow flow(apps::cameraPipeline(2));
    ASSERT_TRUE(flow.sel.success);
    const Fabric tiny(4, 2);
    const auto placement = place(tiny, flow.sel.mapped);
    EXPECT_FALSE(placement.success);
    EXPECT_NE(placement.status.toString().find("too small"), std::string::npos);
}

TEST(PlaceTest, ContractionCountsRegisters) {
    Flow flow(apps::gaussianBlur(1));
    ASSERT_TRUE(flow.sel.success);
    const auto edges = contractRegisters(flow.sel.mapped);
    int regs = 0;
    for (const auto &e : edges) {
        EXPECT_TRUE(
            isPlaceable(flow.sel.mapped.nodes[e.src].kind));
        EXPECT_TRUE(
            isPlaceable(flow.sel.mapped.nodes[e.dst].kind));
        regs += e.regs;
    }
    // Registers shared by several consumers are replicated on each
    // consumer's route in the per-link abstraction, so the carried
    // count can exceed (never undershoot) the node count.
    EXPECT_GE(regs, flow.sel.mapped.count(MappedKind::kReg));
}

TEST(RouteTest, GaussianRoutesCongestionFree) {
    Flow flow(apps::gaussianBlur(2));
    ASSERT_TRUE(flow.sel.success);
    const Fabric fabric(16, 8);
    const auto placement = place(fabric, flow.sel.mapped);
    ASSERT_TRUE(placement.success);
    const auto routing = route(fabric, placement);
    ASSERT_TRUE(routing.success) << routing.status.toString();

    // No link over capacity.
    for (int usage : routing.link_usage)
        EXPECT_LE(usage, 5);
    // Each path connects the right endpoints contiguously.
    for (std::size_t e = 0; e < placement.edges.size(); ++e) {
        const auto &path = routing.paths[e];
        Coord cursor = placement.loc[placement.edges[e].src];
        for (int link : path) {
            const auto [src, dst] = fabric.linkEnds(link);
            EXPECT_EQ(src, cursor);
            cursor = dst;
        }
        EXPECT_EQ(cursor, placement.loc[placement.edges[e].dst]);
    }
}

TEST(RouteTest, CongestionForcesDetours) {
    // Many nets through a narrow fabric still resolve.
    Flow flow(apps::harrisCorner(1));
    ASSERT_TRUE(flow.sel.success);
    const Fabric fabric(32, 16);
    const auto placement = place(fabric, flow.sel.mapped);
    ASSERT_TRUE(placement.success);
    const auto routing = route(fabric, placement);
    ASSERT_TRUE(routing.success) << routing.status.toString();
    for (int usage : routing.link_usage)
        EXPECT_LE(usage, 5);
}

TEST(BitstreamTest, DeterministicAndConfigSensitive) {
    Flow flow(apps::gaussianBlur(1));
    ASSERT_TRUE(flow.sel.success);
    const Fabric fabric(16, 8);
    const auto placement = place(fabric, flow.sel.mapped);
    const auto routing = route(fabric, placement);
    ASSERT_TRUE(routing.success);

    const auto bs1 = generateBitstream(fabric, flow.sel.mapped,
                                       flow.rules, flow.spec,
                                       placement, routing);
    const auto bs2 = generateBitstream(fabric, flow.sel.mapped,
                                       flow.rules, flow.spec,
                                       placement, routing);
    EXPECT_GT(bs1.bits, 0);
    EXPECT_EQ(bs1.digest(), bs2.digest());

    // Changing one constant changes the stream.
    auto mutated = flow.sel.mapped;
    for (auto &n : mutated.nodes) {
        if (n.kind == MappedKind::kPe && !n.const_vals.empty()) {
            n.const_vals[0] ^= 0x5555;
            break;
        }
    }
    const auto bs3 = generateBitstream(fabric, mutated, flow.rules,
                                       flow.spec, placement,
                                       routing);
    EXPECT_NE(bs1.digest(), bs3.digest());
}

TEST(BitstreamTest, DecodeRoundTripsEveryField) {
    Flow flow(apps::gaussianBlur(1));
    ASSERT_TRUE(flow.sel.success);
    const Fabric fabric(16, 8);
    const auto placement = place(fabric, flow.sel.mapped);
    const auto routing = route(fabric, placement);
    ASSERT_TRUE(routing.success);
    const auto bs = generateBitstream(fabric, flow.sel.mapped,
                                      flow.rules, flow.spec,
                                      placement, routing);

    const int pe_count = flow.sel.mapped.count(MappedKind::kPe);
    const int rf_count =
        flow.sel.mapped.count(MappedKind::kRegFile);
    const auto decoded =
        decodeBitstream(bs, flow.spec, pe_count, rf_count);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->width, 16);
    EXPECT_EQ(decoded->height, 8);
    ASSERT_EQ(decoded->pes.size(),
              static_cast<std::size_t>(pe_count));

    // Each decoded PE config must equal the source config with its
    // constants bound.
    std::size_t k = 0;
    for (std::size_t id = 0; id < flow.sel.mapped.nodes.size();
         ++id) {
        const auto &n = flow.sel.mapped.nodes[id];
        if (n.kind != MappedKind::kPe)
            continue;
        const auto &rule = flow.rules[n.rule];
        pe::PeConfig want = rule.config;
        for (std::size_t c = 0; c < rule.const_bindings.size(); ++c)
            want.const_val[rule.const_bindings[c].second] =
                n.const_vals[c];
        const auto &got = decoded->pes[k].config;
        EXPECT_EQ(decoded->pes[k].tile_index,
                  fabric.indexOf(placement.loc[id]));
        EXPECT_EQ(got.mux_sel, want.mux_sel);
        EXPECT_EQ(got.const_val, want.const_val);
        EXPECT_EQ(got.lut_table, want.lut_table);
        EXPECT_EQ(got.word_out_sel, want.word_out_sel);
        EXPECT_EQ(got.bit_out_sel, want.bit_out_sel);
        for (int b : flow.spec.multi_op_blocks)
            EXPECT_EQ(got.block_op[b], want.block_op[b]);
        ++k;
    }

    // Decoded link records match the router's usage.
    for (const auto &[link, wires] : decoded->links) {
        ASSERT_LT(link,
                  static_cast<int>(routing.link_usage.size()));
        EXPECT_EQ(wires, routing.link_usage[link]);
    }

    // Truncated streams are rejected.
    Bitstream cut = bs;
    cut.bits /= 2;
    cut.words.resize((cut.bits + 63) / 64);
    EXPECT_FALSE(
        decodeBitstream(cut, flow.spec, pe_count, rf_count)
            .has_value());
}

TEST(VisualizeTest, FloorplanShowsOccupancy) {
    Flow flow(apps::gaussianBlur(1));
    ASSERT_TRUE(flow.sel.success);
    const Fabric fabric(16, 8);
    const auto placement = place(fabric, flow.sel.mapped);
    const auto routing = route(fabric, placement);
    ASSERT_TRUE(routing.success);

    const std::string full =
        visualize(fabric, flow.sel.mapped, placement, routing);
    EXPECT_NE(full.find("floorplan 16x8"), std::string::npos);
    // Count glyphs in the body only (the header legend also contains
    // the letters).
    const std::string art = full.substr(full.find('\n') + 1);
    auto count = [&](char c) {
        return std::count(art.begin(), art.end(), c);
    };
    EXPECT_EQ(count('P'), flow.sel.mapped.count(MappedKind::kPe));
    EXPECT_EQ(count('M'), flow.sel.mapped.count(MappedKind::kMem));
    EXPECT_EQ(count('I'),
              flow.sel.mapped.count(MappedKind::kInput) +
                  flow.sel.mapped.count(MappedKind::kInputBit));
    EXPECT_GT(count('+'), 0) << "some routing-only tiles expected";
    // 8 fabric rows + 2 IO rows.
    EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 10);
}

TEST(MetricsTest, UtilizationMatchesMappedCounts) {
    Flow flow(apps::gaussianBlur(2), /*pipeline_pes=*/true);
    ASSERT_TRUE(flow.sel.success);
    const Fabric fabric(16, 8);
    const auto placement = place(fabric, flow.sel.mapped);
    ASSERT_TRUE(placement.success) << placement.status.toString();
    const auto routing = route(fabric, placement);
    ASSERT_TRUE(routing.success);

    const auto u = utilizationOf(fabric, flow.sel.mapped, placement,
                                 routing);
    EXPECT_EQ(u.pes, flow.sel.mapped.count(MappedKind::kPe));
    EXPECT_EQ(u.mems, flow.sel.mapped.count(MappedKind::kMem));
    EXPECT_EQ(u.regs, flow.sel.mapped.count(MappedKind::kReg));
    EXPECT_GT(u.sb_hops, 0);
    EXPECT_GE(u.routing_tiles, 0);
}

/** Streaming-correctness harness: simulate and compare with the
 * interpreter delayed by each output's latency. */
void
expectStreamingCorrect(Flow &flow, int cycles = 48)
{
    ASSERT_TRUE(flow.sel.success) << flow.sel.status.toString();
    CycleSimulator sim(flow.sel.mapped, flow.rules, flow.spec);

    // Input streams: deterministic pseudo-random pixels.
    std::mt19937 rng(5);
    std::uniform_int_distribution<std::uint32_t> dist(0, 255);
    int input_count = 0, bit_positions = 0;
    std::vector<int> input_is_bit;
    for (ir::NodeId id = 0; id < flow.app.graph.size(); ++id) {
        const ir::Op op = flow.app.graph.op(id);
        if (op == ir::Op::kInput || op == ir::Op::kInputBit) {
            ++input_count;
            input_is_bit.push_back(op == ir::Op::kInputBit);
            bit_positions += op == ir::Op::kInputBit;
        }
    }
    std::vector<std::vector<std::uint64_t>> streams(input_count);
    for (int i = 0; i < input_count; ++i)
        for (int t = 0; t < cycles; ++t)
            streams[i].push_back(input_is_bit[i] ? (dist(rng) & 1)
                                                 : dist(rng));

    const auto trace = sim.run(streams, cycles);

    const ir::Interpreter interp;
    for (std::size_t o = 0; o < trace.outputs.size(); ++o) {
        const int lat = trace.latency[o];
        for (int t = 0; t + lat < cycles; ++t) {
            std::vector<std::uint64_t> sample;
            for (int i = 0; i < input_count; ++i)
                sample.push_back(streams[i][t]);
            const auto want =
                interp.evalByOrder(flow.app.graph, sample);
            EXPECT_EQ(trace.outputs[o][t + lat], want[o])
                << "output " << o << " cycle " << t;
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

/** Streaming check against the cycle-accurate reference interpreter:
 * a windowed app (real functional registers) must match the
 * ir::StreamingInterpreter output shifted by each pad's pipeline
 * skew. */
void
expectWindowedStreamingCorrect(Flow &flow, int cycles = 64)
{
    ASSERT_TRUE(flow.sel.success) << flow.sel.status.toString();
    ASSERT_TRUE(pipeline::delaysBalanced(flow.sel.mapped,
                                         flow.spec.pipeline_stages));
    CycleSimulator sim(flow.sel.mapped, flow.rules, flow.spec);

    std::mt19937 rng(11);
    std::uniform_int_distribution<std::uint32_t> dist(0, 255);
    int inputs = 0;
    for (ir::NodeId id = 0; id < flow.app.graph.size(); ++id) {
        const ir::Op op = flow.app.graph.op(id);
        inputs += op == ir::Op::kInput || op == ir::Op::kInputBit;
    }
    std::vector<std::vector<std::uint64_t>> streams(inputs);
    for (auto &s : streams)
        for (int t = 0; t < cycles; ++t)
            s.push_back(dist(rng));

    const auto trace = sim.run(streams, cycles);
    const ir::StreamingInterpreter ref;
    const auto golden = ref.run(flow.app.graph, streams, cycles);

    // Pipeline skew of each output pad relative to the functional
    // schedule.
    const auto skew = pipeline::pipelineSkew(
        flow.sel.mapped, flow.spec.pipeline_stages);
    std::vector<int> pads;
    for (std::size_t id = 0; id < flow.sel.mapped.nodes.size();
         ++id) {
        const auto k = flow.sel.mapped.nodes[id].kind;
        if (k == mapper::MappedKind::kOutput ||
            k == mapper::MappedKind::kOutputBit)
            pads.push_back(static_cast<int>(id));
    }
    std::sort(pads.begin(), pads.end(), [&](int a, int b) {
        return flow.sel.mapped.nodes[a].app_node <
               flow.sel.mapped.nodes[b].app_node;
    });

    ASSERT_EQ(trace.outputs.size(), golden.size());
    for (std::size_t o = 0; o < golden.size(); ++o) {
        const int d = skew[pads[o]];
        const int warmup = trace.latency[o] + 1;
        for (int t = warmup; t + d < cycles; ++t) {
            ASSERT_EQ(trace.outputs[o][t + d], golden[o][t])
                << "output " << o << " cycle " << t << " skew "
                << d;
        }
    }
}

TEST(SimTest, WindowedAppStreamsCorrectlyUnpipelined) {
    // Gaussian has real line-buffer and tap registers: the mapped
    // stream must equal the cycle-accurate reference exactly
    // (no PE pipelining, zero skew).
    Flow flow(apps::gaussianBlur(1));
    ASSERT_EQ(flow.spec.pipeline_stages, 0);
    expectWindowedStreamingCorrect(flow);
}

TEST(SimTest, PipelinedWindowedAppMatchesReferenceWithSkew) {
    // With pipelined PEs and branch-delay matching, the stream must
    // equal the reference shifted by the output's pipeline skew —
    // the window offsets themselves must be preserved (the
    // functional-vs-balancing register distinction).
    Flow flow(apps::gaussianBlur(1), /*pipeline_pes=*/true,
              /*target_period=*/0.6);
    ASSERT_GT(flow.spec.pipeline_stages, 0);
    expectWindowedStreamingCorrect(flow);
}

TEST(SimTest, PipelinedUnsharpWithRegisterFiles) {
    // Unsharp folds balancing chains into register files; skew
    // accounting must survive the RF substitution.
    Flow flow(apps::unsharp(1), /*pipeline_pes=*/true,
              /*target_period=*/0.6);
    expectWindowedStreamingCorrect(flow, 96);
}

/** Property sweep: windowed streaming correctness (pipelined, with
 * forced stages) across several applications. */
class StreamingSweepTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(StreamingSweepTest, PipelinedStreamMatchesReference) {
    const std::string name = GetParam();
    apps::AppInfo app = name == "gaussian" ? apps::gaussianBlur(1)
                        : name == "laplacian"
                            ? apps::laplacianPyramid(1)
                        : name == "mobilenet"
                            ? apps::mobilenetLayer(1)
                            : apps::unsharp(1);
    Flow flow(std::move(app), /*pipeline_pes=*/true,
              /*target_period=*/0.6);
    expectWindowedStreamingCorrect(flow, 72);
}

INSTANTIATE_TEST_SUITE_P(Apps, StreamingSweepTest,
                         ::testing::Values("gaussian", "laplacian",
                                           "mobilenet", "unsharp"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(SimTest, GaussianStreamsCorrectlyUnpipelined) {
    // Without PE pipelining the app graph's own registers (window
    // taps) still need correct streaming semantics — but the window
    // regs delay values, so the interpreter comparison only holds
    // for balanced graphs; gaussian's taps make outputs a function
    // of multiple time steps.  Use a pointwise app instead: unsharp
    // amplification chain on a single pixel has no cross-time taps.
    ir::GraphBuilder b;
    auto x = b.input("x");
    auto y = b.input("y");
    b.output(b.add(b.mul(x, b.constant(3)), y), "o");
    apps::AppInfo app;
    app.name = "pointwise";
    app.description = "test";
    app.domain = apps::Domain::kImageProcessing;
    app.graph = b.take();
    app.work_items_per_frame = 64;
    app.items_per_cycle = 1;

    Flow flow(std::move(app));
    expectStreamingCorrect(flow);
}

TEST(SimTest, PipelinedPointwiseMatchesWithLatency) {
    ir::GraphBuilder b;
    auto x = b.input("x");
    auto y = b.input("y");
    auto m = b.mul(x, x);
    auto s = b.add(m, b.mul(y, b.constant(7)));
    b.output(b.max(s, b.constant(0)), "o");
    apps::AppInfo app;
    app.name = "pointwise2";
    app.description = "test";
    app.domain = apps::Domain::kMachineLearning;
    app.graph = b.take();
    app.work_items_per_frame = 64;
    app.items_per_cycle = 1;

    Flow flow(std::move(app), /*pipeline_pes=*/true);
    ASSERT_TRUE(
        pipeline::delaysBalanced(flow.sel.mapped,
                                 flow.spec.pipeline_stages));
    expectStreamingCorrect(flow);
}

} // namespace
} // namespace apex::cgra
