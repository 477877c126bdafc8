#include <gtest/gtest.h>

#include <iterator>
#include <random>
#include <set>

#include "ir/builder.hpp"
#include "merging/merge.hpp"
#include "model/tech.hpp"
#include "pe/baseline.hpp"
#include "pe/functional.hpp"
#include "pe/spec.hpp"
#include "pe/verilog.hpp"
#include "pe/verilog_tb.hpp"

namespace apex::pe {
namespace {

using ir::GraphBuilder;
using ir::Op;

PeSpec
macPeSpec()
{
    GraphBuilder b;
    b.add(b.mul(b.input(), b.constant(0)), b.input());
    std::vector<int> map;
    auto dp = merging::datapathFromPattern(b.take(), &map);
    return makePeSpec(std::move(dp), "pe_mac");
}

TEST(PeSpecTest, MacSpecLayout) {
    const PeSpec spec = macPeSpec();
    EXPECT_EQ(spec.word_inputs.size(), 2u);
    EXPECT_EQ(spec.const_regs.size(), 1u);
    EXPECT_EQ(spec.word_outputs.size(), 1u);
    EXPECT_TRUE(spec.bit_outputs.empty());
    EXPECT_TRUE(spec.muxes.empty()) << "single-pattern PE needs no mux";
    EXPECT_TRUE(spec.multi_op_blocks.empty());
    // Config: one 16-bit constant only.
    EXPECT_EQ(spec.configBits(), 16);
}

TEST(PeSpecTest, AreaIsPositiveAndOrdered) {
    const auto &tech = model::defaultTech();
    const PeSpec mac = macPeSpec();
    const PeSpec base = baselinePe();
    EXPECT_GT(mac.area(tech), 0.0);
    EXPECT_GT(base.area(tech), mac.area(tech))
        << "baseline PE must dwarf a single-MAC PE";
}

TEST(PeSpecTest, BaselineAreaNearPaperCalibration) {
    // Table 2 reports 988.81 um^2 for the baseline PE core; the cost
    // model is calibrated to land near that value.
    const double area = baselinePe().area(model::defaultTech());
    EXPECT_GT(area, 850.0);
    EXPECT_LT(area, 1150.0);
}

TEST(PeFunctionalTest, MacComputesMultiplyAdd) {
    const PeSpec spec = macPeSpec();
    PeConfig cfg = defaultConfig(spec);
    cfg.const_val[0] = 3;

    PeFunctionalModel model(spec);
    PeInputs in;
    in.word = {10, 5};
    PeOutputs out;
    ASSERT_TRUE(model.evaluate(cfg, in, &out));
    ASSERT_TRUE(out.has_word);
    EXPECT_EQ(out.word, 10u * 3u + 5u);
}

TEST(PeFunctionalTest, BaselineExecutesEveryAluOp) {
    const PeSpec spec = baselinePe();
    PeFunctionalModel model(spec);

    // Find the addsub block and compute 9 - 4 via opcode kSub with
    // operands from the data inputs (mux select 0 = data input, the
    // first source in sorted order is the input node since the
    // baseline builder creates inputs first).
    PeConfig cfg = defaultConfig(spec);
    for (int b : spec.dp.blockIds()) {
        if (!spec.dp.nodes[b].ops.count(Op::kSub))
            continue;
        cfg.block_op[b] = Op::kSub;
        // Route both ports to the data inputs.
        for (int p = 0; p < 2; ++p) {
            const int mux = spec.muxIndexOf(b, p);
            ASSERT_GE(mux, 0);
            const auto &sources = spec.muxes[mux].sources;
            for (std::size_t s = 0; s < sources.size(); ++s) {
                if (spec.dp.nodes[sources[s]].kind ==
                    merging::DpNodeKind::kInput) {
                    cfg.mux_sel[mux] = static_cast<int>(s);
                }
            }
        }
        // Select this block on the word output.
        for (std::size_t s = 0; s < spec.word_outputs.size(); ++s)
            if (spec.word_outputs[s] == b)
                cfg.word_out_sel = static_cast<int>(s);
    }
    PeInputs in;
    in.word = {9, 4};
    in.bit = {0, 0, 0};
    PeOutputs out;
    ASSERT_TRUE(model.evaluate(cfg, in, &out));
    EXPECT_EQ(out.word, 5u);
}

TEST(PeFunctionalTest, RejectsOpOutsideBlock) {
    const PeSpec spec = macPeSpec();
    PeConfig cfg = defaultConfig(spec);
    // Force an op the block does not implement.
    for (int b : spec.dp.blockIds())
        if (spec.dp.nodes[b].ops.count(Op::kMul))
            cfg.block_op[b] = Op::kXor;
    PeFunctionalModel model(spec);
    PeInputs in;
    in.word = {1, 2};
    PeOutputs out;
    EXPECT_FALSE(model.evaluate(cfg, in, &out));
}

TEST(PeFunctionalTest, ReducedWidthMasksValues) {
    const PeSpec spec = macPeSpec();
    PeConfig cfg = defaultConfig(spec);
    cfg.const_val[0] = 3;
    PeFunctionalModel model(spec, /*width=*/4);
    PeInputs in;
    in.word = {10, 5}; // 10*3+5 = 35 = 0b100011 -> 3 in 4 bits
    PeOutputs out;
    ASSERT_TRUE(model.evaluate(cfg, in, &out));
    EXPECT_EQ(out.word, 35u & 0xF);
}

TEST(BaselineTest, SubsetDropsUnusedHardware) {
    const auto &tech = model::defaultTech();
    const PeSpec full = baselinePe();
    const PeSpec subset = baselineSubsetPe(
        {Op::kAdd, Op::kMul}, "pe_addmul");
    EXPECT_LT(subset.area(tech), full.area(tech));
    EXPECT_EQ(subset.dp.blockIds().size(), 2u);
    EXPECT_TRUE(subset.bit_inputs.empty());
    EXPECT_FALSE(subset.has_register_file);
}

TEST(BaselineTest, OpsUsedByExtractsComputeOps) {
    GraphBuilder b;
    b.output(b.max(b.mul(b.input(), b.input()), b.constant(0)));
    const auto ops = opsUsedBy(b.graph());
    EXPECT_EQ(ops.size(), 2u);
    EXPECT_TRUE(ops.count(Op::kMul));
    EXPECT_TRUE(ops.count(Op::kMax));
}

TEST(BaselineTest, ValidatesAndDescribes) {
    const PeSpec spec = baselinePe();
    std::string error;
    EXPECT_TRUE(spec.dp.validate(&error)) << error;
    const std::string desc = describe(spec, model::defaultTech());
    EXPECT_NE(desc.find("pe_base"), std::string::npos);
    EXPECT_NE(desc.find("mul"), std::string::npos);
}

TEST(VerilogTest, EmitsWellFormedModule) {
    const std::string v = emitVerilog(baselinePe());
    EXPECT_NE(v.find("module pe_base"), std::string::npos);
    EXPECT_NE(v.find("endmodule"), std::string::npos);
    EXPECT_NE(v.find("input  wire [15:0] data0"), std::string::npos);
    EXPECT_NE(v.find("output wire [15:0] res"), std::string::npos);
    EXPECT_NE(v.find("cfg_mux0"), std::string::npos);
    EXPECT_NE(v.find("case (cfg_op"), std::string::npos);
    // Balanced begin/end pairs (crude syntax check).
    std::size_t begins = 0, ends = 0, pos = 0;
    while ((pos = v.find("begin", pos)) != std::string::npos) {
        ++begins;
        pos += 5;
    }
    pos = 0;
    while ((pos = v.find("end", pos)) != std::string::npos) {
        ++ends;
        pos += 3;
    }
    // every "endmodule"/"endcase" also contains "end".
    EXPECT_GE(ends, begins);
}

TEST(VerilogTest, PipelinedPeHasRegisters) {
    PeSpec spec = macPeSpec();
    spec.pipeline_stages = 2;
    const std::string v = emitVerilog(spec);
    EXPECT_NE(v.find("posedge clk"), std::string::npos);
    EXPECT_NE(v.find("res_q1"), std::string::npos);
}

TEST(TestbenchTest, EmitsSelfCheckingVectors) {
    const PeSpec spec = macPeSpec();
    PeConfig cfg = defaultConfig(spec);
    cfg.const_val[0] = 3;
    const std::string tb =
        emitTestbench(spec, cfg, {.vectors = 8, .seed = 42});
    EXPECT_NE(tb.find("module pe_mac_tb"), std::string::npos);
    EXPECT_NE(tb.find(".cfg_const0(16'd3)"), std::string::npos);
    EXPECT_NE(tb.find("TB PASS (8 vectors)"), std::string::npos);
    EXPECT_NE(tb.find("$fatal"), std::string::npos);
    // Expected values must match the functional model: find one
    // "expected N" and re-check it.
    const auto pos = tb.find("expected ");
    ASSERT_NE(pos, std::string::npos);
}

TEST(TestbenchTest, PipelinedTbWaitsForLatency) {
    PeSpec spec = macPeSpec();
    spec.pipeline_stages = 2;
    const std::string tb =
        emitTestbench(spec, defaultConfig(spec), {.vectors = 4});
    EXPECT_NE(tb.find("repeat (2) @(posedge clk)"),
              std::string::npos);
}

TEST(TestbenchTest, ExpectedValuesComeFromGoldenModel) {
    // Deterministic seed -> the first vector is reproducible; verify
    // the emitted expected value equals the functional model's.
    const PeSpec spec = macPeSpec();
    PeConfig cfg = defaultConfig(spec);
    cfg.const_val[0] = 5;

    std::mt19937 rng(0x7B);
    std::uniform_int_distribution<std::uint32_t> dist(0, 0xFFFF);
    PeInputs in;
    in.word = {dist(rng), dist(rng)};
    PeOutputs out;
    PeFunctionalModel model(spec);
    ASSERT_TRUE(model.evaluate(cfg, in, &out));

    const std::string tb = emitTestbench(spec, cfg, {.vectors = 1});
    EXPECT_NE(tb.find("expected " + std::to_string(out.word)),
              std::string::npos);
}

TEST(MergedPeTest, MergedSpecExecutesBothPatterns) {
    const auto &tech = model::defaultTech();
    GraphBuilder b1; // add(mul(x, c), y)
    b1.add(b1.mul(b1.input(), b1.constant(0)), b1.input());
    GraphBuilder b2; // sub(x, y)
    b2.sub(b2.input(), b2.input());

    const auto mm =
        merging::mergePatterns({b1.take(), b2.take()}, tech);
    const PeSpec spec = makePeSpec(mm.merged, "pe_merged");
    PeFunctionalModel model(spec);

    // Pattern 2 path: configure the addsub block as sub with inputs.
    PeConfig cfg = defaultConfig(spec);
    for (int b : spec.dp.blockIds())
        if (spec.dp.nodes[b].ops.count(Op::kSub))
            cfg.block_op[b] = Op::kSub;
    // Route every mux port of the sub block to an input node if
    // possible.
    for (std::size_t m = 0; m < spec.muxes.size(); ++m) {
        const auto &site = spec.muxes[m];
        if (!spec.dp.nodes[site.node].ops.count(Op::kSub))
            continue;
        for (std::size_t s = 0; s < site.sources.size(); ++s)
            if (spec.dp.nodes[site.sources[s]].kind ==
                merging::DpNodeKind::kInput)
                cfg.mux_sel[m] = static_cast<int>(s);
    }
    PeInputs in;
    in.word.assign(spec.word_inputs.size(), 0);
    if (in.word.size() >= 2) {
        in.word[0] = 9;
        in.word[1] = 2;
    }
    PeOutputs out;
    ASSERT_TRUE(model.evaluate(cfg, in, &out));
    // The add/sub block merged both patterns' adders; with sub
    // selected and inputs routed, output is a difference of two of
    // the inputs (exact operand order depends on merge) — both 7 and
    // 0xFFF9 (= -7) prove the sub path works on input data.
    EXPECT_TRUE(out.word == 7u || out.word == 0xFFF9u ||
                out.word == 0u)
        << "unexpected sub result " << out.word;
}

/** A datapath node for hand-built specs. */
merging::DpNode
dpNode(merging::DpNodeKind kind, std::set<Op> ops = {},
       ir::ValueType type = ir::ValueType::kWord,
       bool is_output = false)
{
    merging::DpNode n;
    n.kind = kind;
    n.ops = std::move(ops);
    n.type = type;
    n.is_output = is_output;
    return n;
}

TEST(PeFunctionalTest, CycleBehindUnusedOutputIsRejected) {
    using merging::DpNodeKind;
    merging::Datapath dp;
    dp.nodes = {
        dpNode(DpNodeKind::kInput),                  // 0: x
        dpNode(DpNodeKind::kBlock, {Op::kAdd}),      // 1: a
        dpNode(DpNodeKind::kBlock, {Op::kAdd}),      // 2: b
        dpNode(DpNodeKind::kBlock, {Op::kAdd},       // 3: word out
               ir::ValueType::kWord, true),
        dpNode(DpNodeKind::kBlock, {Op::kSlt},       // 4: bit out
               ir::ValueType::kBit, true),
    };
    // a.0 <- {x, b}, b.0 <- {x, a}: a loop when both muxes pick the
    // other block.  Only the bit output reads it.
    dp.edges = {{0, 1, 0}, {2, 1, 0}, {0, 1, 1}, {0, 2, 0},
                {1, 2, 0}, {0, 2, 1}, {0, 3, 0}, {0, 3, 1},
                {1, 4, 0}, {0, 4, 1}};
    const PeSpec spec = makePeSpec(dp, "pe_loop");
    ASSERT_EQ(spec.word_outputs, std::vector<int>{3});
    ASSERT_EQ(spec.bit_outputs, std::vector<int>{4});
    ASSERT_EQ(spec.muxes.size(), 2u);

    PeConfig cfg = defaultConfig(spec);
    cfg.block_op[1] = cfg.block_op[2] = cfg.block_op[3] = Op::kAdd;
    cfg.block_op[4] = Op::kSlt;
    cfg.mux_sel = {1, 1}; // a <- b, b <- a
    PeInputs in;
    in.word = {21};
    const PeFunctionalModel model(spec);
    PeOutputs out;
    EXPECT_FALSE(model.evaluate(cfg, in, &out))
        << "the word output is acyclic, but evaluate checks both";
    std::uint64_t word = 0;
    ASSERT_TRUE(model.evaluateNode(cfg, in, 3, &word));
    EXPECT_EQ(word, 42u);

    cfg.mux_sel = {1, 0}; // a <- b <- x: acyclic
    ASSERT_TRUE(model.evaluate(cfg, in, &out));
    EXPECT_EQ(out.word, 42u);
    EXPECT_TRUE(out.has_bit);
    EXPECT_EQ(out.bit, 0u) << "a = 63 is not below x = 21";
}

TEST(PeFunctionalTest, EachLutBlockReadsItsOwnTable) {
    using merging::DpNodeKind;
    merging::Datapath dp;
    for (int i = 0; i < 3; ++i)
        dp.nodes.push_back(dpNode(DpNodeKind::kInput, {},
                                  ir::ValueType::kBit));
    for (int i = 0; i < 2; ++i) {
        dp.nodes.push_back(dpNode(DpNodeKind::kBlock, {Op::kLut},
                                  ir::ValueType::kBit, true));
        for (int p = 0; p < 3; ++p)
            dp.edges.push_back({p, 3 + i, p});
    }
    PeSpec spec = makePeSpec(dp, "pe_two_luts");
    ASSERT_EQ(spec.lut_blocks, (std::vector<int>{3, 4}));
    // A block named twice reads its first entry.
    spec.lut_blocks.push_back(3);

    PeConfig cfg = defaultConfig(spec);
    cfg.block_op[3] = cfg.block_op[4] = Op::kLut;
    cfg.lut_table = {0x96, 0x80, 0xFF}; // xor3, and3, (shadowed)
    const PeFunctionalModel model(spec);
    for (unsigned v = 0; v < 8; ++v) {
        PeInputs in;
        in.bit = {v >> 2 & 1, v >> 1 & 1, v & 1};
        PeOutputs out;
        for (int sel = 0; sel < 2; ++sel) {
            cfg.bit_out_sel = sel;
            ASSERT_TRUE(model.evaluate(cfg, in, &out));
            EXPECT_EQ(out.bit, (cfg.lut_table[sel] >> v) & 1)
                << "block " << 3 + sel << " inputs " << v;
        }
    }
}

TEST(PeFunctionalTest, PortWithoutMuxReadsLowestIdSource) {
    using merging::DpNodeKind;
    merging::Datapath dp;
    dp.nodes = {dpNode(DpNodeKind::kInput), dpNode(DpNodeKind::kInput),
                dpNode(DpNodeKind::kBlock, {Op::kSub},
                       ir::ValueType::kWord, true)};
    // Port 0 lists the higher-id source first.
    dp.edges = {{1, 2, 0}, {0, 2, 0}, {1, 2, 1}};
    PeSpec spec = makePeSpec(dp, "pe_no_mux");
    ASSERT_EQ(spec.muxes.size(), 1u);
    spec.muxes.clear(); // port 0 keeps two sources but no select

    PeConfig cfg = defaultConfig(spec);
    cfg.block_op[2] = Op::kSub;
    PeInputs in;
    in.word = {50, 8};
    const PeFunctionalModel model(spec);
    PeOutputs out;
    ASSERT_TRUE(model.evaluate(cfg, in, &out));
    EXPECT_EQ(out.word, 42u) << "port 0 must read node 0 (50)";
}

TEST(PeFunctionalTest, ReusedModelMatchesFreshModel) {
    const PeSpec spec = baselinePe();
    std::mt19937 rng(7);
    auto pick = [&](int n) {
        return static_cast<int>(rng() % static_cast<unsigned>(n));
    };
    for (int width : {3, ir::kWordWidth}) {
        const PeFunctionalModel reused(spec, width);
        int accepted = 0;
        for (int trial = 0; trial < 500; ++trial) {
            PeConfig cfg = defaultConfig(spec);
            // One select in eight is out of range.
            for (std::size_t m = 0; m < spec.muxes.size(); ++m)
                cfg.mux_sel[m] =
                    pick(static_cast<int>(spec.muxes[m].sources.size()) +
                         1);
            for (int b : spec.dp.blockIds()) {
                const auto &ops = spec.dp.nodes[b].ops;
                auto it = ops.begin();
                std::advance(it, pick(static_cast<int>(ops.size())));
                cfg.block_op[b] = *it;
            }
            for (auto &c : cfg.const_val)
                c = rng() & 0xFFFF;
            for (auto &t : cfg.lut_table)
                t = rng() & 0xFF;
            cfg.word_out_sel =
                pick(static_cast<int>(spec.word_outputs.size()));
            cfg.bit_out_sel =
                pick(static_cast<int>(spec.bit_outputs.size()));
            PeInputs in;
            for (std::size_t i = 0; i < spec.word_inputs.size(); ++i)
                in.word.push_back(rng() & 0xFFFF);
            for (std::size_t i = 0; i < spec.bit_inputs.size(); ++i)
                in.bit.push_back(rng() & 1);

            PeOutputs got, want;
            const bool ok = reused.evaluate(cfg, in, &got);
            ASSERT_EQ(ok, PeFunctionalModel(spec, width)
                              .evaluate(cfg, in, &want));
            EXPECT_EQ(got.word, want.word);
            EXPECT_EQ(got.bit, want.bit);
            EXPECT_EQ(got.has_word, want.has_word);
            EXPECT_EQ(got.has_bit, want.has_bit);
            accepted += ok;
        }
        // Both outcomes are exercised.
        EXPECT_GT(accepted, 0);
        EXPECT_LT(accepted, 500);
    }
}

} // namespace
} // namespace apex::pe
