/**
 * Quickstart: the Sec. 3 walk-through on the Fig. 3 convolution.
 *
 *  1. Build the dataflow graph of an unrolled convolution.
 *  2. Mine its frequent subgraphs (Fig. 3) and rank them by maximal-
 *     independent-set size (Fig. 4).
 *  3. Merge the top subgraphs into one datapath (Fig. 5).
 *  4. Turn the datapath into a PE specification, synthesize rewrite
 *     rules, and map the application onto the new PE.
 *  5. Emit the PE's Verilog.
 *
 * Run:  ./build/examples/quickstart
 */
#include <cstdio>

#include "ir/builder.hpp"
#include "ir/dot.hpp"
#include "mapper/select.hpp"
#include "merging/merge.hpp"
#include "mining/miner.hpp"
#include "model/tech.hpp"
#include "pe/baseline.hpp"
#include "pe/verilog.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();

    // 1. The Fig. 3 convolution:
    //    ((((i0*w0 + i1*w1) + i2*w2) + i3*w3) + c).
    ir::GraphBuilder b;
    std::vector<ir::Value> ins, ws;
    for (int i = 0; i < 4; ++i) {
        ins.push_back(b.input("i" + std::to_string(i)));
        ws.push_back(b.constant(2 * i + 1, "w" + std::to_string(i)));
    }
    ir::Value acc = b.mul(ins[0], ws[0]);
    for (int i = 1; i < 4; ++i)
        acc = b.add(acc, b.mul(ins[i], ws[i]));
    acc = b.add(acc, b.constant(7, "c"));
    b.output(acc, "out");
    const ir::Graph app = b.take();

    std::printf("== application graph (%zu nodes) ==\n%s\n",
                app.size(), ir::toDot(app, "conv").c_str());

    // 2. Frequent subgraph mining + MIS ranking.
    mining::FrequentSubgraphMiner miner(
        {.min_support = 2, .max_pattern_nodes = 3});
    auto patterns = miner.mine(app);
    mining::rankPatterns(patterns);
    std::printf("== mined %zu patterns (top 5 by MIS) ==\n",
                patterns.size());
    for (std::size_t i = 0; i < std::min<std::size_t>(5, patterns.size());
         ++i) {
        const auto &p = patterns[i];
        std::printf("  #%zu: %d nodes, frequency %d, MIS %d\n", i,
                    p.core_size, p.frequency, p.mis_size);
    }

    // 3. Merge the two top multi-node patterns into one datapath.
    std::vector<ir::Graph> to_merge;
    for (const auto &p : patterns) {
        if (p.core_size >= 2 && to_merge.size() < 2)
            to_merge.push_back(p.pattern);
    }
    const auto merged = merging::mergePatterns(to_merge, tech);
    std::printf("\n== merged datapath: %zu nodes, saved %.1f um^2 ==\n",
                merged.merged.nodes.size(), merged.saved_area);

    // 4. PE spec + compiler + mapping.
    const pe::PeSpec seed = pe::baselineSubsetPe(
        pe::opsUsedBy(app), "pe_quickstart");
    const auto grown = merging::mergeIntoDatapath(
        seed.dp, to_merge, tech, nullptr);
    const pe::PeSpec spec =
        pe::makePeSpec(grown.merged, "pe_quickstart");
    std::printf("%s\n", pe::describe(spec, tech).c_str());

    mapper::RewriteRuleSynthesizer synth(spec);
    mapper::InstructionSelector selector(
        synth.synthesizeLibrary(to_merge));
    const auto sel = selector.map(app);
    if (!sel.success) {
        std::printf("mapping failed: %s\n", sel.status.toString().c_str());
        return 1;
    }
    std::printf("== mapped: %d PEs for %zu compute ops ==\n",
                sel.peCount(), app.computeNodes().size());

    // Functional check: mapped graph == interpreter.
    const auto got = mapper::executeMapped(
        sel.mapped, selector.rules(), spec, {10, 20, 30, 40});
    std::printf("conv(10,20,30,40) on the CGRA PE = %llu\n",
                static_cast<unsigned long long>(got.at(0)));

    // 5. RTL.
    std::printf("\n== Verilog (first lines) ==\n");
    const std::string verilog = pe::emitVerilog(spec);
    std::printf("%s...\n", verilog.substr(0, 600).c_str());
    return 0;
}
