/**
 * Ablation: register-chain -> register-file cutoff (Sec. 4.3: "the
 * designer can adjust the cutoff point").  Sweep the cutoff on a
 * pipelined application and report interconnect registers vs RF
 * slots — the trade the paper's Fig. 9 transformation manages.
 */
#include "bench/common.hpp"
#include "mapper/rewrite.hpp"
#include "mapper/select.hpp"
#include "pe/baseline.hpp"
#include "pipeline/app_pipeline.hpp"
#include "pipeline/pe_pipeline.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();

    bench::header("Ablation: RF-FIFO substitution cutoff (Fig. 9)");

    const auto app = apps::unsharp();
    pe::PeSpec spec = pe::baselinePe();
    mapper::RewriteRuleSynthesizer synth(spec);
    mapper::InstructionSelector selector(synth.synthesizeLibrary({}));
    const auto base_sel = selector.map(app.graph);
    if (!base_sel.success) {
        std::printf("  mapping failed: %s\n", base_sel.status.toString().c_str());
        return 1;
    }
    pipeline::pipelinePe(spec, tech);

    std::printf("  %-8s %8s %8s %10s %12s\n", "cutoff", "#Reg",
                "#RF", "RF slots", "balanced?");
    for (int cutoff = 1; cutoff <= 8; ++cutoff) {
        auto mapped = base_sel.mapped; // fresh copy per sweep point
        pipeline::AppPipelineOptions options;
        options.rf_cutoff = cutoff;
        pipeline::pipelineApplication(&mapped, spec.pipeline_stages,
                                      options);
        int rf_nodes = 0, rf_slots = 0;
        for (const auto &n : mapped.nodes) {
            if (n.kind == mapper::MappedKind::kRegFile) {
                ++rf_nodes;
                rf_slots += n.depth;
            }
        }
        std::printf("  %-8d %8d %8d %10d %12s\n", cutoff,
                    mapped.count(mapper::MappedKind::kReg), rf_nodes,
                    rf_slots,
                    pipeline::delaysBalanced(mapped,
                                             spec.pipeline_stages)
                        ? "yes"
                        : "NO");
    }

    // No-RF configuration: everything stays in the interconnect.
    {
        auto mapped = base_sel.mapped;
        pipeline::AppPipelineOptions options;
        options.use_register_files = false;
        pipeline::pipelineApplication(&mapped, spec.pipeline_stages,
                                      options);
        std::printf("  %-8s %8d %8d %10d %12s\n", "off",
                    mapped.count(mapper::MappedKind::kReg), 0, 0,
                    pipeline::delaysBalanced(mapped,
                                             spec.pipeline_stages)
                        ? "yes"
                        : "NO");
    }
    bench::note("low cutoffs drain the interconnect registers into "
                "PE-tile register files (better routability); high "
                "cutoffs leave short chains on the tracks; "
                "functional latency is preserved at every point");
    return 0;
}
