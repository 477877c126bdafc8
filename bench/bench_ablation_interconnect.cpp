/**
 * Ablation: interconnect provisioning.  Sec. 2.3 argues the SB/CB
 * cost makes PE I/O a first-order design axis; this bench sweeps the
 * per-link track count and reports routability, detour cost and
 * router effort for a congested application (Harris on the baseline
 * PE), plus the modeled SB area at each width.
 */
#include "bench/common.hpp"
#include "cgra/place.hpp"
#include "cgra/route.hpp"
#include "mapper/rewrite.hpp"
#include "mapper/select.hpp"
#include "pe/baseline.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();

    bench::header("Ablation: routing tracks per link");

    const auto app = apps::harrisCorner();
    const pe::PeSpec spec = pe::baselinePe();
    mapper::RewriteRuleSynthesizer synth(spec);
    mapper::InstructionSelector selector(synth.synthesizeLibrary({}));
    const auto sel = selector.map(app.graph);
    if (!sel.success) {
        std::printf("  mapping failed: %s\n",
                    sel.status.toString().c_str());
        return 1;
    }

    const cgra::Fabric fabric(32, 32);
    const auto placement = cgra::place(fabric, sel.mapped);
    if (!placement.success) {
        std::printf("  placement failed: %s\n",
                    placement.status.toString().c_str());
        return 1;
    }

    std::printf("  %-7s %-9s %8s %10s %12s %14s\n", "tracks",
                "routed?", "hops", "iters", "overflow",
                "SB area scale");
    for (int tracks = 2; tracks <= 8; ++tracks) {
        cgra::RouterOptions options;
        options.tracks = tracks;
        const auto routing = cgra::route(fabric, placement, options);
        std::printf("  %-7d %-9s %8d %10d %12d %13.2fx\n", tracks,
                    routing.success ? "yes" : "NO",
                    routing.total_hops, routing.iterations,
                    routing.register_overflow,
                    static_cast<double>(tracks) / tech.sb_tracks);
    }
    bench::note("the paper's fabric uses 5 tracks/side/direction; "
                "below the routability knee the router pays detours "
                "and iterations, above it SB area is wasted");
    return 0;
}
