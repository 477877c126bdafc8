#include "core/evaluate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "cgra/bitstream.hpp"
#include "core/fault.hpp"
#include "ir/signature.hpp"
#include "ir/validate.hpp"
#include "cgra/place.hpp"
#include "cgra/route.hpp"
#include "mapper/select.hpp"
#include "pipeline/app_pipeline.hpp"
#include "pipeline/pe_pipeline.hpp"
#include "pipeline/timing.hpp"
#include "runtime/telemetry.hpp"

namespace apex::core {

using mapper::MappedKind;

// ---------------------------------------------------------------------
// Artifact-cache keys and EvalResult serialization
// ---------------------------------------------------------------------

namespace {

/** Content fingerprint of a PE specification: everything evaluate()
 * reads from it (datapath structure, config space, pipelining). */
std::uint64_t
specFingerprint(const pe::PeSpec &spec)
{
    ir::Fnv64 f;
    f.mix(static_cast<std::uint64_t>(spec.dp.nodes.size()));
    for (const merging::DpNode &n : spec.dp.nodes) {
        f.mix(static_cast<std::uint64_t>(n.kind));
        f.mix(static_cast<std::uint64_t>(n.cls));
        f.mix(static_cast<std::uint64_t>(n.type));
        f.mix(static_cast<std::uint64_t>(n.is_output));
        f.mix(static_cast<std::uint64_t>(n.ops.size()));
        for (const ir::Op op : n.ops) // std::set: sorted, stable
            f.mix(static_cast<std::uint64_t>(op));
    }
    f.mix(static_cast<std::uint64_t>(spec.dp.edges.size()));
    for (const merging::DpEdge &e : spec.dp.edges) {
        f.mix(static_cast<std::uint64_t>(e.src));
        f.mix(static_cast<std::uint64_t>(e.dst));
        f.mix(static_cast<std::uint64_t>(e.port));
    }
    auto mix_ints = [&f](const std::vector<int> &v) {
        f.mix(static_cast<std::uint64_t>(v.size()));
        for (const int i : v)
            f.mix(static_cast<std::uint64_t>(i));
    };
    f.mix(static_cast<std::uint64_t>(spec.muxes.size()));
    for (const pe::MuxSite &m : spec.muxes) {
        f.mix(static_cast<std::uint64_t>(m.node));
        f.mix(static_cast<std::uint64_t>(m.port));
        mix_ints(m.sources);
    }
    mix_ints(spec.multi_op_blocks);
    mix_ints(spec.const_regs);
    mix_ints(spec.word_inputs);
    mix_ints(spec.bit_inputs);
    mix_ints(spec.word_outputs);
    mix_ints(spec.bit_outputs);
    mix_ints(spec.lut_blocks);
    f.mix(static_cast<std::uint64_t>(spec.has_register_file));
    f.mix(static_cast<std::uint64_t>(spec.pipeline_stages));
    return f.digest();
}

} // namespace

std::uint64_t
techFingerprint(const model::TechModel &tech)
{
    ir::Fnv64 f;
    for (const model::BlockCost &b : tech.block) {
        f.mixDouble(b.area);
        f.mixDouble(b.energy);
        f.mixDouble(b.delay);
    }
    f.mixDouble(tech.mux_input_area);
    f.mixDouble(tech.mux_input_area_bit);
    f.mixDouble(tech.mux_energy);
    f.mixDouble(tech.mux_delay);
    f.mixDouble(tech.config_bit_area);
    f.mixDouble(tech.decode_area_per_op);
    f.mixDouble(tech.decode_energy);
    f.mixDouble(tech.config_bit_energy);
    f.mixDouble(tech.decode_energy_per_op);
    f.mixDouble(tech.idle_toggle_factor);
    f.mixDouble(tech.pipe_reg_area);
    f.mixDouble(tech.pipe_reg_energy);
    f.mixDouble(tech.reg_setup_delay);
    f.mixDouble(tech.rf_area);
    f.mixDouble(tech.rf_energy);
    f.mix(static_cast<std::uint64_t>(tech.sb_tracks));
    f.mixDouble(tech.sb_area);
    f.mixDouble(tech.sb_energy_per_hop);
    f.mixDouble(tech.sb_hop_delay);
    f.mixDouble(tech.cb_area_per_input);
    f.mixDouble(tech.cb_area_per_input_bit);
    f.mixDouble(tech.cb_energy);
    f.mixDouble(tech.mem_tile_area);
    f.mixDouble(tech.mem_energy_access);
    f.mixDouble(tech.target_period);
    return f.digest();
}

std::string
evalCacheKey(const apps::AppInfo &app, const PeVariant &variant,
             EvalLevel level, const model::TechModel &tech,
             const EvalOptions &options)
{
    ir::Fnv64 f;
    f.mix(ir::fingerprint(app.graph));
    f.mixDouble(app.work_items_per_frame);
    f.mix(static_cast<std::uint64_t>(app.items_per_cycle));
    f.mix(specFingerprint(variant.spec));
    f.mix(static_cast<std::uint64_t>(variant.patterns.size()));
    for (const ir::Graph &p : variant.patterns)
        f.mix(ir::fingerprint(p));
    f.mix(static_cast<std::uint64_t>(level));
    f.mix(techFingerprint(tech));
    f.mix(static_cast<std::uint64_t>(options.fabric_width));
    f.mix(static_cast<std::uint64_t>(options.fabric_height));
    f.mix(static_cast<std::uint64_t>(options.auto_grow_fabric));
    f.mix(static_cast<std::uint64_t>(options.max_fabric_growths));
    f.mix(static_cast<std::uint64_t>(options.placer_seed));
    f.mix(static_cast<std::uint64_t>(options.place_retries));
    f.mix(
        static_cast<std::uint64_t>(options.route_track_escalations));
    // options.deadline is intentionally excluded: it never changes a
    // computed result, only whether one is computed at all.

    // Human-readable prefix for cache introspection; the hash is the
    // actual content address.
    std::ostringstream os;
    os << "eval/v2/" << app.name << '/' << variant.name << '/'
       << static_cast<int>(level) << '/' << std::hex << f.digest();
    return os.str();
}

namespace {

void
appendDouble(std::ostringstream &os, const char *name, double v)
{
    // %a round-trips IEEE doubles exactly: cache hits are
    // bit-identical to the run that populated the cache.
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    os << name << ' ' << buf << '\n';
}

} // namespace

std::string
serializeEvalResult(const EvalResult &r)
{
    std::ostringstream os;
    os << "apexeval 2\n";
    os << "pnr_attempts " << r.pnr_attempts << '\n';
    os << "degraded " << (r.degraded ? 1 : 0) << '\n';
    os << "pe_count " << r.pe_count << '\n';
    appendDouble(os, "pe_area", r.pe_area);
    appendDouble(os, "pe_energy", r.pe_energy);
    os << "fabric_width " << r.fabric_width << '\n';
    os << "fabric_height " << r.fabric_height << '\n';
    appendDouble(os, "sb_area", r.sb_area);
    appendDouble(os, "cb_area", r.cb_area);
    appendDouble(os, "mem_area", r.mem_area);
    appendDouble(os, "cgra_area", r.cgra_area);
    appendDouble(os, "sb_energy", r.sb_energy);
    appendDouble(os, "cb_energy", r.cb_energy);
    appendDouble(os, "mem_energy", r.mem_energy);
    appendDouble(os, "cgra_energy", r.cgra_energy);
    os << "util_pes " << r.util.pes << '\n';
    os << "util_mems " << r.util.mems << '\n';
    os << "util_rf_entries " << r.util.rf_entries << '\n';
    os << "util_ios " << r.util.ios << '\n';
    os << "util_regs " << r.util.regs << '\n';
    os << "util_routing_tiles " << r.util.routing_tiles << '\n';
    os << "util_sb_hops " << r.util.sb_hops << '\n';
    os << "pipeline_stages " << r.pipeline_stages << '\n';
    appendDouble(os, "period_ns", r.period_ns);
    appendDouble(os, "latency_cycles", r.latency_cycles);
    appendDouble(os, "runtime_ms", r.runtime_ms);
    appendDouble(os, "perf_per_mm2", r.perf_per_mm2);
    appendDouble(os, "frames_per_ms_mm2", r.frames_per_ms_mm2);
    appendDouble(os, "total_energy_uj", r.total_energy_uj);
    appendDouble(os, "raw_compute_energy_uj",
                 r.raw_compute_energy_uj);
    appendDouble(os, "op_events", r.op_events);
    return os.str();
}

Result<EvalResult>
parseEvalResult(const std::string &text)
{
    std::istringstream is(text);
    std::string magic;
    int version = 0;
    if (!(is >> magic >> version) || magic != "apexeval" ||
        version != 2)
        return Status(ErrorCode::kParseError,
                      "bad apexeval header");

    EvalResult r;
    int degraded = 0;
    std::map<std::string, int *> ints{
        {"pnr_attempts", &r.pnr_attempts},
        {"degraded", &degraded},
        {"pe_count", &r.pe_count},
        {"fabric_width", &r.fabric_width},
        {"fabric_height", &r.fabric_height},
        {"util_pes", &r.util.pes},
        {"util_mems", &r.util.mems},
        {"util_rf_entries", &r.util.rf_entries},
        {"util_ios", &r.util.ios},
        {"util_regs", &r.util.regs},
        {"util_routing_tiles", &r.util.routing_tiles},
        {"util_sb_hops", &r.util.sb_hops},
        {"pipeline_stages", &r.pipeline_stages},
    };
    std::map<std::string, double *> doubles{
        {"pe_area", &r.pe_area},
        {"pe_energy", &r.pe_energy},
        {"sb_area", &r.sb_area},
        {"cb_area", &r.cb_area},
        {"mem_area", &r.mem_area},
        {"cgra_area", &r.cgra_area},
        {"sb_energy", &r.sb_energy},
        {"cb_energy", &r.cb_energy},
        {"mem_energy", &r.mem_energy},
        {"cgra_energy", &r.cgra_energy},
        {"period_ns", &r.period_ns},
        {"latency_cycles", &r.latency_cycles},
        {"runtime_ms", &r.runtime_ms},
        {"perf_per_mm2", &r.perf_per_mm2},
        {"frames_per_ms_mm2", &r.frames_per_ms_mm2},
        {"total_energy_uj", &r.total_energy_uj},
        {"raw_compute_energy_uj", &r.raw_compute_energy_uj},
        {"op_events", &r.op_events},
    };

    std::size_t parsed = 0;
    std::string name, value;
    while (is >> name >> value) {
        if (auto it = ints.find(name); it != ints.end()) {
            *it->second = std::atoi(value.c_str());
        } else if (auto dt = doubles.find(name);
                   dt != doubles.end()) {
            char *end = nullptr;
            *dt->second = std::strtod(value.c_str(), &end);
            if (end == value.c_str())
                return Status(ErrorCode::kParseError,
                              "bad double for '" + name + "'");
        } else {
            return Status(ErrorCode::kParseError,
                          "unknown apexeval field '" + name + "'");
        }
        ++parsed;
    }
    if (parsed != ints.size() + doubles.size())
        return Status(ErrorCode::kParseError,
                      "truncated apexeval record");
    r.degraded = degraded != 0;
    r.success = true;
    return r;
}

double
peInstanceEnergy(const mapper::RewriteRule &rule,
                 const pe::PeSpec &spec,
                 const model::TechModel &tech)
{
    double energy = spec.overheadEnergyPerCycle(tech);

    // Active datapath blocks of this rule.
    std::set<int> active;
    double active_energy = 0.0;
    for (ir::NodeId id = 0; id < rule.pattern.size(); ++id) {
        const ir::Op op = rule.pattern.op(id);
        if (!ir::opIsCompute(op))
            continue;
        const int dp_node = rule.node_to_dp[id];
        if (active.insert(dp_node).second) {
            active_energy +=
                model::blockCost(tech,
                                 spec.dp.nodes[dp_node].cls)
                    .energy;
        }
    }
    energy += active_energy;

    // Idle blocks still toggle.
    for (int b : spec.dp.blockIds()) {
        if (!active.count(b)) {
            energy += tech.idle_toggle_factor *
                      model::blockCost(tech, spec.dp.nodes[b].cls)
                          .energy;
        }
    }

    energy += tech.mux_energy *
              static_cast<double>(rule.placeholders.size());
    energy += 0.005 * static_cast<double>(rule.const_bindings.size());
    return energy;
}

EvalResult
evaluate(const apps::AppInfo &app, const PeVariant &variant,
         EvalLevel level, const model::TechModel &tech,
         const EvalOptions &options)
{
    EvalResult r;
    // Cell attribution: every span below (mapper, P&R, pipeliner,
    // and anything they call) inherits this "app/variant" scope, so
    // the per-cell stage-time breakdown can group by it.
    telemetry::ScopedCell cell_scope;
    if (telemetry::tracingEnabled())
        cell_scope.set(app.name + "/" + variant.name);
    APEX_SPAN("evaluate",
              {{"app", app.name}, {"variant", variant.name}});
    telemetry::StageTimer eval_timer(
        telemetry::histogram("apex.eval.ms"));
    const std::string pair_context =
        "evaluating '" + app.name + "' on '" + variant.name + "'";
    if (Status fault = checkFault(FaultStage::kEvaluate);
        !fault.ok()) {
        r.status = std::move(fault).withContext(pair_context);
        r.diagnostics.error("evaluate", r.status);
        return r;
    }

    // Validate the application graph at the pipeline boundary: a
    // corrupt graph must be rejected here, not crash the mapper.
    if (Status s = ir::validate(app.graph); !s.ok()) {
        r.status = std::move(s).withContext(pair_context);
        r.diagnostics.error("validate", r.status);
        return r;
    }

    // --- Artifact-cache lookup -------------------------------------
    // After the fault hook and validation so injected faults keep
    // their per-stage call ordinals and a corrupt graph is rejected
    // even when a stale entry exists for its fingerprint.
    std::string cache_key;
    if (options.cache != nullptr) {
        cache_key = evalCacheKey(app, variant, level, tech, options);
        if (auto hit = options.cache->get(cache_key)) {
            if (Result<EvalResult> cached = parseEvalResult(*hit);
                cached.ok()) {
                EvalResult out = std::move(cached).value();
                out.diagnostics.info(
                    "cache",
                    "evaluation served from artifact cache");
                return out;
            }
            // Format skew that slipped past the disk checksum:
            // recompute and overwrite on success.
        }
    }
    const auto memoize = [&](const EvalResult &ok_result) {
        if (options.cache != nullptr)
            options.cache->put(cache_key,
                               serializeEvalResult(ok_result));
    };

    // --- Compile: rewrite rules + instruction selection -----------
    if (Status s = options.deadline.check("instruction selection");
        !s.ok()) {
        r.status = std::move(s).withContext(pair_context);
        r.diagnostics.error("deadline", r.status);
        return r;
    }
    pe::PeSpec spec = variant.spec; // mutable copy (pipelining)
    mapper::RewriteRuleSynthesizer synth(spec);
    const auto rules = synth.synthesizeLibrary(variant.patterns);
    mapper::InstructionSelector selector(rules);
    mapper::SelectionResult sel = selector.map(app.graph);
    if (!sel.success) {
        r.status = std::move(sel.status).withContext(pair_context);
        r.diagnostics.error("map", r.status);
        return r;
    }

    // --- Post-mapping metrics --------------------------------------
    r.pe_count = sel.peCount();
    r.pe_area = spec.area(tech) * r.pe_count;

    const double invocations_per_item = 1.0 / app.items_per_cycle;
    double pe_energy_per_cycle = 0.0;
    for (const mapper::MappedNode &n : sel.mapped.nodes) {
        if (n.kind == MappedKind::kPe)
            pe_energy_per_cycle +=
                peInstanceEnergy(rules[n.rule], spec, tech);
    }
    r.pe_energy = pe_energy_per_cycle * invocations_per_item;

    // ASIC floor + FPGA comparator inputs.
    double raw_per_cycle = 0.0;
    int compute_nodes = 0;
    for (ir::NodeId id = 0; id < app.graph.size(); ++id) {
        const ir::Op op = app.graph.op(id);
        if (!ir::opIsCompute(op))
            continue;
        ++compute_nodes;
        raw_per_cycle +=
            model::blockCost(tech, model::blockClassOf(op)).energy;
    }
    const double frames_invocations =
        app.work_items_per_frame / app.items_per_cycle;
    r.raw_compute_energy_uj = raw_per_cycle * frames_invocations *
                              1e-6;
    r.op_events = static_cast<double>(compute_nodes) *
                  frames_invocations;

    // Timing of the unpipelined PE (informative at every level).
    const double unpipelined_period =
        pipeline::analyzeTiming(spec, tech).critical_path;
    r.period_ns = unpipelined_period;

    if (level == EvalLevel::kPostMapping) {
        r.success = true;
        memoize(r);
        return r;
    }

    // --- Optional pipelining (before PnR: registers must route) ----
    if (level == EvalLevel::kPostPipelining) {
        const auto pe_pipe = pipeline::pipelinePe(spec, tech);
        r.pipeline_stages = spec.pipeline_stages;
        r.period_ns = pe_pipe.period;
        const auto app_pipe = pipeline::pipelineApplication(
            &sel.mapped, spec.pipeline_stages, {});
        r.latency_cycles = app_pipe.max_latency;
    }

    // --- Place and route --------------------------------------------
    // Resilience ladder, cheapest remedy first: retry placement with
    // a derived seed, escalate routing tracks on congestion, then
    // grow the fabric.  Every attempt lands in r.diagnostics.
    int width = options.fabric_width;
    int height = options.fabric_height;
    cgra::PlacementResult placement;
    cgra::RouteResult routing;
    Status last_failure;
    bool pnr_ok = false;
    bool out_of_time = false;
    const int growths =
        options.auto_grow_fabric
            ? std::max(1, options.max_fabric_growths)
            : 1;
    const int seed_tries = std::max(1, options.place_retries);
    const int escalations =
        std::max(0, options.route_track_escalations);
    cgra::RouterOptions base_ropt;
    // The router's rip-up loop is the longest uninterruptible stretch
    // of the ladder, so it polls the deadline itself.
    base_ropt.deadline = options.deadline;

    for (int growth = 0; growth < growths && !pnr_ok; ++growth) {
        if (Status s = options.deadline.check(
                "fabric growth " + std::to_string(growth + 1));
            !s.ok()) {
            last_failure = std::move(s);
            r.diagnostics.error("deadline", last_failure,
                                r.pnr_attempts);
            out_of_time = true;
            break;
        }
        if (growth > 0) {
            if (growth % 2 == 1)
                height *= 2;
            else
                width *= 2;
            std::ostringstream os;
            os << "growing fabric to " << width << 'x' << height;
            r.diagnostics.info("place", os.str());
        }
        const cgra::Fabric fabric(width, height);
        for (int retry = 0; retry < seed_tries && !pnr_ok;
             ++retry) {
            if (Status s = options.deadline.check(
                    "placement attempt " +
                    std::to_string(r.pnr_attempts + 1));
                !s.ok()) {
                last_failure = std::move(s);
                r.diagnostics.error("deadline", last_failure,
                                    r.pnr_attempts);
                out_of_time = true;
                break;
            }
            cgra::PlacerOptions popt;
            popt.seed = options.placer_seed +
                        0x9E3779B9u * static_cast<unsigned>(retry);
            ++r.pnr_attempts;
            placement = cgra::place(fabric, sel.mapped, popt);
            if (!placement.success) {
                last_failure = placement.status;
                r.diagnostics.error("place", last_failure,
                                    r.pnr_attempts);
                // No seed conjures missing tiles: grow instead.
                if (last_failure.code() ==
                    ErrorCode::kBudgetExhausted)
                    break;
                continue;
            }
            if (r.pnr_attempts > 1)
                r.diagnostics.info("place", "placement succeeded",
                                   r.pnr_attempts);
            for (int esc = 0; esc <= escalations; ++esc) {
                cgra::RouterOptions ropt = base_ropt;
                ropt.tracks = base_ropt.tracks + 2 * esc;
                if (esc > 0)
                    telemetry::counter(
                        "apex.route.track_escalations")
                        .add(1);
                routing = cgra::route(fabric, placement, ropt);
                if (routing.success) {
                    if (esc > 0) {
                        std::ostringstream os;
                        os << "routing succeeded with "
                           << ropt.tracks
                           << " tracks (escalation " << esc << ")";
                        r.diagnostics.info("route", os.str(),
                                           r.pnr_attempts);
                    }
                    pnr_ok = true;
                    break;
                }
                last_failure = routing.status;
                r.diagnostics.error("route", last_failure,
                                    r.pnr_attempts);
                // A timed-out route will not improve with more
                // tracks: stop the whole ladder.
                if (last_failure.code() == ErrorCode::kTimeout) {
                    out_of_time = true;
                    break;
                }
            }
            if (out_of_time)
                break;
        }
        if (out_of_time)
            break;
    }
    if (!pnr_ok) {
        std::ostringstream os;
        os << "place-and-route (" << r.pnr_attempts
           << " placement attempt(s), final fabric " << width << 'x'
           << height << ")";
        r.status = std::move(last_failure)
                       .withContext(os.str())
                       .withContext(pair_context);
        return r;
    }
    r.fabric_width = width;
    r.fabric_height = height;

    // Application-level static timing.  Pre-pipelining, unpipelined
    // PEs chain combinationally through unregistered interconnect —
    // only explicit registers (window regs, memories, RF FIFOs, IO)
    // break the path; this is what the paper's 6.9x-12.5x
    // post-pipelining speedups are measured against.  Post-
    // pipelining, PEs are staged and every SB track is registered.
    if (level == EvalLevel::kPostPipelining) {
        r.period_ns = std::max(
            r.period_ns, tech.sb_hop_delay + tech.reg_setup_delay);
    } else {
        const double pe_delay =
            unpipelined_period - tech.reg_setup_delay;
        std::vector<std::vector<int>> in_edges(
            sel.mapped.nodes.size());
        for (std::size_t e = 0; e < placement.edges.size(); ++e)
            in_edges[placement.edges[e].dst].push_back(
                static_cast<int>(e));
        std::vector<double> arrival(sel.mapped.nodes.size(), 0.0);
        double worst = unpipelined_period;
        for (int id : sel.mapped.topoOrder()) {
            if (!cgra::isPlaceable(sel.mapped.nodes[id].kind))
                continue;
            double in_arrival = 0.0;
            for (int e : in_edges[id]) {
                const auto &edge = placement.edges[e];
                const double wire =
                    routing.paths[e].size() * tech.sb_hop_delay;
                // A registered edge launches from its last register.
                const double from =
                    edge.regs > 0
                        ? wire * 0.5
                        : arrival[edge.src] + wire;
                in_arrival = std::max(in_arrival, from);
            }
            const bool is_pe =
                sel.mapped.nodes[id].kind == MappedKind::kPe;
            arrival[id] = is_pe ? in_arrival + pe_delay : 0.0;
            worst = std::max(worst,
                             in_arrival + (is_pe ? pe_delay : 0.0) +
                                 tech.reg_setup_delay);
        }
        r.period_ns = worst;
    }

    const cgra::Fabric fabric(width, height);
    r.util = cgra::utilizationOf(fabric, sel.mapped, placement,
                                 routing);

    // --- Post-PnR area ----------------------------------------------
    const int rf_tiles =
        sel.mapped.count(MappedKind::kRegFile);
    const int sb_tiles = r.util.pes + r.util.mems + rf_tiles +
                         r.util.routing_tiles;
    r.sb_area = sb_tiles * tech.sb_area;
    r.cb_area =
        r.pe_count * (static_cast<double>(spec.word_inputs.size()) *
                          tech.cb_area_per_input +
                      static_cast<double>(spec.bit_inputs.size()) *
                          tech.cb_area_per_input_bit) +
        (r.util.mems + rf_tiles) * tech.cb_area_per_input;
    r.mem_area = r.util.mems * tech.mem_tile_area;
    const double rf_area = rf_tiles * tech.rf_area;
    r.cgra_area =
        r.pe_area + rf_area + r.sb_area + r.cb_area + r.mem_area;

    // --- Post-PnR energy (per output item) ---------------------------
    r.sb_energy = routing.total_hops * tech.sb_energy_per_hop *
                  invocations_per_item;
    r.cb_energy = static_cast<double>(placement.edges.size()) *
                  tech.cb_energy * invocations_per_item;
    r.mem_energy = r.util.mems * tech.mem_energy_access *
                   invocations_per_item;
    const double reg_energy =
        (r.util.regs * tech.pipe_reg_energy +
         r.util.rf_entries * tech.pipe_reg_energy * 0.4) *
        invocations_per_item;
    r.cgra_energy = r.pe_energy + r.sb_energy + r.cb_energy +
                    r.mem_energy + reg_energy;

    // --- Performance --------------------------------------------------
    const double cycles = frames_invocations + r.latency_cycles;
    r.runtime_ms = cycles * r.period_ns * 1e-6;
    const double area_mm2 = r.cgra_area * 1e-6;
    if (r.runtime_ms > 0.0 && area_mm2 > 0.0) {
        r.frames_per_ms_mm2 = 1.0 / (r.runtime_ms * area_mm2);
        r.perf_per_mm2 =
            r.frames_per_ms_mm2 * app.work_items_per_frame;
    }
    r.total_energy_uj =
        r.cgra_energy * app.work_items_per_frame * 1e-6;

    r.success = true;
    memoize(r);
    return r;
}

Result<PeVariant>
bestSpecializedVariant(const apps::AppInfo &app,
                       const Explorer &explorer,
                       const model::TechModel &tech,
                       runtime::ThreadPool *pool,
                       const EvalOptions &options)
{
    const int max_k = explorer.options().max_merged_subgraphs;
    auto score = [&](const PeVariant &v) {
        const EvalResult r =
            evaluate(app, v, EvalLevel::kPostMapping, tech,
                     options);
        return r.success ? r.pe_area * r.pe_energy : 1e300;
    };

    PeVariant best;
    if (pool != nullptr && pool->parallelism() > 1) {
        // Speculative parallel scan: build and score every candidate
        // k concurrently (k = 0 is the subset PE), then replay the
        // sequential stopping rule over the score sequence.  Each
        // score depends only on its own candidate, so the selected
        // variant — or the build failure the walk reaches first — is
        // identical to the sequential walk; work past the stopping
        // point is wasted but off the critical path.
        std::vector<Result<PeVariant>> candidates(
            static_cast<std::size_t>(max_k) + 1,
            Status(ErrorCode::kInternal, "candidate not built"));
        std::vector<double> scores(candidates.size(), 1e300);
        runtime::parallelFor(
            pool, static_cast<int>(candidates.size()), [&](int k) {
                candidates[k] = k == 0
                                    ? explorer.subsetVariant(app)
                                    : explorer.specializedVariant(
                                          app, k);
                if (candidates[k].ok())
                    scores[k] = score(*candidates[k]);
            });
        std::size_t best_k = 0;
        for (std::size_t k = 1; k < candidates.size(); ++k) {
            if (!candidates[k].ok())
                return candidates[k].status();
            if (scores[k] >= scores[best_k])
                break; // merging more subgraphs stopped paying off
            best_k = k;
        }
        best = std::move(candidates[best_k]).value();
    } else {
        best = explorer.subsetVariant(app);
        double best_score = score(best);
        for (int k = 1; k <= max_k; ++k) {
            auto candidate = explorer.specializedVariant(app, k);
            if (!candidate.ok())
                return candidate.status();
            const double s = score(*candidate);
            if (s >= best_score)
                break; // merging more subgraphs stopped paying off
            best_score = s;
            best = std::move(candidate).value();
        }
    }
    best.name = "pe_spec_" + app.name;
    best.spec.name = best.name;
    return best;
}

} // namespace apex::core
