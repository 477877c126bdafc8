#ifndef APEX_CORE_EVALUATE_H_
#define APEX_CORE_EVALUATE_H_

#include <string>

#include "cgra/metrics.hpp"
#include "core/deadline.hpp"
#include "core/explorer.hpp"
#include "core/status.hpp"
#include "runtime/cache.hpp"
#include "runtime/thread_pool.hpp"

/**
 * @file
 * Three-level evaluation of a (application, PE variant) pair,
 * mirroring Sec. 5.3:
 *
 *  - post-mapping    : rewrite rules + instruction selection only —
 *                      PE counts, PE-core area and energy (minutes-
 *                      scale results in the paper; Fig. 11/14);
 *  - post-PnR        : placement + routing on the fabric — adds the
 *                      interconnect (SB/CB), memory tiles and
 *                      routing-tile accounting (Fig. 15);
 *  - post-pipelining : PE and application pipelining before PnR —
 *                      adds timing, runtime and performance/mm^2
 *                      (Fig. 16, Tables 2/3).
 */

namespace apex::core {

/** Evaluation depth. */
enum class EvalLevel {
    kPostMapping,
    kPostPnr,
    kPostPipelining,
};

/** Everything the benchmarks report. */
struct EvalResult {
    bool success = false;
    /** Typed outcome with context chain (which app/variant, after how
     * many attempts). */
    Status status;
    /** Full trail of the run: every placement retry, routing-track
     * escalation and fabric growth, as info/error records. */
    Diagnostics diagnostics;
    /** Placement attempts consumed (seed retries x fabric growths). */
    int pnr_attempts = 0;
    /** The cell deadline expired and this result came from the cheap
     * fallback knobs (see runSweep): valid, but possibly on a larger
     * fabric / with fewer retries than the configured evaluation. */
    bool degraded = false;

    // --- Post-mapping --------------------------------------------
    int pe_count = 0;          ///< PE instances used.
    double pe_area = 0.0;      ///< PE core area x count (um^2).
    double pe_energy = 0.0;    ///< PE-core energy per output item, pJ.

    // --- Post-place-and-route -------------------------------------
    int fabric_width = 0;
    int fabric_height = 0;
    double sb_area = 0.0;      ///< Switch boxes (um^2).
    double cb_area = 0.0;      ///< Connection boxes (um^2).
    double mem_area = 0.0;     ///< Memory tiles (um^2).
    double cgra_area = 0.0;    ///< Total application footprint.
    double sb_energy = 0.0;    ///< pJ per output item.
    double cb_energy = 0.0;
    double mem_energy = 0.0;
    double cgra_energy = 0.0;  ///< Total pJ per output item.
    cgra::Utilization util;

    // --- Post-pipelining -------------------------------------------
    int pipeline_stages = 0;   ///< PE pipeline depth chosen.
    double period_ns = 0.0;    ///< Achieved clock period.
    double latency_cycles = 0; ///< Input->output fill latency.
    double runtime_ms = 0.0;   ///< One frame / layer.
    double perf_per_mm2 = 0.0; ///< Items per ms per mm^2 (x1e-6 for
                               ///< frames: see frames_per_ms_mm2).
    double frames_per_ms_mm2 = 0.0; ///< Frames/ms/mm^2 (Table 2).
    double total_energy_uj = 0.0;   ///< Energy for one frame, uJ.

    /** Raw functional-unit energy of the app (ASIC floor), uJ. */
    double raw_compute_energy_uj = 0.0;
    /** Word-level op events per frame (FPGA comparator input). */
    double op_events = 0.0;
};

/** Evaluation knobs. */
struct EvalOptions {
    int fabric_width = 32;
    int fabric_height = 16;
    /** Grow the fabric when the app does not fit (keeps the flow
     * usable for large unrolls). */
    bool auto_grow_fabric = true;
    /** Fabric doublings tried when auto_grow_fabric is set (1 means
     * the initial size only).  The degraded retry path lowers this. */
    int max_fabric_growths = 5;
    unsigned placer_seed = 0xCA11;
    /** Placement attempts per fabric size, each with a derived seed;
     * capacity failures skip straight to fabric growth. */
    int place_retries = 3;
    /** Routing-track escalations (+2 tracks each) tried on congestion
     * before giving up on a placement. */
    int route_track_escalations = 2;
    /**
     * Optional content-addressed memoization cache.  Successful
     * evaluations are stored under a key fingerprinting the app
     * graph, the variant (datapath, patterns, pipelining), the
     * evaluation level, the tech model and every knob above, so a
     * hit is guaranteed to reproduce the sequential result bit for
     * bit.  Failures are never cached (they are retried).
     */
    runtime::ArtifactCache *cache = nullptr;
    /**
     * Wall-clock bound for this evaluation, enforced through the P&R
     * ladder (growth/retry boundaries and the router's rip-up loop).
     * Expiry yields a kTimeout result.  Deliberately NOT part of the
     * cache key: a deadline only decides whether a result is computed,
     * never its value, so cached artifacts stay reusable across runs
     * with different budgets.
     */
    Deadline deadline;
};

/** Run the flow for @p app on @p variant up to @p level. */
EvalResult evaluate(const apps::AppInfo &app, const PeVariant &variant,
                    EvalLevel level, const model::TechModel &tech,
                    const EvalOptions &options = {});

/**
 * The paper's "PE Spec" stopping rule (Sec. 5): starting from PE 1,
 * keep merging the next-ranked subgraph while the post-mapping
 * area-energy product of the application improves; return the last
 * improving variant ("the most specialized PE possible without
 * increasing the area or energy of the application").
 *
 * A candidate that fails to build (mining or merge) ends the walk
 * with its Status when the walk reaches it; a candidate that builds
 * but fails evaluation scores as infinitely bad and stops the walk.
 *
 * With @p pool (parallelism > 1), every candidate k is built and
 * scored concurrently and the stopping rule is applied to the score
 * sequence afterwards — speculative work past the stopping point is
 * wasted, but the chosen variant (or the reported failure) is
 * identical to the sequential scan because each score depends only
 * on its own candidate.
 */
Result<PeVariant>
bestSpecializedVariant(const apps::AppInfo &app,
                       const Explorer &explorer,
                       const model::TechModel &tech,
                       runtime::ThreadPool *pool = nullptr,
                       const EvalOptions &options = {});

/**
 * Serialize a *successful* EvalResult for the artifact cache
 * (diagnostics and failure state are deliberately excluded: failures
 * are never cached).  Doubles round-trip exactly via hex floats, so
 * a cache hit is bit-identical to the evaluation that produced it.
 */
std::string serializeEvalResult(const EvalResult &r);

/** Inverse of serializeEvalResult(); kParseError on any corruption. */
Result<EvalResult> parseEvalResult(const std::string &text);

/**
 * Cache key for evaluate(): a content fingerprint of every input
 * that can influence the result (see EvalOptions::cache).
 */
std::string evalCacheKey(const apps::AppInfo &app,
                         const PeVariant &variant, EvalLevel level,
                         const model::TechModel &tech,
                         const EvalOptions &options);

/**
 * Energy one PE instance spends per cycle executing @p rule on
 * @p spec: decode/clock overhead + active blocks + idle toggling of
 * the unused blocks + input muxing (used by both the homogeneous and
 * heterogeneous evaluators).
 */
double peInstanceEnergy(const mapper::RewriteRule &rule,
                        const pe::PeSpec &spec,
                        const model::TechModel &tech);

/**
 * Fingerprint of every TechModel field evaluate() can read.  Shared
 * by the eval cache key and the sweep journal header, so a resumed
 * sweep can prove it is replaying cells of the same configuration.
 */
std::uint64_t techFingerprint(const model::TechModel &tech);

} // namespace apex::core

#endif // APEX_CORE_EVALUATE_H_
