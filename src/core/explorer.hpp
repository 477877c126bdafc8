#ifndef APEX_CORE_EXPLORER_H_
#define APEX_CORE_EXPLORER_H_

#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "core/status.hpp"
#include "merging/merge.hpp"
#include "mining/miner.hpp"
#include "model/tech.hpp"
#include "pe/spec.hpp"
#include "runtime/thread_pool.hpp"

/**
 * @file
 * The APEX design-space-exploration driver (Fig. 6): application
 * frequent-subgraph analysis, PE-variant generation by subgraph
 * merging, and the paper's Sec. 5 variant recipe:
 *
 *  - PE Base : the Fig. 1 general-purpose PE;
 *  - PE 1    : PE Base restricted to the ops the application uses;
 *  - PE k    : PE 1 merged with the top k-1 mined subgraphs in MIS
 *              order;
 *  - PE IP / PE ML : PE 1 over the op-union of a domain's apps,
 *              merged with top subgraphs from every app;
 *  - PE Spec : the most specialized per-application variant.
 */

namespace apex::core {

/** A candidate PE design produced by the explorer. */
struct PeVariant {
    std::string name;
    pe::PeSpec spec;
    /** The merged subgraphs — fed to rewrite-rule synthesis so the
     * compiler can exploit the specialized datapath. */
    std::vector<ir::Graph> patterns;
    /** Clique searches during construction that stopped before
     * optimality (node budget or deadline): the variant is correct
     * but may waste area, so sweeps surface it as a warning instead
     * of letting it pass silently. */
    int non_optimal_merges = 0;
    /** Of those, searches cut short by the merge deadline. */
    int merge_timeouts = 0;
    /** Mining levels whose pattern frontier hit the miner's
     * max_patterns_per_level safety valve while this variant was
     * built (summed over apps for domain variants).  Non-zero means
     * candidate patterns were silently dropped — the variant is
     * valid but may have missed a better subgraph, so sweeps surface
     * it as a warning (same policy as non_optimal_merges). */
    int mine_capped_levels = 0;
};

/** Exploration knobs. */
struct ExplorerOptions {
    mining::MinerOptions miner{.min_support = 3,
                               .max_pattern_nodes = 4,
                               .mine_constants = true,
                               .max_patterns_per_level = 256};
    /** Patterns must re-occur at least this often without overlap. */
    int min_mis = 2;
    /** Knobs (clique budget, deadline) for every datapath merge the
     * explorer performs while building variants. */
    merging::MergeOptions merge;
    /** Maximum subgraphs merged into the most specialized PE. */
    int max_merged_subgraphs = 3;
    /**
     * Worker pool shared by mining (per-level candidate expansion)
     * and domain analysis (per-app mining fan-out).  Null, or
     * parallelism <= 1, keeps every path on the original sequential
     * schedule; results are identical either way.
     */
    runtime::ThreadPool *pool = nullptr;
};

/** APEX explorer: analysis + PE-variant generation. */
class Explorer {
  public:
    explicit Explorer(const model::TechModel &tech =
                          model::defaultTech(),
                      ExplorerOptions options = {});

    /**
     * Frequent-subgraph analysis of one application (Sec. 3): mining,
     * MIS analysis, ranking.  Only single-sink patterns with >= 2
     * compute nodes and MIS >= min_mis survive — those are the PE
     * candidates.  Mining failures (including injected faults and
     * unexpected exceptions) come back as kMiningFailed.
     *
     * @param stats Optional miner counters for the run (levels,
     * candidates, capped levels, ...); left zeroed on failure paths
     * that never reach the miner.
     */
    Result<std::vector<mining::MinedPattern>>
    analyze(const ir::Graph &app,
            mining::MineStats *stats = nullptr) const;

    /** PE Base. */
    PeVariant baselineVariant() const;

    /** PE 1 for @p app. */
    PeVariant subsetVariant(const apps::AppInfo &app) const;

    /**
     * PE (1+k) for @p app: PE 1 merged with the top @p k subgraphs.
     * k = 0 degenerates to PE 1.  Mining and merge failures come back
     * typed (kMiningFailed / kMergeInfeasible).
     */
    Result<PeVariant> specializedVariant(const apps::AppInfo &app,
                                         int k) const;

    /** The most specialized variant (k = max_merged_subgraphs). */
    Result<PeVariant> specVariant(const apps::AppInfo &app) const;

    /**
     * Domain PE: op-union subset PE merged with the top
     * @p per_app subgraphs of every application in @p domain_apps.
     * A mining failure reports the first failing app in
     * @p domain_apps order, whatever the pool's parallelism.
     */
    Result<PeVariant>
    domainVariant(const std::vector<apps::AppInfo> &domain_apps,
                  int per_app, const std::string &name) const;

    const model::TechModel &tech() const { return tech_; }
    const ExplorerOptions &options() const { return options_; }

  private:
    /** Top-k mergeable pattern graphs of an app, in MIS order. */
    Result<std::vector<ir::Graph>>
    topPatterns(const ir::Graph &app, int k,
                mining::MineStats *stats = nullptr) const;

    const model::TechModel &tech_;
    ExplorerOptions options_;
};

} // namespace apex::core

#endif // APEX_CORE_EXPLORER_H_
