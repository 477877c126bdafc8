#include "core/sweep.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "core/journal.hpp"
#include "ir/signature.hpp"
#include "ir/validate.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/worker_pool.hpp"

namespace apex::core {

namespace {

/** Record a failed (app, variant) pair — or a whole app when
 * @p variant is empty — and keep sweeping. */
void
recordFailure(ExplorationReport &report, const std::string &app,
              const std::string &variant, Status status, int attempts)
{
    StageFailure f;
    f.app = app;
    f.variant = variant;
    f.stage = std::string(stageForCode(status.code()));
    f.status = std::move(status);
    f.attempts = std::max(1, attempts);

    DiagnosticRecord record;
    record.severity = Severity::kError;
    record.stage = f.stage;
    record.code = f.status.code();
    record.message = f.status.toString();
    record.attempt = f.attempts;
    record.scope = variant.empty() ? app : app + "/" + variant;
    report.diagnostics.report(std::move(record));

    report.failures.push_back(std::move(f));
    ++report.skipped;
}

/** Fixed identity of the (up to) three recipe cells per app, so the
 * task graph can be built before variant construction runs. */
enum RecipeCell { kBaseline = 0, kSubset = 1, kSpecialized = 2 };

static_assert(kJournalCellsPerApp == 3,
              "journal cell layout mirrors the recipe cells");

/** Run state of one (app, variant) evaluation slot; what the recipe
 * produced for it is the app record's CellInfo.  Written only by its
 * task (or by the sequential journal-replay pass before the graph
 * runs). */
struct Cell {
    std::optional<PeVariant> variant; ///< Set by the build task.
    bool ran = false;              ///< Evaluation outcome available.
    bool replayed = false;         ///< ... restored from the journal.
    bool deadline_skipped = false; ///< Sweep deadline beat the task.
    EvalResult result;
};

/** Per-application slots; written only by this app's tasks.  The
 * build outcome is kept as the journal record it is appended as. */
struct AppSlot {
    SweepJournal::AppRecord rec;
    bool build_ran = false;
    bool skip_build = false; ///< Fully replayed; build is redundant.
    bool deadline_skipped = false;
    std::array<Cell, kJournalCellsPerApp> cells;
};

using Clock = std::chrono::steady_clock;

long
elapsedUs(Clock::time_point from)
{
    return static_cast<long>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - from)
            .count());
}

/** Move recipe cell @p j's variant @p v into @p slot, recording in
 * its CellInfo the fields the report needs even after the variant
 * itself is gone (or was never rebuilt). */
void
setVariant(AppSlot &slot, int j, PeVariant v)
{
    SweepJournal::CellInfo &info = slot.rec.cells[j];
    info.has_variant = true;
    info.variant = v.name;
    info.non_optimal_merges = v.non_optimal_merges;
    info.merge_timeouts = v.merge_timeouts;
    info.mine_capped_levels = v.mine_capped_levels;
    slot.cells[j].variant = std::move(v);
}

} // namespace

// Declared in sweep.hpp; see the header comment.  Defined outside the
// anonymous namespace because the service layer keys request
// coalescing on it.
std::uint64_t
sweepFingerprint(const std::vector<apps::AppInfo> &apps,
                 const Explorer &explorer,
                 const model::TechModel &tech,
                 const SweepOptions &options)
{
    ir::Fnv64 f;
    f.mix(static_cast<std::uint64_t>(options.level));
    f.mix(static_cast<std::uint64_t>(
        (options.include_baseline ? 1 : 0) |
        (options.include_subset ? 2 : 0) |
        (options.include_specialized ? 4 : 0)));
    const EvalOptions &e = options.eval;
    f.mix(static_cast<std::uint64_t>(e.fabric_width));
    f.mix(static_cast<std::uint64_t>(e.fabric_height));
    f.mix(static_cast<std::uint64_t>(e.auto_grow_fabric));
    f.mix(static_cast<std::uint64_t>(e.max_fabric_growths));
    f.mix(static_cast<std::uint64_t>(e.placer_seed));
    f.mix(static_cast<std::uint64_t>(e.place_retries));
    f.mix(static_cast<std::uint64_t>(e.route_track_escalations));
    f.mix(techFingerprint(tech));
    const ExplorerOptions &x = explorer.options();
    f.mix(static_cast<std::uint64_t>(x.miner.min_support));
    f.mix(static_cast<std::uint64_t>(x.miner.max_pattern_nodes));
    f.mix(static_cast<std::uint64_t>(x.miner.mine_constants));
    f.mix(static_cast<std::uint64_t>(x.miner.max_patterns_per_level));
    f.mix(static_cast<std::uint64_t>(x.miner.metric));
    // max_embeddings shapes results (truncated support lists), so it
    // is part of the identity.
    f.mix(static_cast<std::uint64_t>(x.miner.max_embeddings));
    f.mix(static_cast<std::uint64_t>(x.min_mis));
    f.mix(static_cast<std::uint64_t>(x.max_merged_subgraphs));
    f.mix(static_cast<std::uint64_t>(x.merge.clique_budget));
    f.mixDouble(x.merge.input_merge_weight);
    f.mixDouble(x.merge.input_merge_weight_bit);
    f.mix(static_cast<std::uint64_t>(apps.size()));
    for (const apps::AppInfo &app : apps) {
        f.mix(app.name);
        f.mix(ir::fingerprint(app.graph));
        f.mixDouble(app.work_items_per_frame);
        f.mix(static_cast<std::uint64_t>(app.items_per_cycle));
    }
    return f.digest();
}


namespace {

/** Cheap fallback knobs for the degraded retry of a timed-out cell:
 * one placement attempt, no track escalation, at most two fabric
 * growths, bounded only by the sweep deadline. */
EvalOptions
degradedOptions(const EvalOptions &base, const Deadline &sweep)
{
    EvalOptions cheap = base;
    cheap.deadline = sweep;
    cheap.place_retries = 1;
    cheap.route_track_escalations = 0;
    cheap.max_fabric_growths = 2;
    return cheap;
}

/**
 * One guarded cell evaluation: exceptions become failure results, and
 * a cell whose *cell* budget ran out while the sweep still has time
 * is retried once with the cheap fallback knobs (degraded path).
 * Shared verbatim by the in-process eval tasks and the process-mode
 * worker children, which is what keeps the two modes byte-identical.
 */
EvalResult
evaluateCellGuarded(const apps::AppInfo &app, const PeVariant &variant,
                    const model::TechModel &tech,
                    const EvalOptions &eval_opts,
                    const SweepOptions &options)
{
    const auto attempt = [&](const EvalOptions &opts) {
        EvalResult r;
        try {
            r = evaluate(app, variant, options.level, tech, opts);
        } catch (const ApexError &e) {
            r.status = e.status().withContext(
                "evaluating '" + app.name + "' on '" + variant.name +
                "'");
        } catch (const std::exception &e) {
            r.status = Status(
                ErrorCode::kInternal,
                std::string("unexpected exception: ") + e.what());
        }
        return r;
    };
    const bool cell_bounded = options.cell_deadline_ms > 0;
    EvalOptions local = eval_opts;
    local.deadline =
        cell_bounded
            ? Deadline::earliest(
                  options.deadline,
                  Deadline::after(options.cell_deadline_ms))
            : options.deadline;
    EvalResult r = attempt(local);
    // Graceful degradation: the *cell* budget ran out but the sweep
    // still has time — salvage the cell with the cheap knobs instead
    // of failing.
    if (!r.success && r.status.code() == ErrorCode::kTimeout &&
        cell_bounded && !options.deadline.expired()) {
        EvalResult first = std::move(r);
        r = attempt(degradedOptions(eval_opts, options.deadline));
        if (r.success)
            r.degraded = true;
        r.pnr_attempts += first.pnr_attempts;
        Diagnostics trail;
        trail.merge(first.diagnostics);
        trail.warning("deadline",
                      "cell deadline expired; retrying with "
                      "degraded knobs (1 placement attempt, "
                      "no track escalation, <= 2 fabric "
                      "growths)");
        trail.merge(r.diagnostics);
        r.diagnostics = std::move(trail);
    }
    return r;
}

/** The process-wide `apex.sweep.*` counters SweepRuntimeStats reads.
 * runSweep snapshots them on entry and reports the delta, so the old
 * per-sweep semantics survive the registry migration. */
struct SweepCounters {
    telemetry::Counter &tasks =
        telemetry::counter("apex.sweep.tasks");
    telemetry::Counter &build_us =
        telemetry::counter("apex.sweep.build_us");
    telemetry::Counter &eval_us =
        telemetry::counter("apex.sweep.eval_us");
    telemetry::Counter &cells_replayed =
        telemetry::counter("apex.sweep.cells_replayed");
    telemetry::Counter &cells_degraded =
        telemetry::counter("apex.sweep.cells_degraded");
    telemetry::Counter &non_optimal_cliques =
        telemetry::counter("apex.sweep.non_optimal_cliques");
    telemetry::Counter &mine_capped_levels =
        telemetry::counter("apex.sweep.mine_capped_levels");
};

SweepCounters &
sweepCounters()
{
    static SweepCounters *counters = new SweepCounters();
    return *counters;
}

/**
 * What one runSweep call threads through its four stages — replay,
 * plan, execute, assemble: the caller's inputs, the per-app slots
 * (each written only by its own tasks, or by the sequential stages),
 * and the journal and counters the cell-completion path feeds.
 */
struct SweepState {
    const std::vector<apps::AppInfo> &apps;
    const Explorer &explorer;
    const model::TechModel &tech;
    const SweepOptions &options;
    EvalOptions eval_opts; ///< options.eval plus options.cache.
    std::vector<AppSlot> slots;
    SweepJournal journal{};
    SweepCounters &counters = sweepCounters();
    std::atomic<int> progress_done{0}; ///< Fresh cells finished.
};

bool
cancelRequested(const SweepOptions &options)
{
    return options.cancel != nullptr && options.cancel->load();
}

/** Whether @p cell still needs a fresh evaluation — the one gate both
 * isolate modes pass every cell through.  Replayed cells, cells with
 * no variant and a cancelled sweep answer no (assembly records the
 * cancellation); an expired sweep deadline answers no and marks the
 * cell deadline-skipped. */
bool
cellToEvaluate(const SweepOptions &options, Cell &cell)
{
    if (cell.ran || !cell.variant.has_value() ||
        cancelRequested(options))
        return false;
    if (options.deadline.expired()) {
        cell.deadline_skipped = true;
        return false;
    }
    return true;
}

/** The one cell-completion path, for either isolate mode: store
 * @p result in the slot, journal it under the supervisor's key,
 * report progress and count the work.  Thread-safe across cells (the
 * journal serializes appends; each cell is finished once). */
void
finishCell(SweepState &st, std::size_t app, int j, EvalResult result,
           long eval_us)
{
    const std::string &name = st.slots[app].rec.cells[j].variant;
    Cell &cell = st.slots[app].cells[j];
    st.counters.tasks.add(1);
    st.counters.eval_us.add(eval_us);
    SweepJournal::CellRecord rec;
    rec.app = static_cast<int>(app);
    rec.cell = j;
    rec.variant = name;
    rec.result = std::move(result);
    st.journal.appendCell(rec);
    cell.result = std::move(rec.result);
    cell.ran = true;
    if (!st.options.progress)
        return;
    SweepProgress p;
    p.done = st.progress_done.fetch_add(1) + 1;
    p.total = static_cast<int>(st.apps.size()) * kJournalCellsPerApp;
    p.app = st.apps[app].name;
    p.variant = name;
    st.options.progress(p);
}

/**
 * Replay: open the journal (when configured) and restore its outcomes
 * into the slots, sequentially, before any task runs.  A
 * fully-journaled app skips variant construction entirely; a
 * partially-journaled one re-runs the (deterministic) build to
 * reconstruct the variants its missing cells need, but keeps the
 * replayed evaluations.
 *
 * @return the journal-open status.  A failure leaves the journal
 * inactive; the sweep still runs (completed work is worth reporting),
 * and runSweep surfaces the broken durability promise in
 * SweepOutcome::durability.
 */
Status
replayJournal(SweepState &st)
{
    Status opened;
    if (!st.options.journal_dir.empty()) {
        opened = st.journal
                     .open(st.options.journal_dir,
                           sweepFingerprint(st.apps, st.explorer,
                                            st.tech, st.options),
                           st.apps.size(), st.options.resume)
                     .withContext("opening sweep journal in '" +
                                  st.options.journal_dir + "'");
    }
    for (std::size_t i = 0; i < st.apps.size(); ++i) {
        const SweepJournal::AppRecord *rec = st.journal.appRecord(i);
        if (rec == nullptr)
            continue;
        AppSlot &slot = st.slots[i];
        slot.rec = *rec;
        bool missing_eval = false;
        for (int j = 0; j < kJournalCellsPerApp; ++j) {
            if (!rec->cells[j].has_variant)
                continue;
            const SweepJournal::CellRecord *done =
                st.journal.cellRecord(i, j);
            if (done != nullptr) {
                Cell &cell = slot.cells[j];
                cell.ran = true;
                cell.replayed = true;
                cell.result = done->result;
            } else {
                missing_eval = true;
            }
        }
        if (!missing_eval) {
            slot.skip_build = true;
            slot.build_ran = true;
        }
    }
    return opened;
}

/** Build task body: validate app @p i and construct its recipe
 * variants into its slot, then journal the build outcome. */
void
buildApp(SweepState &st, std::size_t i, runtime::TaskGraph &graph)
{
    const apps::AppInfo &app = st.apps[i];
    const SweepOptions &options = st.options;
    AppSlot &slot = st.slots[i];
    if (cancelRequested(options)) {
        graph.cancel();
        return;
    }
    if (options.deadline.expired()) {
        slot.deadline_skipped = true;
        return;
    }
    telemetry::ScopedCell cell_scope;
    if (telemetry::tracingEnabled())
        cell_scope.set(app.name);
    // Pool lanes do not inherit the caller's trace id; each task
    // re-installs it for its own spans.
    telemetry::ScopedTraceId trace_scope;
    if (options.trace_id != 0)
        trace_scope.set(options.trace_id);
    APEX_SPAN("build", {{"app", app.name}});
    telemetry::StageTimer timer(telemetry::histogram("apex.build.ms"));
    const Clock::time_point t0 = Clock::now();
    st.counters.tasks.add(1);
    slot.build_ran = true;

    // Boundary validation: a corrupt application skips only itself,
    // never the sweep.
    SweepJournal::AppRecord &rec = slot.rec;
    if (Status s = ir::validate(app.graph); !s.ok()) {
        rec.validate_status = std::move(s).withContext(
            "validating application '" + app.name + "'");
    } else {
        if (options.include_baseline)
            setVariant(slot, kBaseline, st.explorer.baselineVariant());
        if (options.include_subset)
            setVariant(slot, kSubset, st.explorer.subsetVariant(app));
        if (options.include_specialized) {
            const int k = st.explorer.options().max_merged_subgraphs;
            auto v = st.explorer.specializedVariant(app, k);
            if (v.ok()) {
                setVariant(slot, kSpecialized, std::move(v).value());
            } else {
                rec.spec_failed = true;
                rec.spec_name =
                    "pe" + std::to_string(k + 1) + "_" + app.name;
                rec.spec_status = v.status();
            }
        }
    }
    // A partially replayed app rebuilds only to reconstruct its
    // variants: its record is already on disk.
    if (st.journal.appRecord(i) == nullptr) {
        rec.app = static_cast<int>(i);
        st.journal.appendApp(rec);
    }
    st.counters.build_us.add(elapsedUs(t0));
}

/** Eval task body (in-process isolation): evaluate cell @p j of app
 * @p i on the calling lane. */
void
evaluateInProcess(SweepState &st, std::size_t i, int j)
{
    Cell &cell = st.slots[i].cells[j];
    if (!cellToEvaluate(st.options, cell))
        return;
    telemetry::ScopedTraceId trace_scope;
    if (st.options.trace_id != 0)
        trace_scope.set(st.options.trace_id);
    const Clock::time_point t0 = Clock::now();
    EvalResult r = evaluateCellGuarded(st.apps[i], *cell.variant,
                                       st.tech, st.eval_opts,
                                       st.options);
    finishCell(st, i, j, std::move(r), elapsedUs(t0));
}

/**
 * Plan: one build task per app replay left unbuilt and — in-process
 * isolation only — one eval task per cell replay left unfilled,
 * depending only on its own app's build, so builds and evaluations of
 * different apps overlap (no barrier).  Every task writes only its
 * own slot; ordering-sensitive work waits for assembly.  A replayed
 * app or cell gets no task: its task would have returned before any
 * fault hook, deadline poll, journal append or progress report.
 */
void
planTasks(SweepState &st, runtime::TaskGraph &graph)
{
    for (std::size_t i = 0; i < st.apps.size(); ++i) {
        const AppSlot &slot = st.slots[i];
        if (slot.skip_build)
            continue;
        const std::string &name = st.apps[i].name;
        const runtime::TaskId build =
            graph.add("build:" + name, [&st, &graph, i]() -> Status {
                buildApp(st, i, graph);
                return Status::okStatus();
            });
        // Forked workers evaluate only after every build has run
        // (executeForked).
        if (st.options.isolate != IsolateMode::kInProcess)
            continue;
        for (int j = 0; j < kJournalCellsPerApp; ++j) {
            if (slot.cells[j].ran)
                continue;
            graph.add(
                "eval:" + name + "#" + std::to_string(j),
                [&st, i, j]() -> Status {
                    evaluateInProcess(st, i, j);
                    return Status::okStatus();
                },
                {build});
        }
    }
}

/** The durable verdict for a cell whose worker died on every allowed
 * attempt (or answered undecodably, a protocol-level crash): a
 * kWorkerCrashed failure naming the death cause, journaled like any
 * outcome so --resume replays it instead of re-poisoning a worker. */
EvalResult
quarantinedResult(const runtime::WorkerTaskOutcome &o)
{
    const runtime::WorkerDeathCause cause =
        o.cause == runtime::WorkerDeathCause::kNone
            ? runtime::WorkerDeathCause::kCrash
            : o.cause;
    std::ostringstream msg;
    msg << "worker died evaluating this cell ("
        << runtime::workerDeathCauseName(cause) << "); quarantined after "
        << o.attempts << (o.attempts == 1 ? " attempt" : " attempts");
    EvalResult r;
    r.success = false;
    r.pnr_attempts = std::max(1, o.attempts);
    r.status = Status(ErrorCode::kWorkerCrashed, msg.str());
    return r;
}

/**
 * Execute, process isolation: dispatch every cell still to evaluate
 * to a supervised pool of forked workers.  Workers fork *after* the
 * builds, so fork-COW hands every child the built variants for free;
 * each child evaluates the cells it is sent and answers with the
 * journal's cell-record payload, checksummed end to end.  A worker
 * death is survived: up to cell_retries re-dispatches, then the cell
 * is quarantined and the sweep goes on.
 */
void
executeForked(SweepState &st, SweepRuntimeStats *stats)
{
    struct WorkItem {
        std::size_t app;
        int cell;
    };
    std::vector<WorkItem> work;
    std::vector<std::string> payloads;
    for (std::size_t i = 0; i < st.apps.size(); ++i)
        for (int j = 0; j < kJournalCellsPerApp; ++j)
            if (cellToEvaluate(st.options, st.slots[i].cells[j])) {
                work.push_back({i, j});
                payloads.push_back(std::to_string(i) + " " +
                                   std::to_string(j));
            }
    if (work.empty())
        return; // Nothing to run forks no workers.

    // Children must not append to the shared artifact cache:
    // concurrent processes interleaving writes through one inherited
    // fd would corrupt it.  Results are identical either way (the
    // cache is a pure memoization).
    EvalOptions child_eval = st.eval_opts;
    child_eval.cache = nullptr;
    const auto handler = [&st,
                          &child_eval](const std::string &task)
        -> std::string {
        std::istringstream is(task);
        std::size_t i = 0;
        int j = 0;
        if (!(is >> i >> j) || i >= st.apps.size() || j < 0 ||
            j >= kJournalCellsPerApp)
            throw ApexError(Status(ErrorCode::kInternal,
                                   "malformed worker task '" + task +
                                       "'"));
        const AppSlot &slot = st.slots[i];
        SweepJournal::CellRecord rec;
        rec.app = static_cast<int>(i);
        rec.cell = j;
        rec.variant = slot.rec.cells[j].variant;
        rec.result = evaluateCellGuarded(st.apps[i],
                                         *slot.cells[j].variant,
                                         st.tech, child_eval,
                                         st.options);
        return SweepJournal::encodeCellRecordPayload(rec);
    };
    runtime::WorkerPoolOptions wopts;
    wopts.workers = stats->jobs;
    wopts.task_retries = st.options.cell_retries;
    wopts.heartbeat_ms = st.options.worker_heartbeat_ms;
    wopts.liveness_timeout_ms = st.options.worker_liveness_timeout_ms;
    wopts.cancel = st.options.cancel;
    wopts.trace_id = st.options.trace_id;
    runtime::WorkerPool workers(handler, wopts);
    const std::vector<runtime::WorkerTaskOutcome> outcomes =
        workers.run(payloads);

    for (std::size_t k = 0; k < work.size(); ++k) {
        const runtime::WorkerTaskOutcome &o = outcomes[k];
        if (o.fate == runtime::TaskFate::kCancelled)
            continue; // Assembly records the cancellation.
        // Trust the payload's result, not its indices: the journal
        // key is the supervisor's.
        SweepJournal::CellRecord decoded;
        EvalResult r =
            o.fate == runtime::TaskFate::kDone &&
                    SweepJournal::decodeCellRecordPayload(o.response,
                                                          &decoded)
                ? std::move(decoded.result)
                : quarantinedResult(o);
        finishCell(st, work[k].app, work[k].cell, std::move(r),
                   static_cast<long>(o.wall_ms * 1e3));
    }
    stats->worker_restarts = workers.stats().restarts;
    stats->worker_retries = workers.stats().retries;
    stats->worker_quarantined = workers.stats().quarantined;
}

/**
 * Plan + execute, when replay left work: run the task graph on
 * out->stats.jobs lanes (the caller's pool, else a pool owned by this
 * call, else inline for one lane — exactly the sequential driver's
 * schedule, fault-injection call ordinals included), then, under
 * process isolation, dispatch the cells still to evaluate to forked
 * workers.  A fully replayed sweep starts no pool, plans no task and
 * forks no worker.
 */
void
executeRemaining(SweepState &st, SweepOutcome *out)
{
    const bool work_left =
        std::any_of(st.slots.begin(), st.slots.end(),
                    [](const AppSlot &s) { return !s.skip_build; });
    if (!work_left)
        return;
    runtime::ThreadPool *pool = st.options.pool;
    std::unique_ptr<runtime::ThreadPool> owned_pool;
    if (pool == nullptr && out->stats.jobs > 1) {
        owned_pool =
            std::make_unique<runtime::ThreadPool>(out->stats.jobs);
        pool = owned_pool.get();
    }
    const runtime::PoolStats pool_before =
        pool != nullptr ? pool->stats() : runtime::PoolStats{};

    // Expected per-cell failures live in the slots, so a non-ok run()
    // can only mean cancellation — which assembly reads off the
    // ran/build_ran flags directly.
    runtime::TaskGraph graph(pool);
    graph.setTraceId(st.options.trace_id);
    planTasks(st, graph);
    (void)graph.run();
    if (st.options.isolate == IsolateMode::kProcess)
        executeForked(st, &out->stats);
    if (pool != nullptr)
        out->stats.tasks_stolen =
            pool->stats().tasks_stolen - pool_before.tasks_stolen;
}

/** Surface @p cell's build-time truncations as warnings: clique
 * searches that stopped before optimality and mining frontiers cut at
 * max_patterns_per_level — both previously silent, both able to
 * change the variant.  The diagnostics are part of the byte-identical
 * report; the runtime stats count only what happened *this run* (a
 * fully-replayed app never re-ran its merges or mining, so recounting
 * its journaled flags would double-count under --resume). */
void
reportBuildWarnings(SweepState &st, const AppSlot &slot,
                    const SweepJournal::CellInfo &cell,
                    const std::string &scope, SweepOutcome *out)
{
    if (cell.non_optimal_merges > 0) {
        DiagnosticRecord w;
        w.severity = Severity::kWarning;
        w.stage = "merge";
        w.code = cell.merge_timeouts > 0 ? ErrorCode::kTimeout
                                         : ErrorCode::kBudgetExhausted;
        w.message =
            std::to_string(cell.non_optimal_merges) +
            " datapath merge(s) used a non-optimal clique "
            "(budget exhausted" +
            (cell.merge_timeouts > 0
                 ? ", " + std::to_string(cell.merge_timeouts) +
                       " by deadline"
                 : std::string()) +
            "); the PE may spend more area than necessary";
        w.scope = scope;
        out->report.diagnostics.report(std::move(w));
        if (!slot.skip_build) {
            out->stats.non_optimal_cliques += cell.non_optimal_merges;
            st.counters.non_optimal_cliques.add(
                cell.non_optimal_merges);
        }
    }
    if (cell.mine_capped_levels > 0) {
        DiagnosticRecord w;
        w.severity = Severity::kWarning;
        w.stage = "mine";
        w.code = ErrorCode::kBudgetExhausted;
        w.message =
            "mining truncated " +
            std::to_string(cell.mine_capped_levels) +
            " level(s) at max_patterns_per_level (" +
            std::to_string(
                st.explorer.options().miner.max_patterns_per_level) +
            "); candidate patterns were dropped and a better "
            "subgraph may have been missed — raise the cap "
            "or min_support to mine exhaustively";
        w.scope = scope;
        out->report.diagnostics.report(std::move(w));
        if (!slot.skip_build) {
            out->stats.mine_capped_levels += cell.mine_capped_levels;
            st.counters.mine_capped_levels.add(
                cell.mine_capped_levels);
        }
    }
}

/**
 * Assemble: one sequential pass in (app, recipe-cell) order reproduces
 * the sequential driver's report byte for byte — same entry order,
 * same failure order, same diagnostics scoping — whatever the job
 * count or isolate mode.  Replayed cells take exactly the same path
 * as freshly-evaluated ones, which is what makes a resumed report
 * byte-identical.
 */
void
assemble(SweepState &st, SweepOutcome *out)
{
    for (std::size_t i = 0; i < st.apps.size(); ++i) {
        const std::string &app = st.apps[i].name;
        AppSlot &slot = st.slots[i];
        if (!slot.build_ran) {
            recordFailure(
                out->report, app, "",
                slot.deadline_skipped
                    ? Status(ErrorCode::kTimeout,
                             "sweep deadline expired before variant "
                             "construction")
                    : Status(ErrorCode::kCancelled,
                             "sweep cancelled before variant "
                             "construction"),
                1);
            continue;
        }
        SweepJournal::AppRecord &rec = slot.rec;
        if (!rec.validate_status.ok()) {
            recordFailure(out->report, app, "",
                          std::move(rec.validate_status), 1);
            continue;
        }
        if (rec.spec_failed)
            recordFailure(out->report, app, rec.spec_name,
                          std::move(rec.spec_status), 1);

        for (int j = 0; j < kJournalCellsPerApp; ++j) {
            const SweepJournal::CellInfo &info = rec.cells[j];
            if (!info.has_variant)
                continue;
            Cell &cell = slot.cells[j];
            const std::string &vname = info.variant;
            reportBuildWarnings(st, slot, info, app + "/" + vname, out);
            if (!cell.ran) {
                recordFailure(
                    out->report, app, vname,
                    cell.deadline_skipped
                        ? Status(ErrorCode::kTimeout,
                                 "sweep deadline expired before "
                                 "evaluation")
                        : Status(ErrorCode::kCancelled,
                                 "sweep cancelled before evaluation"),
                    1);
                continue;
            }
            EvalResult &r = cell.result;
            out->report.diagnostics.merge(r.diagnostics,
                                          app + "/" + vname);
            if (r.success) {
                ++out->report.evaluated;
                if (r.degraded) {
                    // The report mirrors the cell's durable outcome
                    // (byte-identical under --resume), but the stats
                    // count degradations *this run*: a cell replayed
                    // from the journal did not degrade again.
                    ++out->report.degraded;
                    if (!cell.replayed) {
                        ++out->stats.cells_degraded;
                        st.counters.cells_degraded.add(1);
                    }
                }
                out->entries.push_back({app, vname, std::move(r)});
            } else {
                recordFailure(out->report, app, vname,
                              std::move(r.status), r.pnr_attempts);
            }
        }
    }
}

} // namespace

std::string
SweepRuntimeStats::toString() const
{
    char buf[400];
    std::snprintf(buf, sizeof buf,
                  "jobs=%d tasks=%ld stolen=%ld cache=%ld/%ld "
                  "replayed=%ld degraded=%ld nonopt_cliques=%ld "
                  "mine_capped=%ld "
                  "restarts=%ld retries=%ld quarantined=%ld "
                  "build=%.2fms eval=%.2fms wall=%.2fms",
                  jobs, tasks_run, tasks_stolen, cache_hits,
                  cache_hits + cache_misses, cells_replayed,
                  cells_degraded, non_optimal_cliques,
                  mine_capped_levels,
                  worker_restarts, worker_retries,
                  worker_quarantined, build_ms, eval_ms, wall_ms);
    return buf;
}

Result<EvalLevel>
parseLevelName(const std::string &name)
{
    if (name == "map")
        return EvalLevel::kPostMapping;
    if (name == "pnr")
        return EvalLevel::kPostPnr;
    if (name == "pipe")
        return EvalLevel::kPostPipelining;
    return Status(ErrorCode::kInvalidArgument,
                  "unknown --level '" + name +
                      "' (expected map, pnr or pipe)");
}

Result<IsolateMode>
parseIsolateName(const std::string &name)
{
    if (name == "thread")
        return IsolateMode::kInProcess;
    if (name == "process")
        return IsolateMode::kProcess;
    return Status(ErrorCode::kInvalidArgument,
                  "unknown --isolate mode '" + name +
                      "' (expected thread or process)");
}

SweepOutcome
runSweep(const std::vector<apps::AppInfo> &apps,
         const Explorer &explorer, const model::TechModel &tech,
         const SweepOptions &options)
{
    const Clock::time_point wall_start = Clock::now();
    SweepOutcome out;
    // Declared before the span so the span closes (and records the
    // id) before the previous scope is restored.
    telemetry::ScopedTraceId sweep_trace;
    if (options.trace_id != 0)
        sweep_trace.set(options.trace_id);
    APEX_SPAN("sweep", {{"apps", static_cast<long long>(apps.size())}});

    // Resolve the lane count up front; executeRemaining starts a pool
    // only if replay leaves work.  jobs == 1 (the default) means no
    // pool at all: the task graph runs inline in insertion order.
    int lanes = options.jobs > 0
                    ? options.jobs
                    : runtime::ThreadPool::defaultParallelism();
    if (options.pool != nullptr)
        lanes = options.pool->parallelism();
    out.stats.jobs = std::max(1, lanes);

    SweepState st{apps, explorer, tech, options, options.eval,
                  std::vector<AppSlot>(apps.size())};
    if (options.cache != nullptr)
        st.eval_opts.cache = options.cache;
    runtime::ArtifactCache *cache = st.eval_opts.cache;
    const runtime::CacheStats cache_before =
        cache != nullptr ? cache->stats() : runtime::CacheStats{};
    SweepCounters &counters = st.counters;
    const long long tasks_before = counters.tasks.value();
    const long long build_us_before = counters.build_us.value();
    const long long eval_us_before = counters.eval_us.value();

    // --- Replay -----------------------------------------------------
    Status durability = replayJournal(st);
    out.stats.cells_replayed = st.journal.replayedCells();
    counters.cells_replayed.add(st.journal.replayedCells());

    // --- Plan + execute (only what replay left) ---------------------
    executeRemaining(st, &out);

    // --- Assemble ---------------------------------------------------
    assemble(st, &out);

    // --- Runtime counters ------------------------------------------
    // All counters live in the telemetry registry; this sweep's
    // contribution is the delta against the entry snapshots.
    out.stats.tasks_run =
        static_cast<long>(counters.tasks.value() - tasks_before);
    if (cache != nullptr) {
        const runtime::CacheStats after = cache->stats();
        out.stats.cache_hits = after.hits - cache_before.hits;
        out.stats.cache_misses = after.misses - cache_before.misses;
    }
    out.stats.build_ms =
        static_cast<double>(counters.build_us.value() -
                            build_us_before) /
        1e3;
    out.stats.eval_ms = static_cast<double>(counters.eval_us.value() -
                                            eval_us_before) /
                        1e3;
    out.stats.wall_ms =
        static_cast<double>(elapsedUs(wall_start)) / 1e3;

    // --- Durability verdict ----------------------------------------
    // A journal that died mid-run (disk full during an append) left
    // an on-disk log missing outcomes; surface it after assembly so
    // the report above still carries everything that ran.
    if (durability.ok())
        durability = st.journal.lastError().withContext(
            "journaling sweep outcomes in '" + options.journal_dir +
            "'");
    if (!durability.ok()) {
        telemetry::counter("apex.resource.sweep_durability_failures")
            .add(1);
        out.report.diagnostics.error("durability", durability);
        out.durability = std::move(durability);
    }
    return out;
}

} // namespace apex::core
