/**
 * perfbench: the measuring half of the APEX end-to-end benchmark.
 *
 * Every invocation does one unit of work in a fresh process and
 * prints one JSON object on stdout; perfbench/run.py starts these
 * processes, permutes their inputs from the workload seed, checks the
 * cell digests against perfbench/golden.json and aggregates the runs
 * into the benchmark's metrics.
 *
 *   perfbench sweep  --apps all9|six --level map|pnr|pipe --jobs N
 *                    [--isolate thread|process] [--order I,J,...]
 *                    [--state DIR]
 *       One sweep through core::runSweep with a fresh ArtifactCache
 *       (and, with --state, a fresh journal dir plus disk-tier cache
 *       under DIR): wall and CPU seconds (forked workers included
 *       via RUSAGE_CHILDREN), peak RSS, runtime counters, the metrics
 *       registry after the sweep and one digest per (app, variant).
 *
 *   perfbench trace  --apps ... --level ... [--order ...] --state DIR
 *                    [--journal 0|1]
 *       The attribution run: a jobs=1 in-process sweep with tracing on
 *       inside the benchmark's own span, then (with --journal 1) a
 *       traced replay of its journal.  Reports span self times per
 *       stage and the registry before and after the sweep.  run.py
 *       pairs it with an untraced `sweep --jobs 1` in its own fresh
 *       process; the wall-time difference is the tracing overhead.
 *
 *   perfbench daemon --apexd PATH --state DIR --seconds S
 *                    [--order L,L,L] [--reject-every N] [--trace 0|1]
 *       One daemon session: start apexd, warm it with one request
 *       per level (one after another), then run a closed loop of three
 *       client connections, one thread and one level each, for S
 *       seconds or kMaxRequests requests per connection, whichever
 *       ends first; read apexd's VmHWM after set-up and again before
 *       shutting it down.
 *
 * Digests are FNV-1a over core::serializeEvalResult, which carries
 * every post-mapping, post-PnR and pipelining field of a cell.
 */
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "core/sweep.hpp"
#include "model/tech.hpp"
#include "runtime/cache.hpp"
#include "runtime/telemetry.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"

namespace {

using namespace apex;
using Clock = std::chrono::steady_clock;

/** Timed builds of the app graphs per process; setup_s is their median. */
constexpr int kSetupReps = 15;
/** apexd's --jobs, reported so run.py can compute parallel efficiency. */
constexpr int kApexdJobs = 4;
/**
 * Loop requests per connection and session.  The cap bounds memory:
 * apexd keeps one span ring per thread it ever started and starts a
 * fresh pool per warm request, so its resident set grows by megabytes
 * per request.
 */
constexpr int kMaxRequests = 120;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void
die(const std::string &why)
{
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::exit(2);
}

// --------------------------------------------------------------------
// Arguments
// --------------------------------------------------------------------

struct Args {
    std::map<std::string, std::string> flags;

    std::string get(const std::string &name,
                    const std::string &fallback = "") const
    {
        const auto it = flags.find(name);
        return it == flags.end() ? fallback : it->second;
    }
    int getInt(const std::string &name, int fallback) const
    {
        const std::string v = get(name);
        return v.empty() ? fallback : std::atoi(v.c_str());
    }
};

Args
parseArgs(int argc, char **argv, int first)
{
    Args args;
    for (int i = first; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag.rfind("--", 0) != 0 || i + 1 >= argc)
            die("expected '--flag value', got '" + flag + "'");
        args.flags[flag.substr(2)] = argv[++i];
    }
    return args;
}

std::vector<std::string>
splitComma(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

core::EvalLevel
levelFromName(const std::string &name)
{
    if (name == "map")
        return core::EvalLevel::kPostMapping;
    if (name == "pnr")
        return core::EvalLevel::kPostPnr;
    if (name == "pipe")
        return core::EvalLevel::kPostPipelining;
    die("unknown level '" + name + "'");
}

std::vector<apps::AppInfo>
loadApps(const std::string &set)
{
    if (set == "all9")
        return apps::allApps();
    if (set == "six")
        return apps::analyzedApps();
    die("unknown app set '" + set + "'");
}

/** Reorder @p suite by the comma-separated index permutation. */
std::vector<apps::AppInfo>
permute(std::vector<apps::AppInfo> suite, const std::string &order)
{
    const std::vector<std::string> idx = splitComma(order);
    if (idx.empty())
        return suite;
    if (idx.size() != suite.size())
        die("--order must name every app exactly once");
    std::vector<apps::AppInfo> out;
    std::vector<bool> seen(suite.size(), false);
    for (const std::string &s : idx) {
        const std::size_t i = std::strtoul(s.c_str(), nullptr, 10);
        if (i >= suite.size() || seen[i])
            die("--order is not a permutation");
        seen[i] = true;
        out.push_back(suite[i]);
    }
    return out;
}

// --------------------------------------------------------------------
// JSON output
// --------------------------------------------------------------------

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

/** Builds one flat-or-nested JSON object, member by member. */
class JsonObject {
  public:
    JsonObject &raw(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "" : ",") + jsonString(key) + ":" +
                 json;
        return *this;
    }
    JsonObject &num(const std::string &key, double v)
    {
        return raw(key, jsonNumber(v));
    }
    JsonObject &str(const std::string &key, const std::string &v)
    {
        return raw(key, jsonString(v));
    }
    std::string json() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
jsonNumbers(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + jsonNumber(values[i]);
    return out + "]";
}

// --------------------------------------------------------------------
// Measurements
// --------------------------------------------------------------------

struct Usage {
    double self_cpu_s = 0;
    double child_cpu_s = 0;
    double self_rss_mb = 0;  ///< ru_maxrss of this process.
    double child_rss_mb = 0; ///< ru_maxrss of the largest child.
};

double
tvSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

Usage
usageNow()
{
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    Usage u;
    u.self_cpu_s = tvSeconds(self.ru_utime) + tvSeconds(self.ru_stime);
    u.child_cpu_s =
        tvSeconds(children.ru_utime) + tvSeconds(children.ru_stime);
    u.self_rss_mb = static_cast<double>(self.ru_maxrss) / 1024.0;
    u.child_rss_mb = static_cast<double>(children.ru_maxrss) / 1024.0;
    return u;
}

std::string
digestOf(const core::EvalResult &r)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(runtime::fnv1a64(
                      core::serializeEvalResult(r))));
    return buf;
}

/** {"app/variant": digest} plus the failed cells, as JSON members. */
void
addCells(JsonObject &obj, const std::vector<core::SweepEntry> &entries,
         const ExplorationReport &report)
{
    JsonObject cells;
    for (const core::SweepEntry &e : entries)
        cells.str(e.app + "/" + e.variant, digestOf(e.result));
    obj.raw("cells", cells.json());
    std::string failures = "[";
    for (std::size_t i = 0; i < report.failures.size(); ++i) {
        const StageFailure &f = report.failures[i];
        failures += (i ? "," : "") +
                    jsonString(f.app + "/" + f.variant + " at " +
                               f.stage + ": " + f.status.toString());
    }
    obj.raw("failures", failures + "]");
}

/**
 * Span self times (duration minus the part covered by child spans on
 * the same thread), per span name, plus the per-app split of the
 * stages the benchmark attributes per app.
 */
std::string
summarizeSpans(const std::vector<telemetry::SpanEvent> &events)
{
    struct Row {
        double incl_ms = 0;
        double self_ms = 0;
        double max_ms = 0;
        long count = 0;
    };
    std::map<std::string, Row> by_name;
    std::map<std::string, Row> by_name_scope;

    std::map<std::uint64_t, std::vector<const telemetry::SpanEvent *>>
        threads;
    for (const telemetry::SpanEvent &ev : events)
        threads[ev.thread_ord].push_back(&ev);
    for (auto &[ord, evs] : threads) {
        std::sort(evs.begin(), evs.end(),
                  [](const auto *a, const auto *b) {
                      if (a->ts_us != b->ts_us)
                          return a->ts_us < b->ts_us;
                      return a->dur_us > b->dur_us;
                  });
        std::vector<double> self(evs.size());
        std::vector<std::size_t> open; // Indices of enclosing spans.
        for (std::size_t i = 0; i < evs.size(); ++i) {
            const auto *ev = evs[i];
            while (!open.empty() &&
                   evs[open.back()]->ts_us + evs[open.back()]->dur_us <=
                       ev->ts_us)
                open.pop_back();
            self[i] = ev->dur_us;
            if (!open.empty())
                self[open.back()] -= ev->dur_us;
            open.push_back(i);
        }
        for (std::size_t i = 0; i < evs.size(); ++i) {
            for (Row *row : {&by_name[evs[i]->name],
                             &by_name_scope[evs[i]->name + "@" +
                                            evs[i]->scope]}) {
                row->incl_ms += evs[i]->dur_us / 1e3;
                row->self_ms += self[i] / 1e3;
                row->max_ms = std::max(row->max_ms, evs[i]->dur_us / 1e3);
                row->count += 1;
            }
        }
    }
    const auto render = [](const std::map<std::string, Row> &rows) {
        JsonObject obj;
        for (const auto &[name, row] : rows)
            obj.raw(name, JsonObject()
                              .num("incl_ms", row.incl_ms)
                              .num("self_ms", row.self_ms)
                              .num("max_ms", row.max_ms)
                              .num("count", static_cast<double>(row.count))
                              .json());
        return obj.json();
    };
    return JsonObject()
        .raw("by_name", render(by_name))
        .raw("by_name_scope", render(by_name_scope))
        .num("events", static_cast<double>(events.size()))
        .json();
}

std::string
statsJson(const core::SweepRuntimeStats &s)
{
    return JsonObject()
        .num("jobs", s.jobs)
        .num("tasks_stolen", static_cast<double>(s.tasks_stolen))
        .num("cache_hits", static_cast<double>(s.cache_hits))
        .num("cache_misses", static_cast<double>(s.cache_misses))
        .num("worker_restarts", static_cast<double>(s.worker_restarts))
        .num("worker_retries", static_cast<double>(s.worker_retries))
        .json();
}

// --------------------------------------------------------------------
// sweep / trace
// --------------------------------------------------------------------

struct SweepSetup {
    std::vector<apps::AppInfo> suite;
    std::vector<double> setup_s;
};

/** Build the app graphs kSetupReps times (timed); keep the last set. */
SweepSetup
buildApps(const Args &args)
{
    SweepSetup s;
    for (int i = 0; i < kSetupReps; ++i) {
        const Clock::time_point t0 = Clock::now();
        s.suite = loadApps(args.get("apps", "all9"));
        s.setup_s.push_back(secondsSince(t0));
    }
    s.suite = permute(std::move(s.suite), args.get("order"));
    return s;
}

core::SweepOptions
sweepOptions(const Args &args, const std::string &state,
             runtime::ArtifactCache *cache)
{
    core::SweepOptions o;
    o.level = levelFromName(args.get("level", "map"));
    o.jobs = args.getInt("jobs", 1);
    o.isolate = args.get("isolate", "thread") == "process"
                    ? core::IsolateMode::kProcess
                    : core::IsolateMode::kInProcess;
    o.cache = cache;
    if (!state.empty())
        o.journal_dir = state + "/journal";
    return o;
}

runtime::CacheOptions
cacheOptions(const std::string &state)
{
    runtime::CacheOptions c;
    if (!state.empty())
        c.disk_dir = state + "/cache";
    return c;
}

int
cmdSweep(const Args &args)
{
    const SweepSetup setup = buildApps(args);
    const std::string state = args.get("state");
    const model::TechModel &tech = model::defaultTech();
    const core::Explorer explorer(tech);
    runtime::ArtifactCache cache(cacheOptions(state));
    const core::SweepOptions options = sweepOptions(args, state, &cache);

    const Usage before = usageNow();
    const Clock::time_point t0 = Clock::now();
    const core::SweepOutcome out =
        core::runSweep(setup.suite, explorer, tech, options);
    const double wall_s = secondsSince(t0);
    const Usage after = usageNow();

    JsonObject obj;
    obj.raw("setup_s", jsonNumbers(setup.setup_s))
        .num("wall_s", wall_s)
        .num("cpu_self_s", after.self_cpu_s - before.self_cpu_s)
        .num("cpu_children_s", after.child_cpu_s - before.child_cpu_s)
        .num("rss_self_mb", after.self_rss_mb)
        .num("rss_children_mb", after.child_rss_mb)
        .num("durability_ok", out.durability.ok() ? 1 : 0)
        .raw("stats", statsJson(out.stats))
        .raw("registry", telemetry::Registry::instance().jsonDump());
    addCells(obj, out.entries, out.report);
    std::printf("%s\n", obj.json().c_str());
    return 0;
}

int
cmdTrace(const Args &args)
{
    const SweepSetup setup = buildApps(args);
    const std::string state = args.get("state");
    if (state.empty())
        die("trace needs --state DIR");
    const bool journal = args.getInt("journal", 0) != 0;
    const model::TechModel &tech = model::defaultTech();
    const core::Explorer explorer(tech);
    const auto &registry = telemetry::Registry::instance();
    const std::string registry_before = registry.jsonDump();

    // Traced pass: the benchmark's span around the public entry point.
    telemetry::setTracingEnabled(true);
    const std::string dir = journal ? state : "";
    double traced_wall_s = 0;
    core::SweepOutcome out;
    {
        runtime::ArtifactCache cache(cacheOptions(dir));
        core::SweepOptions o = sweepOptions(args, dir, &cache);
        o.jobs = 1;
        o.isolate = core::IsolateMode::kInProcess;
        const Clock::time_point t0 = Clock::now();
        {
            telemetry::Span span;
            span.begin("bench.sweep");
            out = core::runSweep(setup.suite, explorer, tech, o);
        }
        traced_wall_s = secondsSince(t0);
    }
    telemetry::collect();
    const std::vector<telemetry::SpanEvent> traced = telemetry::events();
    const std::string traced_registry = registry.jsonDump();
    const long long dropped = telemetry::droppedEvents();

    // Read side of the journal: replay the traced pass's journal.
    JsonObject obj;
    if (journal) {
        telemetry::resetTracingForTesting();
        runtime::ArtifactCache cache;
        core::SweepOptions o = sweepOptions(args, dir, &cache);
        o.jobs = 1;
        o.isolate = core::IsolateMode::kInProcess;
        o.resume = true;
        {
            telemetry::Span span;
            span.begin("bench.replay");
            (void)core::runSweep(setup.suite, explorer, tech, o);
        }
        telemetry::collect();
        obj.raw("replay_spans", summarizeSpans(telemetry::events()));
    }

    obj.raw("setup_s", jsonNumbers(setup.setup_s))
        .num("traced_wall_s", traced_wall_s)
        .num("dropped_spans", static_cast<double>(dropped))
        .raw("spans", summarizeSpans(traced))
        .raw("registry_before", registry_before)
        .raw("registry", traced_registry);
    addCells(obj, out.entries, out.report);
    std::printf("%s\n", obj.json().c_str());
    return 0;
}

// --------------------------------------------------------------------
// daemon
// --------------------------------------------------------------------

/** apexd as a child process, stopped (and reaped) on destruction. */
class Daemon {
  public:
    Daemon(const std::string &apexd, const std::string &state)
        : socket_(state + "/apexd.sock")
    {
        const std::string cache = state + "/cache";
        const std::string log = state + "/apexd.log";
        const std::string jobs = std::to_string(kApexdJobs);
        pid_ = ::fork();
        if (pid_ < 0)
            die("fork failed");
        if (pid_ == 0) {
            // Die with this process, so a killed run leaves no daemon.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            // Keep the daemon off the pipe run.py reads results from.
            if (std::freopen(log.c_str(), "w", stderr) == nullptr ||
                ::dup2(::fileno(stderr), STDOUT_FILENO) < 0)
                std::_Exit(127);
            ::execl(apexd.c_str(), apexd.c_str(), "--socket",
                    socket_.c_str(), "--cache-dir", cache.c_str(),
                    "--jobs", jobs.c_str(),
                    static_cast<char *>(nullptr));
            std::_Exit(127);
        }
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return socket_; }

    /** Field @p key of /proc/<pid>/status in MB (VmHWM, VmRSS). */
    double statusMb(const std::string &key) const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(in, line))
            if (line.rfind(key + ":", 0) == 0)
                return std::atof(line.c_str() + key.size() + 1) / 1024.0;
        return 0;
    }

    /** utime + stime of the daemon so far, in seconds. */
    double cpuSeconds() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
        std::string stat((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        const std::size_t close = stat.rfind(')');
        if (close == std::string::npos)
            return 0;
        std::istringstream fields(stat.substr(close + 2));
        std::string field;
        double ticks = 0;
        // Fields 3.. follow the command name; utime/stime are 14/15.
        for (int i = 3; i <= 15 && fields >> field; ++i)
            if (i >= 14)
                ticks += std::atof(field.c_str());
        return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }

    /** SIGTERM, then SIGKILL after 10 s; always reaps the child. */
    int stop()
    {
        if (pid_ <= 0)
            return exit_status_;
        ::kill(pid_, SIGTERM);
        int status = 0;
        const Clock::time_point t0 = Clock::now();
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (secondsSince(t0) > 10.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
        exit_status_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
        return exit_status_;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
    int exit_status_ = 0;
};

/** Dial until apexd accepts (it needs a moment to bind). */
Status
connectWithRetry(service::Client &client, const std::string &socket)
{
    const Clock::time_point t0 = Clock::now();
    while (true) {
        const Status s = client.connect(socket);
        if (s.ok() || secondsSince(t0) > 30.0)
            return s;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

/** One hash over a reply's cells and failures: the cheap key under
 * which oneRequest() files the reply (the per-cell digests are only
 * rendered for the first reply with a given key). */
std::uint64_t
replyKey(const service::SweepReply &reply)
{
    std::uint64_t h = runtime::fnv1a64("");
    for (const core::SweepEntry &e : reply.entries) {
        h = runtime::fnv1a64(e.app + "/" + e.variant, h);
        h = runtime::fnv1a64(core::serializeEvalResult(e.result), h);
    }
    for (const StageFailure &f : reply.report.failures)
        h = runtime::fnv1a64(f.app + "/" + f.variant + f.stage, h);
    return h;
}

/** What one client thread observed over the closed loop. */
struct ClientLog {
    std::string level;
    double connect_ms = 0;
    std::vector<double> latency_ms;
    /** --trace 1: requests that carried a trace id, their latency
     * and the daemon's `service.execute` span for them. */
    std::vector<double> traced_latency_ms;
    std::vector<double> server_ms;
    long errors = 0;
    long coalesced = 0;
    std::string first_error;
    /** Distinct reply digests seen (normally one) and their counts. */
    std::map<std::uint64_t, std::pair<long, std::string>> replies;
    /** Daemon spans of traced requests (--trace 1 only). */
    std::vector<telemetry::SpanEvent> spans;
    long long dropped_spans = 0;
};

/** Send one request on @p client; on success fold it into @p log. */
bool
oneRequest(service::Client &client, const std::string &level,
           std::uint64_t id, bool traced, ClientLog &log)
{
    service::SweepRequest req;
    req.id = id;
    req.level = level;
    if (traced)
        req.trace_id = service::mintTraceId();
    service::SweepReply reply;
    service::SweepAck ack;
    const Clock::time_point t0 = Clock::now();
    const Status s = client.runSweep(req, &reply, nullptr, &ack);
    const double ms = secondsSince(t0) * 1e3;
    if (!s.ok()) {
        ++log.errors;
        if (log.first_error.empty())
            log.first_error = s.toString();
        return false;
    }
    if (ack.coalesced)
        ++log.coalesced;
    auto &slot = log.replies[replyKey(reply)];
    if (slot.first++ == 0) {
        JsonObject cells;
        addCells(cells, reply.entries, reply.report);
        slot.second = cells.json();
    }
    if (!traced) {
        log.latency_ms.push_back(ms);
        return true;
    }
    log.traced_latency_ms.push_back(ms);
    service::TraceReply tr;
    if (client.trace(req.trace_id, &tr).ok()) {
        double server = 0;
        for (const telemetry::SpanEvent &ev : tr.events)
            if (ev.name == "service.execute")
                server = ev.dur_us / 1e3;
        log.server_ms.push_back(server);
        log.spans.insert(log.spans.end(), tr.events.begin(),
                         tr.events.end());
        log.dropped_spans += tr.dropped;
    }
    return true;
}

std::string
clientLogJson(const ClientLog &log)
{
    std::string replies = "[";
    bool first = true;
    for (const auto &[key, slot] : log.replies) {
        replies += (first ? "" : ",") +
                   JsonObject()
                       .num("count", static_cast<double>(slot.first))
                       .raw("digests", slot.second)
                       .json();
        first = false;
    }
    return JsonObject()
        .str("level", log.level)
        .num("connect_ms", log.connect_ms)
        .raw("latency_ms", jsonNumbers(log.latency_ms))
        .raw("traced_latency_ms", jsonNumbers(log.traced_latency_ms))
        .raw("server_ms", jsonNumbers(log.server_ms))
        .num("errors", static_cast<double>(log.errors))
        .str("first_error", log.first_error)
        .num("coalesced", static_cast<double>(log.coalesced))
        .raw("replies", replies + "]")
        .json();
}

int
cmdDaemon(const Args &args)
{
    const std::string apexd = args.get("apexd");
    const std::string state = args.get("state");
    if (apexd.empty() || state.empty())
        die("daemon needs --apexd PATH and --state DIR");
    const double seconds = std::atof(args.get("seconds", "5").c_str());
    const bool traced = args.getInt("trace", 0) != 0;
    const int reject_every = args.getInt("reject-every", 0);
    std::vector<std::string> levels =
        splitComma(args.get("order", "map,pnr,pipe"));
    if (levels.size() != 3)
        die("--order must name three levels");

    // Set-up: daemon start plus one cold request per level, in the
    // seeded order, each on the connection the closed loop then uses
    // for that level.  Sequential on purpose: three concurrent cold
    // sweeps each rebuild every variant and together push apexd past
    // 3 GB resident.
    const Clock::time_point t_setup = Clock::now();
    Daemon daemon(apexd, state);
    std::vector<service::Client> clients(levels.size());
    std::vector<ClientLog> setup_logs(levels.size());
    std::vector<ClientLog> logs(levels.size());
    for (std::size_t i = 0; i < levels.size(); ++i) {
        setup_logs[i].level = levels[i];
        logs[i].level = levels[i];
        const Clock::time_point t0 = Clock::now();
        if (const Status s = connectWithRetry(clients[i], daemon.socket());
            !s.ok()) {
            ++setup_logs[i].errors;
            setup_logs[i].first_error = s.toString();
            break;
        }
        logs[i].connect_ms = secondsSince(t0) * 1e3;
        if (!oneRequest(clients[i], levels[i], 1, traced, setup_logs[i]))
            break;
    }
    const double setup_s = secondsSince(t_setup);
    const auto fail = [&daemon](const std::string &why) {
        daemon.stop();
        die(why);
    };
    for (const ClientLog &l : setup_logs)
        if (l.errors != 0)
            fail("daemon set-up failed: " + l.first_error);

    std::string registry_before;
    if (traced && !clients[0].metrics(&registry_before).ok())
        fail("metrics request failed");

    // Closed loop: each connection sends its next request only after
    // the previous reply is decoded.
    const double setup_hwm_mb = daemon.statusMb("VmHWM");
    const double cpu_before = daemon.cpuSeconds();
    const Usage usage_before = usageNow();
    const Clock::time_point t_loop = Clock::now();
    {
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < levels.size(); ++i) {
            threads.emplace_back([&, i] {
                // With --trace 1 every other request carries a trace
                // id, so traced and untraced latencies can be compared.
                for (std::uint64_t id = 2;
                     id < 2u + static_cast<unsigned>(kMaxRequests) &&
                     secondsSince(t_loop) < seconds;
                     ++id) {
                    const bool reject =
                        reject_every > 0 && id % reject_every == 0;
                    oneRequest(clients[i],
                               reject ? "bogus" : levels[i], id,
                               traced && id % 2 == 1, logs[i]);
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    const double loop_s = secondsSince(t_loop);
    const double daemon_cpu_s = daemon.cpuSeconds() - cpu_before;
    const Usage usage_after = usageNow();

    std::string registry_after;
    if (traced && !clients[0].metrics(&registry_after).ok())
        fail("metrics request failed");
    const double vm_hwm_mb = daemon.statusMb("VmHWM");
    for (service::Client &c : clients)
        c.goodbye();
    const int exit_status = daemon.stop();

    JsonObject obj;
    std::string loop = "[";
    std::string warm = "[";
    std::vector<telemetry::SpanEvent> setup_spans;
    std::vector<telemetry::SpanEvent> loop_spans;
    long long dropped = 0;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        loop += (i ? "," : "") + clientLogJson(logs[i]);
        warm += (i ? "," : "") + clientLogJson(setup_logs[i]);
        setup_spans.insert(setup_spans.end(), setup_logs[i].spans.begin(),
                           setup_logs[i].spans.end());
        loop_spans.insert(loop_spans.end(), logs[i].spans.begin(),
                          logs[i].spans.end());
        dropped += setup_logs[i].dropped_spans + logs[i].dropped_spans;
    }
    obj.num("setup_s", setup_s)
        .num("loop_s", loop_s)
        .num("daemon_cpu_s", daemon_cpu_s)
        .num("client_cpu_s",
             usage_after.self_cpu_s - usage_before.self_cpu_s)
        .num("setup_hwm_mb", setup_hwm_mb)
        .num("vm_hwm_mb", vm_hwm_mb)
        .num("apexd_jobs", kApexdJobs)
        .num("daemon_exit", exit_status)
        .raw("warmup", warm + "]")
        .raw("clients", loop + "]");
    if (traced)
        obj.raw("setup_spans", summarizeSpans(setup_spans))
            .raw("loop_spans", summarizeSpans(loop_spans))
            .num("dropped_spans", static_cast<double>(dropped))
            .raw("registry_before", registry_before)
            .raw("registry", registry_after);
    std::printf("%s\n", obj.json().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        die("usage: perfbench sweep|trace|daemon --flag value ...");
    const std::string cmd = argv[1];
    const Args args = parseArgs(argc, argv, 2);
    if (cmd == "sweep")
        return cmdSweep(args);
    if (cmd == "trace")
        return cmdTrace(args);
    if (cmd == "daemon")
        return cmdDaemon(args);
    die("unknown command '" + cmd + "'");
}
