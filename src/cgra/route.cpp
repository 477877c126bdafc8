#include "cgra/route.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "core/fault.hpp"
#include "runtime/telemetry.hpp"

/*
 * PathFinder router on flat per-tile arrays.  The historic version
 * allocated std::map/std::set search tables per net; this one hoists
 * flat vectors indexed by dense tile id across all nets of a rip-up
 * pass and invalidates them with an epoch counter, keeps per-link
 * signal sets as small vectors (distinct signals per link are bounded
 * by the track count that congestion is negotiating toward), and
 * replaces std::priority_queue with push_heap/pop_heap on one hoisted
 * vector — the exact algorithm priority_queue uses, so pop order and
 * therefore every routed path is byte-identical to the historic
 * router.
 */
namespace apex::cgra {

namespace {

struct QueueEntry {
    double cost;
    double heuristic;
    int tile; ///< Dense tile index.
    bool operator>(const QueueEntry &o) const {
        return cost + heuristic > o.cost + o.heuristic;
    }
};

int
manhattan(Coord a, Coord b)
{
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

/** Signal identity: edges with the same source share tracks.  This
 * includes register-delayed variants of the same stream — every SB
 * track has a configurable register (Sec. 4.3), so a differently-
 * delayed consumer taps the shared wire after a register further
 * along the route instead of occupying its own track.  (Without this,
 * the k column taps of a stencil window would demand k tracks through
 * the input pad's single fabric boundary.) */
std::int64_t
signalKey(const PlacedEdge &e)
{
    return static_cast<std::int64_t>(e.src);
}

/** Distinct signals on one link, as a small vector: linear membership
 * beats a std::set for the handful of signals congestion negotiation
 * allows per link, and clear() keeps the capacity across rip-ups. */
struct LinkSignals {
    std::vector<std::int64_t> keys;

    bool
    contains(std::int64_t key) const
    {
        return std::find(keys.begin(), keys.end(), key) != keys.end();
    }

    void
    insert(std::int64_t key)
    {
        if (!contains(key))
            keys.push_back(key);
    }

    int
    count() const
    {
        return static_cast<int>(keys.size());
    }
};

/** One outgoing hop of a tile, precomputed so the inner A* loop never
 * re-derives link indices or dense neighbour ids. */
struct Hop {
    int link;    ///< Fabric::linkIndex of tile -> nb.
    int nb_idx;  ///< Dense index of the neighbour.
    Coord nb;    ///< Neighbour coordinate (for the heuristic).
};

} // namespace

std::vector<int>
RouteResult::tilesTouched(const Fabric &fabric) const
{
    std::vector<int> tiles;
    for (const auto &path : paths) {
        for (int link : path) {
            const auto [src, dst] = fabric.linkEnds(link);
            tiles.push_back(fabric.indexOf(src));
            tiles.push_back(fabric.indexOf(dst));
        }
    }
    std::sort(tiles.begin(), tiles.end());
    tiles.erase(std::unique(tiles.begin(), tiles.end()), tiles.end());
    return tiles;
}

RouteResult
route(const Fabric &fabric, const PlacementResult &placement,
      const RouterOptions &options)
{
    APEX_SPAN("route",
              {{"nets",
                static_cast<long long>(placement.edges.size())},
               {"tracks", options.tracks}});
    telemetry::StageTimer timer(
        telemetry::histogram("apex.route.ms"));
    telemetry::counter("apex.route.calls").add(1);

    RouteResult result;
    // Counts every exit path once: iterations consumed, and whether
    // this call failed (declared after `result`, so it reads the
    // final state just before the return value leaves scope).
    struct OutcomeCounters {
        const RouteResult &r;
        ~OutcomeCounters()
        {
            telemetry::counter("apex.route.ripup_iterations")
                .add(r.iterations);
            if (!r.success)
                telemetry::counter("apex.route.failures").add(1);
        }
    } outcome_counters{result};
    if (Status fault = checkFault(FaultStage::kRoute); !fault.ok()) {
        result.status = std::move(fault);
        return result;
    }
    const int links = fabric.linkCount();
    const int n = fabric.tileCount();
    std::vector<double> history(links, 0.0);
    // Distinct signals per link (net-aware capacity).
    std::vector<LinkSignals> link_signals(links);
    result.paths.assign(placement.edges.size(), {});

    // Per-tile outgoing hops and per-link source-tile indices,
    // computed once: the A* loop and path reconstruction only touch
    // flat arrays afterwards.  Hop order matches fabric.neighbours()
    // so relaxation ties resolve exactly as before.
    std::vector<std::vector<Hop>> hops(n);
    for (int t = 0; t < n; ++t) {
        const Coord c = fabric.coordAt(t);
        for (const Coord &nb : fabric.neighbours(c))
            hops[t].push_back(
                {fabric.linkIndex(c, nb), fabric.indexOf(nb), nb});
    }
    std::vector<int> link_src(links, -1);
    for (int l = 0; l < links; ++l)
        link_src[l] = fabric.indexOf(fabric.linkEnds(l).first);

    // Search tables hoisted across nets; `visit_epoch[t] == epoch`
    // marks best/via_link as valid for the current net, so resetting
    // between nets is one integer increment instead of two O(n)
    // fills.
    std::vector<double> best(n, 0.0);
    std::vector<int> via_link(n, -1);
    std::vector<int> visit_epoch(n, 0);
    int epoch = 0;
    std::vector<QueueEntry> frontier;

    // A* for one net under the current congestion costs.  Links
    // already carrying this signal cost almost nothing (multicast
    // branches share the wire).
    auto route_net = [&](Coord from, Coord to, std::int64_t key,
                         double present_pen) -> std::vector<int> {
        ++epoch;
        frontier.clear();
        const int start = fabric.indexOf(from);
        const int goal = fabric.indexOf(to);
        best[start] = 0.0;
        via_link[start] = -1;
        visit_epoch[start] = epoch;
        frontier.push_back({0.0, 1.0 * manhattan(from, to), start});

        while (!frontier.empty()) {
            std::pop_heap(frontier.begin(), frontier.end(),
                          std::greater<QueueEntry>());
            const QueueEntry top = frontier.back();
            frontier.pop_back();
            if (top.tile == goal)
                break;
            if (top.cost > best[top.tile] + 1e-12)
                continue;
            for (const Hop &hop : hops[top.tile]) {
                const int link = hop.link;
                double cost;
                if (link_signals[link].contains(key)) {
                    cost = 0.05; // free ride on our own net
                } else {
                    cost = 1.0 + history[link];
                    const int used = link_signals[link].count();
                    if (used >= options.tracks)
                        cost += present_pen *
                                (used - options.tracks + 1);
                }
                const int nb_idx = hop.nb_idx;
                const double nb_best =
                    visit_epoch[nb_idx] == epoch ? best[nb_idx]
                                                 : 1e18;
                const double total = top.cost + cost;
                if (total + 1e-12 < nb_best) {
                    best[nb_idx] = total;
                    via_link[nb_idx] = link;
                    visit_epoch[nb_idx] = epoch;
                    frontier.push_back(
                        {total, 1.0 * manhattan(hop.nb, to), nb_idx});
                    std::push_heap(frontier.begin(), frontier.end(),
                                   std::greater<QueueEntry>());
                }
            }
        }
        const bool reached =
            visit_epoch[goal] == epoch && via_link[goal] >= 0;
        if (!reached && goal != start)
            return {};
        std::vector<int> path;
        int cursor = goal;
        while (cursor != start) {
            const int link = via_link[cursor];
            path.push_back(link);
            cursor = link_src[link];
        }
        std::reverse(path.begin(), path.end());
        return path;
    };

    double present_pen = options.present_factor;
    for (int iter = 0; iter < options.max_iterations; ++iter) {
        // Each rip-up pass re-routes every net, so the iteration
        // boundary is the natural (and sufficient) poll point.
        if (Status s = options.deadline.check(
                "rip-up iteration " + std::to_string(iter + 1));
            !s.ok()) {
            result.status = std::move(s);
            return result;
        }
        result.iterations = iter + 1;
        // Rip up everything and reroute under current penalties.
        for (auto &s : link_signals)
            s.keys.clear();
        bool failed = false;
        for (std::size_t e = 0; e < placement.edges.size(); ++e) {
            const PlacedEdge &edge = placement.edges[e];
            const Coord from = placement.loc[edge.src];
            const Coord to = placement.loc[edge.dst];
            const std::int64_t key = signalKey(edge);
            auto path = route_net(from, to, key, present_pen);
            if (path.empty() && from != to) {
                failed = true;
                std::ostringstream os;
                os << "net " << e << " unroutable ((" << from.x << ','
                   << from.y << ") -> (" << to.x << ',' << to.y
                   << "))";
                result.status =
                    Status(ErrorCode::kRouteFailed, os.str());
                break;
            }
            for (int link : path)
                link_signals[link].insert(key);
            result.paths[e] = std::move(path);
        }
        if (failed)
            return result;

        // Congestion check on distinct signals per link.
        int overused = 0;
        for (int l = 0; l < links; ++l) {
            const int used = link_signals[l].count();
            if (used > options.tracks) {
                ++overused;
                history[l] += options.history_increment *
                              (used - options.tracks);
            }
        }
        if (overused == 0) {
            result.success = true;
            break;
        }
        present_pen *= 1.8;
    }

    result.link_usage.assign(links, 0);
    for (int l = 0; l < links; ++l)
        result.link_usage[l] = link_signals[l].count();

    if (!result.success) {
        if (result.status.ok()) {
            int overused = 0, worst = 0;
            for (int l = 0; l < links; ++l) {
                if (result.link_usage[l] > options.tracks) {
                    ++overused;
                    worst = std::max(worst, result.link_usage[l]);
                }
            }
            std::ostringstream os;
            os << "congestion not resolved after "
               << result.iterations << " iterations: " << overused
               << " links over capacity (worst " << worst << "/"
               << options.tracks << " tracks)";
            result.status = Status(ErrorCode::kRouteFailed, os.str());
        }
        return result;
    }
    result.total_hops = 0;
    for (const auto &path : result.paths)
        result.total_hops += static_cast<int>(path.size());
    for (std::size_t e = 0; e < placement.edges.size(); ++e) {
        const int hops_used =
            static_cast<int>(result.paths[e].size());
        if (placement.edges[e].regs > hops_used)
            result.register_overflow +=
                placement.edges[e].regs - hops_used;
    }
    return result;
}

} // namespace apex::cgra
