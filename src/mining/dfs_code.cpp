#include "mining/dfs_code.hpp"

#include <algorithm>

#include "mining/isomorphism.hpp"

namespace apex::mining::dfs {

using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::Op;

CoreView
coreView(const Graph &pattern)
{
    CoreView view;
    std::vector<int> core_index(pattern.size(), -1);
    for (NodeId id = 0; id < pattern.size(); ++id) {
        if (isPlaceholder(pattern, id))
            continue;
        core_index[id] = static_cast<int>(view.labels.size());
        const Node &n = pattern.node(id);
        view.labels.emplace_back(
            n.op, n.op == Op::kLut ? n.param : 0);
    }
    view.adj.resize(view.labels.size());
    for (NodeId id = 0; id < pattern.size(); ++id) {
        const int consumer = core_index[id];
        if (consumer < 0)
            continue;
        const Node &n = pattern.node(id);
        for (std::size_t p = 0; p < n.operands.size(); ++p) {
            const int producer = core_index[n.operands[p]];
            if (producer < 0)
                continue;
            view.adj[consumer].push_back(
                {producer, 0, static_cast<int>(p)});
            view.adj[producer].push_back(
                {consumer, 1, static_cast<int>(p)});
        }
    }
    return view;
}

namespace {

/** Edge token: (position of the earlier endpoint, direction, port).
 * Position dominates, then direction, then port — one u64 keeps the
 * whole code flat and comparisons branch-free. */
std::uint64_t
edgeToken(int pos, int dir, int port)
{
    return (static_cast<std::uint64_t>(pos) << 33) |
           (static_cast<std::uint64_t>(dir) << 32) |
           static_cast<std::uint64_t>(port);
}

/** Branch-and-bound over connected expansions.  `best` is the
 * incumbent; every candidate segment is
 * compared against it token by token while the prefix is still equal,
 * and greater branches die before recursing. */
struct Search {
    const CoreView &g;
    Code cur;
    Code best;
    bool have_best = false;
    std::vector<int> pos; ///< vertex -> discovery index, or -1.
    int placed = 0;

    explicit Search(const CoreView &view)
        : g(view), pos(view.size(), -1) {}

    /** The tokens vertex @p v would emit if discovered next. */
    Code segmentFor(int v) const
    {
        Code seg;
        seg.push_back(static_cast<std::uint64_t>(g.labels[v].first));
        seg.push_back(g.labels[v].second);
        if (placed == 0)
            return seg;
        Code edges;
        for (const CoreView::Half &h : g.adj[v])
            if (pos[h.other] >= 0)
                edges.push_back(
                    edgeToken(pos[h.other], h.dir, h.port));
        std::sort(edges.begin(), edges.end());
        seg.push_back(static_cast<std::uint64_t>(edges.size()));
        seg.insert(seg.end(), edges.begin(), edges.end());
        return seg;
    }

    void recurse(bool eq)
    {
        if (placed == static_cast<int>(g.size())) {
            if (!have_best) {
                best = cur;
                have_best = true;
            } else if (!eq && cur < best) {
                // `eq` frames arrive exactly equal to the incumbent
                // (all complete codes of one core have equal length).
                // Diverged frames stopped comparing against a since-
                // replaced incumbent, so compare the completion.
                best = cur;
            }
            return;
        }

        struct Cand {
            Code seg;
            int v;
        };
        std::vector<Cand> cands;
        for (int v = 0; v < static_cast<int>(g.size()); ++v) {
            if (pos[v] >= 0)
                continue;
            if (placed > 0) {
                bool attached = false;
                for (const CoreView::Half &h : g.adj[v])
                    if (pos[h.other] >= 0) {
                        attached = true;
                        break;
                    }
                if (!attached)
                    continue;
            }
            cands.push_back({segmentFor(v), v});
        }
        std::sort(cands.begin(), cands.end(),
                  [](const Cand &a, const Cand &b) {
                      return a.seg != b.seg ? a.seg < b.seg
                                            : a.v < b.v;
                  });

        for (const Cand &c : cands) {
            bool child_eq = eq;
            if (have_best && child_eq) {
                bool prune = false;
                for (std::size_t i = 0; i < c.seg.size(); ++i) {
                    const std::size_t at = cur.size() + i;
                    if (at >= best.size() ||
                        c.seg[i] > best[at]) {
                        prune = true;
                        break;
                    }
                    if (c.seg[i] < best[at]) {
                        child_eq = false;
                        break;
                    }
                }
                if (prune)
                    continue;
            }
            const std::size_t mark = cur.size();
            cur.insert(cur.end(), c.seg.begin(), c.seg.end());
            pos[c.v] = placed++;
            recurse(child_eq);
            --placed;
            pos[c.v] = -1;
            cur.resize(mark);
        }
    }
};

} // namespace

Code
minCode(const CoreView &core)
{
    if (core.size() == 0)
        return {};
    Search s(core);
    s.recurse(true);
    return s.best;
}

} // namespace apex::mining::dfs
