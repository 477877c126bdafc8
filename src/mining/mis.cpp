#include "mining/mis.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

#include "core/bitset.hpp"
#include "runtime/telemetry.hpp"

/*
 * Optimized MIS kernels.  Every function must return byte-identical
 * results to its counterpart in mis_reference.cpp (the differential
 * suite in tests/kernels_test.cpp enforces this): the overlap rows
 * come out ascending, greedy picks the (min live degree, min index)
 * vertex, and the exact search pivots on the (max live degree, min
 * index) vertex with strict-improvement incumbents — all identical
 * decision rules, only the data structures changed.
 */
namespace apex::mining {

namespace {

/**
 * The overlap graph as a union of per-target-node cliques.  Every
 * target node contained in at least two occurrences is a *bucket*
 * with one bitset row whose bits are the occurrences containing it;
 * occurrence i's closed neighbourhood N[i] is the OR of its bucket
 * rows (just {i} when it has none).  Nothing quadratic in a bucket's
 * size is ever materialized: a hub node shared by thousands of
 * occurrences is one row, not millions of edges.
 */
struct BucketRows {
    int n = 0;
    core::BitsetMatrix rows; ///< Row b = occurrences in bucket b.
    /** Occurrence i's buckets are ids[first[i] .. first[i + 1]). */
    std::vector<int> first;
    std::vector<int> ids;
    /** Bucket-row words ORed so far (apex.mis.overlap_words). */
    long long words_ored = 0;

    explicit BucketRows(
        const std::vector<std::vector<ir::NodeId>> &occurrences)
        : n(static_cast<int>(occurrences.size())), first(n + 1, 0)
    {
        // Compact bucket ids: sort the (target node, occurrence)
        // incidences so each node's occurrences form one run, in
        // ascending node order.
        std::vector<std::pair<ir::NodeId, int>> incidence;
        std::size_t total = 0;
        for (const auto &occ : occurrences)
            total += occ.size();
        incidence.reserve(total);
        for (int i = 0; i < n; ++i)
            for (ir::NodeId node : occurrences[i])
                incidence.emplace_back(node, i);
        std::sort(incidence.begin(), incidence.end());

        // Runs of at least two occurrences become buckets; a node
        // only one occurrence contains adds no overlap.
        std::vector<std::pair<std::size_t, std::size_t>> runs;
        for (std::size_t lo = 0; lo < incidence.size();) {
            std::size_t hi = lo + 1;
            while (hi < incidence.size() &&
                   incidence[hi].first == incidence[lo].first)
                ++hi;
            if (incidence[hi - 1].second != incidence[lo].second) {
                runs.emplace_back(lo, hi);
                for (std::size_t k = lo; k < hi; ++k)
                    ++first[incidence[k].second + 1];
            }
            lo = hi;
        }
        for (int i = 0; i < n; ++i)
            first[i + 1] += first[i];
        ids.resize(static_cast<std::size_t>(first[n]));
        rows = core::BitsetMatrix(runs.size(),
                                  static_cast<std::size_t>(n));
        std::vector<int> fill(first.begin(), first.end() - 1);
        for (std::size_t b = 0; b < runs.size(); ++b)
            for (std::size_t k = runs[b].first; k < runs[b].second;
                 ++k) {
                const int occ = incidence[k].second;
                rows.set(b, static_cast<std::size_t>(occ));
                ids[static_cast<std::size_t>(fill[occ]++)] =
                    static_cast<int>(b);
            }
        scratch_.resize(words());
    }

    std::size_t
    words() const
    {
        return rows.rowWords();
    }

    bool
    isolated(int i) const
    {
        return first[i] == first[i + 1];
    }

    /** OR bucket row @p b into @p out (words() words). */
    void
    orRow(int b, std::uint64_t *out)
    {
        const std::uint64_t *row = rows.row(static_cast<std::size_t>(b));
        for (std::size_t w = 0; w < words(); ++w)
            out[w] |= row[w];
        words_ored += static_cast<long long>(words());
    }

    /** N[i] as words() words in a scratch row that is overwritten by
     * the next call. */
    const std::uint64_t *
    neighbourhood(int i)
    {
        std::uint64_t *out = scratch_.data();
        std::fill(scratch_.begin(), scratch_.end(), 0);
        if (isolated(i))
            out[i >> 6] = 1ull << (i & 63);
        for (int k = first[i]; k < first[i + 1]; ++k)
            orRow(ids[k], out);
        return out;
    }

    /** |N(i) & live| for a live occurrence i. */
    int
    liveDegree(int i, const std::uint64_t *live)
    {
        if (isolated(i))
            return 0;
        const std::uint64_t *nb = neighbourhood(i);
        int count = 0;
        for (std::size_t w = 0; w < words(); ++w)
            count += std::popcount(nb[w] & live[w]);
        return count - 1; // i's own bit
    }

    /** |N(i) & set| over the words listed in @p set_words (the only
     * nonzero words of @p set). */
    int
    overlapCount(int i, const std::uint64_t *set,
                 const std::vector<int> &set_words)
    {
        int count = 0;
        for (int w : set_words) {
            std::uint64_t word = 0;
            for (int k = first[i]; k < first[i + 1]; ++k)
                word |= rows.row(static_cast<std::size_t>(ids[k]))[w];
            count += std::popcount(word & set[w]);
        }
        words_ored += static_cast<long long>(set_words.size()) *
                      (first[i + 1] - first[i]);
        return count;
    }

  private:
    std::vector<std::uint64_t> scratch_;
};

/**
 * Min-degree greedy on bucket rows with a bucket-by-degree structure:
 * heaps[d] is a lazy min-heap of vertices whose degree was d when
 * pushed.  After a pick removes R = N[best], only survivors sharing a
 * bucket with some removed vertex lost neighbours; each one's degree
 * drops by |N(s) & R|, ORed from its bucket rows over R's nonzero
 * words only, and is pushed afresh, so a live vertex always has a
 * valid entry at its true degree and stale copies are skipped on pop.  The picked vertex — (min live degree,
 * min index) — is identical to the reference scan's.
 */
MisResult
greedyMis(BucketRows &g)
{
    const int n = g.n;
    MisResult result;
    if (n == 0)
        return result;

    core::DenseBitset alive(static_cast<std::size_t>(n));
    alive.setAll();
    std::uint64_t *live = alive.data();
    std::vector<int> degree(n);
    int maxd = 0;
    for (int i = 0; i < n; ++i) {
        degree[i] = g.liveDegree(i, live);
        maxd = std::max(maxd, degree[i]);
    }
    using MinHeap = std::priority_queue<int, std::vector<int>,
                                        std::greater<int>>;
    std::vector<MinHeap> heaps(maxd + 1);
    for (int i = 0; i < n; ++i)
        heaps[degree[i]].push(i);

    // Scratch reused by every pick: the removed set and its nonzero
    // words, the survivors whose degree changed, and a per-bucket
    // pick stamp so each touched bucket row is ORed into `dirty` once
    // per pick.
    core::DenseBitset removed(static_cast<std::size_t>(n));
    std::vector<int> removed_words;
    core::DenseBitset dirty(static_cast<std::size_t>(n));
    std::vector<int> touched_at(g.rows.rows(), -1);

    int remaining = n;
    int cur = 0;
    for (int pick = 0; remaining > 0; ++pick) {
        int best = -1;
        while (best == -1) {
            if (heaps[cur].empty()) {
                ++cur;
                continue;
            }
            const int top = heaps[cur].top();
            if (!alive.test(top) || degree[top] != cur) {
                heaps[cur].pop(); // stale copy
                continue;
            }
            best = top;
        }
        result.chosen.push_back(best);

        // Remove R = N[best] & live.
        const std::uint64_t *nb = g.neighbourhood(best);
        removed_words.clear();
        for (std::size_t w = 0; w < g.words(); ++w) {
            const std::uint64_t r = nb[w] & live[w];
            removed.data()[w] = r;
            live[w] &= ~r;
            if (r) {
                removed_words.push_back(static_cast<int>(w));
                remaining -= std::popcount(r);
            }
        }

        // Survivors in a bucket of any removed vertex lost exactly
        // their neighbours in R — counted only over R's nonzero
        // words; nobody else's degree changed.
        dirty.clear();
        removed.forEach([&](int r) {
            for (int k = g.first[r]; k < g.first[r + 1]; ++k) {
                const int b = g.ids[k];
                if (touched_at[b] != pick) {
                    touched_at[b] = pick;
                    g.orRow(b, dirty.data());
                }
            }
        });
        dirty &= alive;
        dirty.forEach([&](int s) {
            degree[s] -= g.overlapCount(s, removed.data(),
                                        removed_words);
            heaps[degree[s]].push(s);
            cur = std::min(cur, degree[s]);
        });
    }
    std::sort(result.chosen.begin(), result.chosen.end());
    result.size = static_cast<int>(result.chosen.size());
    return result;
}

/** Open-neighbourhood adjacency rows: row i = N[i] minus i. */
core::BitsetMatrix
adjacencyRows(BucketRows &g)
{
    core::BitsetMatrix adj(static_cast<std::size_t>(g.n),
                           static_cast<std::size_t>(g.n));
    for (int i = 0; i < g.n; ++i) {
        const std::uint64_t *nb = g.neighbourhood(i);
        std::uint64_t *row = adj.row(static_cast<std::size_t>(i));
        std::copy(nb, nb + g.words(), row);
        row[i >> 6] &= ~(1ull << (i & 63));
    }
    return adj;
}

/**
 * Exact maximum independent set on dense bitset alive-sets.  Pivot =
 * (max live degree, min index), include/exclude branching, live-count
 * bound — the reference recursion's decision rules exactly, but the
 * live degrees are cached and updated on remove/restore instead of
 * being recomputed per recursion node, and neighbourhoods are bitset
 * rows instead of adjacency-list walks.
 */
struct ExactMis {
    int n;
    core::BitsetMatrix adj;  ///< Row v = neighbours of v.
    core::DenseBitset alive;
    std::vector<int> degree; ///< Live degree of each live vertex.
    std::vector<int> current;
    std::vector<int> best;
    std::vector<int> removed_stack; ///< Shared DFS removal stack.

    explicit ExactMis(core::BitsetMatrix rows)
        : n(static_cast<int>(rows.rows())), adj(std::move(rows)),
          alive(static_cast<std::size_t>(n)), degree(n)
    {
        for (int v = 0; v < n; ++v) {
            degree[v] = static_cast<int>(
                adj.rowCount(static_cast<std::size_t>(v)));
            alive.set(v);
        }
    }

    /** Remove the vertices on removed_stack[base..): clear alive bits
     * and decrement surviving neighbours' cached degrees. */
    void
    removeFrom(std::size_t base)
    {
        for (std::size_t k = base; k < removed_stack.size(); ++k) {
            const int r = removed_stack[k];
            alive.reset(r);
            forEachLiveNeighbour(
                r, [&](int nb) { --degree[nb]; });
        }
    }

    /** Exact inverse of removeFrom(): restore in reverse order so
     * every increment mirrors the decrement it undoes. */
    void
    restoreFrom(std::size_t base)
    {
        for (std::size_t k = removed_stack.size(); k-- > base;) {
            const int r = removed_stack[k];
            forEachLiveNeighbour(
                r, [&](int nb) { ++degree[nb]; });
            alive.set(r);
        }
        removed_stack.resize(base);
    }

    template <typename Fn>
    void
    forEachLiveNeighbour(int v, Fn &&fn)
    {
        const std::uint64_t *row = adj.row(v);
        const std::uint64_t *live = alive.data();
        for (std::size_t w = 0; w < alive.words(); ++w) {
            std::uint64_t word = row[w] & live[w];
            while (word) {
                fn(static_cast<int>(w * 64 +
                                    std::countr_zero(word)));
                word &= word - 1;
            }
        }
    }

    void
    recurse(int alive_count)
    {
        if (current.size() + alive_count <= best.size())
            return;
        // Pick the live vertex with the highest cached live degree
        // (ascending scan: first max wins, as in the reference).
        int pivot = -1, pivot_deg = -1;
        alive.forEach([&](int i) {
            if (degree[i] > pivot_deg) {
                pivot = i;
                pivot_deg = degree[i];
            }
        });
        if (pivot == -1) {
            if (current.size() > best.size())
                best = current;
            return;
        }
        if (pivot_deg == 0) {
            // All remaining vertices are isolated: take them all.
            std::vector<int> taken = current;
            alive.forEach([&](int i) { taken.push_back(i); });
            if (taken.size() > best.size())
                best = std::move(taken);
            return;
        }

        // Branch 1: include pivot (removes pivot + neighbourhood).
        {
            const std::size_t base = removed_stack.size();
            removed_stack.push_back(pivot);
            forEachLiveNeighbour(
                pivot, [&](int nb) { removed_stack.push_back(nb); });
            const int n_removed =
                static_cast<int>(removed_stack.size() - base);
            removeFrom(base);
            current.push_back(pivot);
            recurse(alive_count - n_removed);
            current.pop_back();
            restoreFrom(base);
        }
        // Branch 2: exclude pivot.
        {
            const std::size_t base = removed_stack.size();
            removed_stack.push_back(pivot);
            removeFrom(base);
            recurse(alive_count - 1);
            restoreFrom(base);
        }
    }
};

} // namespace

std::vector<std::vector<int>>
overlapGraph(const std::vector<std::vector<ir::NodeId>> &occurrences)
{
    BucketRows buckets(occurrences);
    const core::BitsetMatrix adj = adjacencyRows(buckets);
    std::vector<std::vector<int>> lists(occurrences.size());
    for (std::size_t i = 0; i < lists.size(); ++i)
        adj.forEachInRow(i, [&](int j) { lists[i].push_back(j); });
    return lists;
}

MisResult
maximalIndependentSet(
    const std::vector<std::vector<ir::NodeId>> &occurrences,
    int exact_limit)
{
    const int n = static_cast<int>(occurrences.size());
    if (n == 0)
        return {};
    telemetry::StageTimer timer(
        telemetry::histogram("apex.mis.solve.ms"));
    static telemetry::Counter &overlap_words =
        telemetry::counter("apex.mis.overlap_words");

    BucketRows buckets(occurrences);
    MisResult r;
    if (n <= exact_limit) {
        ExactMis solver(adjacencyRows(buckets));
        solver.best = greedyMis(buckets).chosen; // seed bound
        solver.recurse(n);
        std::sort(solver.best.begin(), solver.best.end());
        r.chosen = std::move(solver.best);
        r.size = static_cast<int>(r.chosen.size());
    } else {
        r = greedyMis(buckets);
    }
    overlap_words.add(buckets.words_ored);
    return r;
}

} // namespace apex::mining
