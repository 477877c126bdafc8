#ifndef APEX_IR_SIGNATURE_H_
#define APEX_IR_SIGNATURE_H_

#include <cstdint>
#include <string>

#include "core/deadline.hpp"
#include "core/status.hpp"
#include "ir/graph.hpp"

/**
 * @file
 * Canonical codes for small dataflow graphs.
 *
 * The subgraph miner grows patterns along many redundant paths; to
 * deduplicate, every pattern is reduced to a canonical string that is
 * identical for isomorphic patterns and different for non-isomorphic
 * ones.  Canonicalization uses Weisfeiler-Lehman color refinement to
 * restrict the search, followed by exact enumeration of color-respecting
 * permutations (patterns are small, typically <= 8 nodes).
 *
 * Labels: the op mnemonic; kLut additionally carries its truth table.
 * Constant *values* are deliberately excluded — a pattern multiplying by
 * any weight is one pattern.  Edge port indices are part of the code so
 * non-commutative operand order is preserved.
 */

namespace apex::ir {

/**
 * @return a canonical code: equal for isomorphic graphs (same labels and
 * port-preserving edge structure), distinct otherwise.
 */
std::string canonicalCode(const Graph &g);

/**
 * Deadline-aware canonicalCode().  The permutation enumeration is
 * worst-case factorial in the largest WL color class, so miners run
 * it under a wall-clock bound: the code (identical to
 * canonicalCode(g)) when the search finishes in time, or a kTimeout
 * Status once @p deadline expires mid-search.  A partial code is
 * never returned — a non-minimal code would silently break
 * deduplication.
 */
Result<std::string> tryCanonicalCode(const Graph &g,
                                     const Deadline &deadline);

/** @return true when @p a and @p b are isomorphic as labeled DAGs. */
bool isomorphic(const Graph &a, const Graph &b);

/**
 * Incremental FNV-1a hasher for building content-addressed cache
 * keys out of graphs and stage parameters (runtime/cache).
 */
class Fnv64 {
  public:
    Fnv64 &mix(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 1099511628211ull;
        }
        return *this;
    }
    Fnv64 &mix(std::string_view s) {
        for (const char c : s) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= 1099511628211ull;
        }
        mix(static_cast<std::uint64_t>(s.size())); // length-delimited
        return *this;
    }
    /** Hash the exact bit pattern (distinguishes -0.0, NaN payloads). */
    Fnv64 &mixDouble(double v);

    std::uint64_t digest() const { return h_; }

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

/**
 * @return a linear-time content fingerprint of @p g: ops, params and
 * operand wiring in node order (debug names excluded — they do not
 * affect any evaluation result).  Unlike canonicalCode() this is NOT
 * canonical under isomorphism — two differently-ordered but
 * isomorphic graphs hash differently — which is exactly the right
 * contract for memoization keys: equal fingerprint => recomputation
 * is guaranteed redundant, and the miss on a reordered graph only
 * costs time.  canonicalCode() stays the identity for pattern
 * deduplication, where isomorphism-invariance is required.
 */
std::uint64_t fingerprint(const Graph &g);

} // namespace apex::ir

#endif // APEX_IR_SIGNATURE_H_
