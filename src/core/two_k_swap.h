// Copyright (c) the semis authors.
// Algorithms 3-4: the TWO-K-SWAP algorithm. Extends one-k-swap with
// 2<->k swaps (k >= 3): two IS vertices w1, w2 leave, three or more non-IS
// vertices enter. The A state now admits one OR two IS neighbors; ISN(u)
// is a set of at most two vertices.
//
// Swap candidates (Definition 2) and 2-3 swap skeletons (Definition 3) are
// discovered incrementally in scan order, so that every pairwise
// non-adjacency test only ever consults the adjacency list currently in
// hand (this is what makes the search possible without random disk
// access):
//   * per IS-pair (w1,w2), SC(w1,w2) accumulates "anchor" vertices
//     (ISN = {w1,w2}) and candidate pairs (anchor, partner);
//   * per IS vertex w, a list of "single" A vertices (ISN = {w}) lets a
//     later anchor pick a partner with ISN inside its pair;
//   * when a third mutually non-adjacent vertex arrives, the 2-3 skeleton
//     fires: three vertices become P, w1 and w2 become R, and SC(w1,w2)
//     is freed (Algorithm 4 line 8).
// The SC structures are a SwapCandidateIndex (core/swap_candidate_index.h,
// shared with the parallel executor), cleared at the start of every
// pre-swap scan with its capacity kept. Their peak vertex count is
// reported (Figure 10 plots it at about 0.13 |V|, and Lemma 6 bounds it by
// |V| - e^alpha).
//
// One-k swaps (Definition 1) remain available inside the same round via
// the ISN^-1 counting trick, restricted to single-ISN vertices.
#ifndef SEMIS_CORE_TWO_K_SWAP_H_
#define SEMIS_CORE_TWO_K_SWAP_H_

#include <string>

#include "core/mis_common.h"
#include "core/one_k_swap.h"  // PhaseObserver
#include "util/bit_vector.h"
#include "util/status.h"

namespace semis {

/// Options for TWO-K-SWAP.
struct TwoKSwapOptions {
  /// Stop after this many rounds (0 = until convergence). Table 8 style
  /// early stop.
  uint32_t max_rounds = 0;
  /// Final completion scan guaranteeing maximality (see OneKSwapOptions).
  bool final_maximality_pass = true;
  /// Safety valve: maximum pairs stored per SC bucket. The paper bounds
  /// |SC(w1,w2)| by deg(w1)+deg(w2); this cap (default 64) keeps the
  /// pre-swap scan linear even on adversarial inputs, at the cost of
  /// possibly missing some 2-3 skeletons in one round (they are found in
  /// later rounds).
  uint32_t max_pairs_per_bucket = 64;
  /// Stall guard: stop after this many consecutive rounds in which swaps
  /// fired but |IS| did not grow (denied promotions can make a round
  /// net-neutral; a run of such rounds means the remaining skeletons keep
  /// losing the same races). 0 disables the guard.
  uint32_t stall_round_limit = 3;
  /// Optional per-phase state snapshot hook (tests/debugging).
  PhaseObserver observer;
};

/// Runs TWO-K-SWAP on the adjacency file at `path`, starting from
/// `initial_set` (an independent set over the same graph, e.g. the greedy
/// result).
Status RunTwoKSwap(const std::string& path, const BitVector& initial_set,
                   const TwoKSwapOptions& options, AlgoResult* result);

}  // namespace semis

#endif  // SEMIS_CORE_TWO_K_SWAP_H_
