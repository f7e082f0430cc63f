// Copyright (c) the semis authors.
// Algorithm 1: the semi-external greedy algorithm. One sequential scan of
// an adjacency file; a vertex whose state is still INITIAL when its record
// arrives joins the independent set and lazily knocks out its (unvisited)
// neighbors. On a degree-sorted file this is the paper's GREEDY; on an
// id-ordered file it is the paper's BASELINE (same code, weaker ordering).
//
// The input is any store AdjacencyFileScanner reads: a SADJ file, a SADJS
// manifest or a journaled root. The commit order is the store's record
// order, so a store and the SADJ file it was split from give the same
// set. The scan is sequential by design; threads would have nothing to
// do but decode ahead of it, and a decode-ahead pipeline never beat the
// plain scan.
#ifndef SEMIS_CORE_GREEDY_H_
#define SEMIS_CORE_GREEDY_H_

#include <string>
#include <vector>

#include "core/mis_common.h"
#include "graph/adjacency_file.h"
#include "util/status.h"

namespace semis {

/// Options for the greedy scan.
struct GreedyOptions {
  /// When true, a non-degree-sorted input file is rejected so callers
  /// cannot silently run GREEDY quality experiments on BASELINE input.
  bool require_degree_sorted = false;
};

/// Runs Algorithm 1 over the adjacency file or store at `path`.
/// On return `result->in_set` holds a maximal independent set.
Status RunGreedy(const std::string& path, const GreedyOptions& options,
                 AlgoResult* result);

/// As RunGreedy, but additionally exposes the final state array
/// (kI / kN per vertex) for callers that feed a swap algorithm.
Status RunGreedyWithStates(const std::string& path,
                           const GreedyOptions& options, AlgoResult* result,
                           std::vector<VState>* states);

}  // namespace semis

#endif  // SEMIS_CORE_GREEDY_H_
