// Copyright (c) the semis authors.
// Streaming verification of independence and maximality. Used by tests,
// by examples, and (optionally) by the Solver as a final self-check --
// the same discipline a storage engine applies with paranoid checks.
#ifndef SEMIS_CORE_VERIFY_H_
#define SEMIS_CORE_VERIFY_H_

#include <string>

#include "graph/graph.h"
#include "io/io_stats.h"
#include "util/bit_vector.h"
#include "util/status.h"

namespace semis {

/// Result of a set verification.
struct VerifyResult {
  /// No edge has both endpoints in the set.
  bool independent = false;
  /// Every vertex outside the set has a neighbor inside it.
  bool maximal = false;
  /// A witness when a property fails (edge in set / addable vertex).
  VertexId witness_u = kInvalidVertex;
  VertexId witness_v = kInvalidVertex;
};

/// Verifies `set` against the graph stored at `adjacency_path` -- a SADJ
/// file or a store root (AdjacencyFileScanner::Open) -- with one
/// sequential scan and O(|V|) bits of memory.
Status VerifyIndependentSetFile(const std::string& adjacency_path,
                                const BitVector& set, VerifyResult* result,
                                IoStats* stats = nullptr);

/// Same as VerifyIndependentSetFile, under the name sharded callers use.
Status VerifyIndependentSetShardedFile(const std::string& manifest_path,
                                       const BitVector& set,
                                       VerifyResult* result,
                                       IoStats* stats = nullptr);

/// In-memory variant for tests.
VerifyResult VerifyIndependentSet(const Graph& graph, const BitVector& set);

}  // namespace semis

#endif  // SEMIS_CORE_VERIFY_H_
