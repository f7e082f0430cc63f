#include "core/vertex_cover.h"

#include "graph/adjacency_file.h"

namespace semis {

Status ComputeVertexCoverFile(const std::string& adjacency_path,
                              const SolverOptions& options,
                              VertexCoverResult* result) {
  VertexCoverResult res;
  Solver solver(options);
  SEMIS_RETURN_IF_ERROR(solver.SolveFile(adjacency_path, &res.mis));
  const size_t n = res.mis.set.size();
  res.cover.Resize(n);
  for (size_t v = 0; v < n; ++v) {
    if (!res.mis.set.Test(v)) res.cover.Set(v);
  }
  res.cover_size = n - res.mis.set_size;
  *result = std::move(res);
  return Status::OK();
}

Status VerifyVertexCoverFile(const std::string& adjacency_path,
                             const BitVector& cover,
                             uint64_t* uncovered_edges, IoStats* stats) {
  AdjacencyFileScanner scanner(stats);
  SEMIS_RETURN_IF_ERROR(scanner.Open(adjacency_path));
  if (scanner.header().num_vertices != cover.size()) {
    return Status::InvalidArgument("cover size != graph vertex count");
  }
  uint64_t violations = 0;
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    if (cover.Test(rec.id)) continue;
    for (uint32_t i = 0; i < rec.degree; ++i) {
      // Count each undirected edge once (from its smaller endpoint).
      if (rec.id < rec.neighbors[i] && !cover.Test(rec.neighbors[i])) {
        violations++;
      }
    }
  }
  *uncovered_edges = violations;
  return Status::OK();
}

}  // namespace semis
