#include "graph/graph_stats.h"

#include <algorithm>
#include <cmath>

#include "graph/adjacency_file.h"

namespace semis {

namespace {

// Fits log(y) = a - b*log(x) over populated histogram cells x >= 1.
// Returns {a, b}; {0, 0} when underdetermined.
std::pair<double, double> FitLogLog(const std::vector<uint64_t>& hist) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int n = 0;
  for (size_t d = 1; d < hist.size(); ++d) {
    if (hist[d] == 0) continue;
    double x = std::log(static_cast<double>(d));
    double y = std::log(static_cast<double>(hist[d]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    n++;
  }
  if (n < 2) return {0.0, 0.0};
  double denom = n * sxx - sx * sx;
  if (denom == 0) return {0.0, 0.0};
  double slope = (n * sxy - sx * sy) / denom;
  double intercept = (sy - slope * sx) / n;
  return {intercept, -slope};
}

void FinalizeStats(GraphStats* s) {
  s->min_degree = 0;
  s->isolated_vertices =
      s->degree_histogram.empty() ? 0 : s->degree_histogram[0];
  bool found_min = false;
  for (size_t d = 0; d < s->degree_histogram.size(); ++d) {
    if (s->degree_histogram[d] > 0 && !found_min) {
      s->min_degree = static_cast<uint32_t>(d);
      found_min = true;
    }
  }
  s->avg_degree = s->num_vertices == 0
                      ? 0.0
                      : 2.0 * static_cast<double>(s->num_edges) /
                            static_cast<double>(s->num_vertices);
}

}  // namespace

double GraphStats::EstimateBeta() const {
  return FitLogLog(degree_histogram).second;
}

double GraphStats::EstimateAlpha() const {
  return FitLogLog(degree_histogram).first;
}

GraphStats ComputeGraphStats(const Graph& graph) {
  GraphStats s;
  s.num_vertices = graph.NumVertices();
  s.num_edges = graph.NumEdges();
  s.max_degree = graph.MaxDegree();
  s.degree_histogram.assign(s.max_degree + 1, 0);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    s.degree_histogram[graph.Degree(v)]++;
  }
  FinalizeStats(&s);
  return s;
}

Status ComputeGraphStatsFromFile(const std::string& path, GraphStats* stats,
                                 IoStats* io_stats) {
  AdjacencyFileScanner scanner(io_stats);
  SEMIS_RETURN_IF_ERROR(scanner.Open(path));
  const AdjacencyFileHeader& h = scanner.header();
  GraphStats s;
  s.num_vertices = h.num_vertices;
  s.num_edges = h.num_directed_edges / 2;
  s.max_degree = h.max_degree;
  s.degree_histogram.assign(static_cast<size_t>(h.max_degree) + 1, 0);
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    s.degree_histogram[rec.degree]++;
  }
  FinalizeStats(&s);
  *stats = s;
  return Status::OK();
}

}  // namespace semis
