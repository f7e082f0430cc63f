#include "graph/degree_sort.h"

#include <vector>

#include "graph/adjacency_file.h"
#include "io/external_sorter.h"

namespace semis {

Status BuildDegreeSortedAdjacencyFile(const std::string& input_path,
                                      const std::string& output_path,
                                      const DegreeSortOptions& options) {
  AdjacencyFileScanner scanner(options.stats);
  SEMIS_RETURN_IF_ERROR(scanner.Open(input_path));
  const AdjacencyFileHeader header = scanner.header();

  ExternalSorterOptions sorter_opts;
  sorter_opts.memory_budget_bytes = options.memory_budget_bytes;
  sorter_opts.fan_in = options.fan_in;
  sorter_opts.stats = options.stats;
  sorter_opts.memory = options.memory;
  ExternalSorter sorter(sorter_opts);

  // Key = (degree << 32) | id: ascending degree, ties by id. The id rides
  // in the key's low bits so the payload is just the neighbor list.
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    uint64_t key =
        (static_cast<uint64_t>(rec.degree) << 32) | static_cast<uint64_t>(rec.id);
    SEMIS_RETURN_IF_ERROR(sorter.Add(key, rec.neighbors, rec.degree));
  }
  SEMIS_RETURN_IF_ERROR(sorter.Finish());

  AdjacencyFileWriter writer(options.stats);
  SEMIS_RETURN_IF_ERROR(writer.Open(
      output_path, header.num_vertices, header.num_directed_edges,
      header.max_degree, header.flags | kAdjFlagDegreeSorted));
  uint64_t key = 0;
  std::vector<uint32_t> payload;
  while (sorter.Next(&key, &payload)) {
    VertexId id = static_cast<VertexId>(key & 0xFFFFFFFFull);
    uint32_t degree = static_cast<uint32_t>(key >> 32);
    if (degree != payload.size()) {
      return Status::Corruption("degree/payload mismatch during degree sort");
    }
    SEMIS_RETURN_IF_ERROR(writer.AppendVertex(id, payload.data(), degree));
  }
  SEMIS_RETURN_IF_ERROR(sorter.status());
  return writer.Finish();
}

}  // namespace semis
