// Differential-testing harness for the shard-native streaming update
// pipeline (core/incremental_stream.h). Reference semantics, checked on
// seeded random update streams over PLRG, Erdos-Renyi and the paper's
// worked-example graphs:
//
//   * after every ApplyBatch the maintained set is independent on the
//     UPDATED graph; after every Repair it is also maximal (the
//     quality invariant a from-scratch solve guarantees);
//   * the repaired set is byte-identical to sequential
//     IncrementalMis::Repair on the equivalent monolithic file, and
//     identical across every tested shard/thread combination
//     (1/2/8 threads x 1/3/7 shards) -- the determinism contract;
//   * compaction never changes the effective graph or the maintained
//     set, and a restarted session replays the on-disk delta back to the
//     exact same state.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "core/incremental_stream.h"
#include "core/solver.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "gen/paper_figures.h"
#include "gen/plrg.h"
#include "graph/graph_io.h"
#include "graph/sharded_adjacency_file.h"
#include "io/edge_delta_file.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::RandomMaximalSet;
using testing_util::ScratchTest;
using testing_util::SetToVector;
using testing_util::WriteGraphFile;

class IncrementalStreamTest : public ScratchTest {};

constexpr uint32_t kShardCounts[] = {1, 3, 7};
constexpr uint32_t kThreadCounts[] = {1, 2, 8};

// Rebuilds the updated graph in memory for verification.
Graph ApplyDelta(const Graph& base, const std::set<Edge>& inserted,
                 const std::set<Edge>& deleted) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v < base.NumVertices(); ++v) {
    for (VertexId u : base.Neighbors(v)) {
      if (v < u && deleted.find({v, u}) == deleted.end()) {
        edges.emplace_back(v, u);
      }
    }
  }
  for (const Edge& e : inserted) edges.push_back(e);
  return Graph::FromEdges(base.NumVertices(), std::move(edges));
}

// One maintainer bound to its own sharded copy of the base graph.
struct Instance {
  std::string manifest;
  ShardedStreamingMis mis;
};

// Shards `mono_path` into one copy per (shard count x thread count)
// combination and initializes a maintainer on each.
void MakeInstances(ScratchDir* scratch, const std::string& mono_path,
                   const BitVector& initial, const std::string& tag,
                   uint64_t compact_threshold,
                   std::vector<Instance>* instances) {
  for (uint32_t shards : kShardCounts) {
    for (uint32_t threads : kThreadCounts) {
      instances->emplace_back();
      Instance& i = instances->back();
      i.manifest = scratch->NewFilePath(tag + "_s" + std::to_string(shards) +
                                        "_t" + std::to_string(threads) +
                                        ".sadjs");
      ASSERT_OK(ShardAdjacencyFile(mono_path, i.manifest, shards));
      EnginePipelineOptions opts;
      opts.num_threads = threads;
      opts.compact_threshold_entries = compact_threshold;
      ASSERT_OK(i.mis.Initialize(i.manifest, initial, opts));
    }
  }
}

// Drives a seeded random update stream over `base` through a sequential
// IncrementalMis and the full shard/thread matrix, checking equality and
// the independence/maximality invariants after every batch + repair.
void RunDifferentialStream(ScratchDir* scratch, const Graph& base,
                           uint64_t seed, int steps, int batch,
                           uint64_t compact_threshold) {
  const VertexId n = base.NumVertices();
  std::string tag = "base";
  tag += std::to_string(seed);
  tag += ".adj";
  std::string mono = scratch->NewFilePath(tag);
  ASSERT_OK(WriteGraphToAdjacencyFile(base, mono));
  BitVector initial = RandomMaximalSet(base, seed + 77);

  IncrementalMis reference;
  ASSERT_OK(reference.Initialize(mono, initial));
  std::vector<Instance> instances;
  std::string graph_tag = "g";
  graph_tag += std::to_string(seed);
  MakeInstances(scratch, mono, initial, graph_tag, compact_threshold,
                &instances);

  std::set<Edge> inserted, deleted;
  Random rng(seed * 131 + 9);
  std::vector<EdgeUpdate> batch_updates;
  for (int step = 0; step < steps; ++step) {
    VertexId u = static_cast<VertexId>(rng.Uniform(n));
    VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v) continue;
    Edge e{std::min(u, v), std::max(u, v)};
    const bool in_base = base.HasEdge(u, v);
    const bool exists = (in_base && deleted.find(e) == deleted.end()) ||
                        inserted.find(e) != inserted.end();
    // Mostly flip the edge's existence; sometimes send redundant traffic
    // (duplicate insert / delete of an absent edge) on purpose.
    const bool redundant = rng.OneIn(0.15);
    if ((exists && !redundant) || (!exists && redundant)) {
      batch_updates.push_back(EdgeUpdate::Delete(u, v));
      ASSERT_OK(reference.DeleteEdge(u, v));
      inserted.erase(e);
      if (in_base) deleted.insert(e);
    } else {
      batch_updates.push_back(EdgeUpdate::Insert(u, v));
      ASSERT_OK(reference.InsertEdge(u, v));
      deleted.erase(e);
      if (!in_base) inserted.insert(e);
    }

    if (static_cast<int>(batch_updates.size()) < batch &&
        step + 1 < steps) {
      continue;
    }
    ASSERT_OK(reference.Repair());
    const std::vector<VertexId> expected = SetToVector(reference.set());
    Graph updated = ApplyDelta(base, inserted, deleted);
    for (Instance& inst : instances) {
      ASSERT_OK(inst.mis.ApplyBatch(batch_updates));
      // Independence must hold after every batch, before any repair.
      VerifyResult pre = VerifyIndependentSet(updated, inst.mis.set());
      ASSERT_TRUE(pre.independent)
          << "seed " << seed << " step " << step << " manifest "
          << inst.manifest << " edge " << pre.witness_u << "-"
          << pre.witness_v;
      ASSERT_OK(inst.mis.Repair());
      // Byte-identical to the sequential monolithic reference -- which
      // also proves every shard/thread combination identical to every
      // other.
      ASSERT_EQ(SetToVector(inst.mis.set()), expected)
          << "seed " << seed << " step " << step << " manifest "
          << inst.manifest;
      ASSERT_EQ(inst.mis.set_size(), inst.mis.set().Count());
      // The quality invariant of a from-scratch solve: independent AND
      // maximal on the updated graph.
      VerifyResult vr = VerifyIndependentSet(updated, inst.mis.set());
      ASSERT_TRUE(vr.independent) << "seed " << seed << " step " << step;
      ASSERT_TRUE(vr.maximal)
          << "seed " << seed << " step " << step << " manifest "
          << inst.manifest << " vertex " << vr.witness_u;
    }
    batch_updates.clear();
  }
}

TEST_F(IncrementalStreamTest, DifferentialRandomStreamsErdosRenyi) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Graph base = GenerateErdosRenyi(90, 220, seed + 5);
    RunDifferentialStream(&scratch_, base, seed, /*steps=*/120,
                          /*batch=*/25, /*compact_threshold=*/0);
  }
}

TEST_F(IncrementalStreamTest, DifferentialRandomStreamPlrg) {
  Graph base = GeneratePlrg(PlrgSpec::ForVertexCount(300, 2.0), 11);
  RunDifferentialStream(&scratch_, base, 42, /*steps=*/150, /*batch=*/30,
                        /*compact_threshold=*/0);
}

TEST_F(IncrementalStreamTest, DifferentialStreamWithAutoCompaction) {
  // Same differential matrix, but with a low compaction threshold so
  // shards are rewritten mid-stream: folding the delta into the base must
  // never change any answer.
  Graph base = GenerateErdosRenyi(80, 180, 33);
  RunDifferentialStream(&scratch_, base, 7, /*steps=*/120, /*batch=*/20,
                        /*compact_threshold=*/8);
}

TEST_F(IncrementalStreamTest, DifferentialStreamOnWorkedExamples) {
  int tag = 0;
  for (const PaperExample& ex :
       {Figure1Example(), Figure2Example(), Figure7Example(),
        Figure5Example()}) {
    RunDifferentialStream(&scratch_, ex.graph, 1000 + tag, /*steps=*/60,
                          /*batch=*/10, /*compact_threshold=*/0);
    tag++;
  }
}

// Shard holding vertex `v`'s base record in the store at `manifest_path`.
uint32_t ShardOf(const std::string& manifest_path, VertexId v) {
  ShardedAdjacencyManifest manifest;
  EXPECT_OK(ReadShardedAdjacencyManifest(manifest_path, &manifest));
  for (uint32_t k = 0; k < manifest.num_shards(); ++k) {
    AdjacencyShardReader reader;
    EXPECT_OK(reader.Open(manifest_path, manifest, k));
    VertexRecordView rec;
    bool has_next = false;
    while (reader.Next(&rec, &has_next).ok() && has_next) {
      if (rec.id == v) return k;
    }
  }
  ADD_FAILURE() << "no record for vertex " << v;
  return 0;
}

TEST_F(IncrementalStreamTest, OneSidedCompactionOfACrossShardEdge) {
  // Repair and compaction read the GLOBAL delta state, while a shard
  // compacts only its own log. The case that equivalence rests on: a
  // cross-shard edge u-v (u in shard s, v in shard t) whose insert is
  // folded into s's base while t's copy stays pending, followed by
  // delete -> re-insert -> delete. u and v are isolated in the base and
  // both start in the set, so every step flips v's membership and a
  // mis-masked or double-counted edge shows up in the set.
  constexpr VertexId kN = 48;
  constexpr VertexId kU = 0;
  constexpr VertexId kV = kN - 1;
  constexpr VertexId kA = 1;  // a, b: a pair in u's shard, toggled to
  constexpr VertexId kB = 2;  // bring that shard to the threshold alone
  constexpr uint64_t kThreshold = 6;
  const Graph er = GenerateErdosRenyi(kN, 90, 17);
  std::vector<Edge> edges;
  for (VertexId a = kU + 1; a < kV; ++a) {
    for (VertexId b : er.Neighbors(a)) {
      if (a < b && b < kV) edges.emplace_back(a, b);
    }
  }
  const Graph base = Graph::FromEdges(kN, std::move(edges));
  const std::string mono = WriteGraphFile(&scratch_, base);
  const BitVector initial = RandomMaximalSet(base, 5);
  ASSERT_TRUE(initial.Test(kU) && initial.Test(kV));

  // kThreshold - 1 toggles of a-b, then the u-v insert: u's shard reaches
  // the threshold with the insert, v's shard holds one entry.
  std::vector<std::vector<EdgeUpdate>> batches(1);
  for (uint64_t i = 0; i + 1 < kThreshold; ++i) {
    batches[0].push_back(i % 2 == 0 ? EdgeUpdate::Insert(kA, kB)
                                    : EdgeUpdate::Delete(kA, kB));
  }
  batches.push_back({EdgeUpdate::Insert(kU, kV)});
  batches.push_back({EdgeUpdate::Delete(kU, kV)});
  batches.push_back({EdgeUpdate::Insert(kU, kV)});
  batches.push_back({EdgeUpdate::Delete(kU, kV)});

  std::vector<Instance> instances;
  MakeInstances(&scratch_, mono, initial, "onesided", kThreshold,
                &instances);
  for (Instance& inst : instances) {
    const uint32_t num_shards = inst.mis.manifest().num_shards();
    const uint32_t s = ShardOf(inst.manifest, kU);
    ASSERT_EQ(ShardOf(inst.manifest, kA), s);
    ASSERT_EQ(ShardOf(inst.manifest, kB), s);
    if (num_shards > 1) {
      ASSERT_NE(ShardOf(inst.manifest, kV), s);
    }

    IncrementalMis reference;
    ASSERT_OK(reference.Initialize(mono, initial));
    for (size_t step = 0; step < batches.size(); ++step) {
      for (const EdgeUpdate& up : batches[step]) {
        ASSERT_OK(up.op == EdgeDeltaOp::kInsert
                      ? reference.InsertEdge(up.u, up.v)
                      : reference.DeleteEdge(up.u, up.v));
      }
      ASSERT_OK(reference.Repair());
      ASSERT_OK(inst.mis.ApplyBatch(batches[step]));
      ASSERT_OK(inst.mis.Repair());
      ASSERT_EQ(SetToVector(inst.mis.set()), SetToVector(reference.set()))
          << inst.manifest << " step " << step;
      if (step == 1) {
        // Only u's shard compacted; v's copy of the insert is pending.
        EXPECT_EQ(inst.mis.stats().shards_rewritten, 1u) << inst.manifest;
        EXPECT_EQ(inst.mis.stats().pending_delta_entries,
                  num_shards > 1 ? 1u : 0u)
            << inst.manifest;
      }
    }
    EXPECT_EQ(inst.mis.stats().shards_rewritten, 1u) << inst.manifest;
    const std::vector<VertexId> expected = SetToVector(reference.set());
    EXPECT_TRUE(reference.set().Test(kV));

    // A restarted session replays the lopsided logs over the compacted
    // base and repairs to the same set.
    {
      ShardedStreamingMis replay;
      ASSERT_OK(replay.Initialize(inst.manifest, inst.mis.set(),
                                  EnginePipelineOptions{}));
      ASSERT_OK(replay.Repair());
      EXPECT_EQ(SetToVector(replay.set()), expected) << inst.manifest;
    }

    // Folding everything in changes neither the set nor a repair of it,
    // and a session restarted on the compacted store agrees.
    ASSERT_OK(inst.mis.Compact(/*force=*/true));
    EXPECT_EQ(inst.mis.stats().pending_delta_entries, 0u);
    ASSERT_OK(inst.mis.Repair());
    EXPECT_EQ(SetToVector(inst.mis.set()), expected) << inst.manifest;
    ShardedStreamingMis restarted;
    ASSERT_OK(restarted.Initialize(inst.manifest, inst.mis.set(),
                                   EnginePipelineOptions{}));
    ASSERT_OK(restarted.Repair());
    EXPECT_EQ(SetToVector(restarted.set()), expected) << inst.manifest;
    VerifyResult vr;
    ASSERT_OK(
        VerifyIndependentSetShardedFile(inst.manifest, restarted.set(), &vr));
    EXPECT_TRUE(vr.independent);
    EXPECT_TRUE(vr.maximal);
  }
}

TEST_F(IncrementalStreamTest, MemoryFigureTracksTheLiveDelta) {
  Graph g = GenerateErdosRenyi(400, 800, 2);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("mem.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(manifest, BitVector(400), EnginePipelineOptions{}));
  const size_t idle = mis.CurrentMemoryBytes();

  // 300 fresh inserted edges.
  Random rng(8);
  std::vector<EdgeUpdate> inserts;
  std::set<Edge> seen;
  while (inserts.size() < 300) {
    const auto u = static_cast<VertexId>(rng.Uniform(400));
    const auto v = static_cast<VertexId>(rng.Uniform(400));
    if (u == v || !seen.insert({std::min(u, v), std::max(u, v)}).second) {
      continue;
    }
    inserts.push_back(EdgeUpdate::Insert(u, v));
  }
  ASSERT_OK(mis.ApplyBatch(inserts));
  const size_t loaded = mis.CurrentMemoryBytes();
  // At least both directions of every live inserted edge, on top of the
  // pending log mirror.
  EXPECT_GE(loaded - idle,
            300 * (2 * sizeof(VertexId) + sizeof(EdgeDeltaEntry)));
  EXPECT_GE(mis.stats().peak_memory_bytes, loaded);

  ASSERT_OK(mis.Compact(/*force=*/true));
  const size_t compacted = mis.CurrentMemoryBytes();
  EXPECT_LT(compacted, loaded);
  EXPECT_LE(compacted, idle);
  // The peak keeps the high-water mark.
  EXPECT_GE(mis.stats().peak_memory_bytes, loaded);
}

TEST_F(IncrementalStreamTest, InsertBetweenSetMembersEvictsEagerly) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("evict.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));
  BitVector set(4);
  set.Set(0);
  set.Set(2);
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(manifest, set, EnginePipelineOptions{}));
  ASSERT_OK(mis.ApplyBatch({EdgeUpdate::Insert(0, 2)}));
  EXPECT_EQ(mis.set_size(), 1u);
  EXPECT_TRUE(mis.set().Test(0));  // smaller id stays
  EXPECT_FALSE(mis.set().Test(2));
  EXPECT_EQ(mis.stats().evictions, 1u);
  ASSERT_OK(mis.Repair());
  EXPECT_TRUE(mis.set().Test(3));  // its set neighbor 2 left
  EXPECT_EQ(mis.stats().repair_added, 1u);
}

TEST_F(IncrementalStreamTest, BatchValidationFailsWholeBatchUpFront) {
  Graph g = GeneratePath(5);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("val.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(manifest, BitVector(5), EnginePipelineOptions{}));
  // Self-loop and out-of-range updates are rejected and nothing -- not
  // even the valid first update -- is applied.
  EXPECT_TRUE(mis.ApplyBatch({EdgeUpdate::Insert(0, 2),
                              EdgeUpdate::Insert(3, 3)})
                  .IsInvalidArgument());
  EXPECT_TRUE(mis.ApplyBatch({EdgeUpdate::Insert(0, 2),
                              EdgeUpdate::Insert(0, 5)})
                  .IsInvalidArgument());
  EXPECT_TRUE(mis.ApplyBatch({EdgeUpdate::Delete(9, 2)})
                  .IsInvalidArgument());
  EXPECT_EQ(mis.stats().updates_applied, 0u);
  EXPECT_EQ(mis.stats().pending_delta_entries, 0u);
}

TEST_F(IncrementalStreamTest, RedundantUpdatesAreNotLogged) {
  Graph g = GeneratePath(4);  // 0-1-2-3
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("red.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(manifest, BitVector(4), EnginePipelineOptions{}));
  ASSERT_OK(mis.ApplyBatch({EdgeUpdate::Insert(0, 2),
                            EdgeUpdate::Insert(0, 2),    // duplicate
                            EdgeUpdate::Delete(1, 3),
                            EdgeUpdate::Delete(1, 3)})); // duplicate
  EXPECT_EQ(mis.stats().updates_applied, 4u);
  EXPECT_EQ(mis.stats().redundant_updates, 2u);
  // Only the two effective updates carry sequence numbers / log entries.
  EdgeDeltaManifest dm;
  ASSERT_OK(ReadEdgeDeltaManifest(EdgeDeltaManifestPath(manifest), &dm));
  EXPECT_EQ(dm.next_sequence, 2u);
}

TEST_F(IncrementalStreamTest, DuplicateBaseEdgeInsertThenDeleteCompacts) {
  // The streaming twin of the IncrementalMis duplicate-accounting gadget,
  // extended through compaction: insert a copy of base edge 0-1, delete
  // it, and the compacted base must no longer contain the edge (and must
  // not have gained a duplicate neighbor entry either way).
  Graph g = Graph::FromEdges(2, {{0, 1}});
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("dup.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));
  BitVector set(2);
  set.Set(0);
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(manifest, set, EnginePipelineOptions{}));
  ASSERT_OK(mis.ApplyBatch({EdgeUpdate::Insert(0, 1)}));  // duplicates base
  ASSERT_OK(mis.ApplyBatch({EdgeUpdate::Delete(0, 1)}));
  ASSERT_OK(mis.Repair());
  EXPECT_TRUE(mis.set().Test(1)) << "base copy survived its deletion";
  EXPECT_EQ(mis.set_size(), 2u);
  ASSERT_OK(mis.Compact(/*force=*/true));
  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.Open(manifest));
  EXPECT_EQ(scanner.header().num_directed_edges, 0u);
  VertexRecordView rec;
  bool has_next = false;
  uint64_t records = 0;
  while (true) {
    ASSERT_OK(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    EXPECT_EQ(rec.degree, 0u);
    records++;
  }
  EXPECT_EQ(records, 2u);

  // And folding a duplicate insert WITHOUT the delete must not create a
  // doubled neighbor entry.
  std::string manifest2 = NewPath("dup2.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest2, 1));
  ShardedStreamingMis mis2;
  ASSERT_OK(mis2.Initialize(manifest2, set, EnginePipelineOptions{}));
  ASSERT_OK(mis2.ApplyBatch({EdgeUpdate::Insert(0, 1)}));
  ASSERT_OK(mis2.Compact(/*force=*/true));
  AdjacencyFileScanner scanner2;
  ASSERT_OK(scanner2.Open(manifest2));
  EXPECT_EQ(scanner2.header().num_directed_edges, 2u);  // one edge, not two
  while (true) {
    ASSERT_OK(scanner2.Next(&rec, &has_next));
    if (!has_next) break;
    EXPECT_EQ(rec.degree, 1u);
  }
}

TEST_F(IncrementalStreamTest, CompactionFoldsDeltaAndPreservesAnswers) {
  Graph base = GenerateErdosRenyi(70, 150, 21);
  std::string mono = WriteGraphFile(&scratch_, base);
  std::string manifest = NewPath("comp.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));
  BitVector initial = RandomMaximalSet(base, 4);
  ShardedStreamingMis mis;
  EnginePipelineOptions opts;
  opts.num_threads = 2;
  ASSERT_OK(mis.Initialize(manifest, initial, opts));

  std::set<Edge> inserted, deleted;
  Random rng(99);
  std::vector<EdgeUpdate> updates;
  for (int i = 0; i < 120; ++i) {
    VertexId u = static_cast<VertexId>(rng.Uniform(70));
    VertexId v = static_cast<VertexId>(rng.Uniform(70));
    if (u == v) continue;
    Edge e{std::min(u, v), std::max(u, v)};
    const bool in_base = base.HasEdge(u, v);
    const bool exists = (in_base && deleted.find(e) == deleted.end()) ||
                        inserted.find(e) != inserted.end();
    if (exists) {
      updates.push_back(EdgeUpdate::Delete(u, v));
      inserted.erase(e);
      if (in_base) deleted.insert(e);
    } else {
      updates.push_back(EdgeUpdate::Insert(u, v));
      deleted.erase(e);
      if (!in_base) inserted.insert(e);
    }
  }
  ASSERT_OK(mis.ApplyBatch(updates));
  ASSERT_OK(mis.Repair());
  const std::vector<VertexId> before = SetToVector(mis.set());

  ASSERT_OK(mis.Compact(/*force=*/true));
  EXPECT_EQ(mis.stats().pending_delta_entries, 0u);
  EXPECT_GT(mis.stats().shards_rewritten, 0u);
  // The set is untouched and a repair over the compacted base agrees.
  EXPECT_EQ(SetToVector(mis.set()), before);
  ASSERT_OK(mis.Repair());
  EXPECT_EQ(SetToVector(mis.set()), before);

  // The compacted base IS the updated graph: re-read it and compare
  // adjacency with the in-memory reference.
  Graph updated = ApplyDelta(base, inserted, deleted);
  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.Open(manifest));
  EXPECT_EQ(scanner.header().num_directed_edges,
            updated.NumDirectedEdges());
  VertexRecordView rec;
  bool has_next = false;
  uint64_t records = 0;
  while (true) {
    ASSERT_OK(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    records++;
    std::set<VertexId> got(rec.neighbors, rec.neighbors + rec.degree);
    std::set<VertexId> want(updated.Neighbors(rec.id).begin(),
                            updated.Neighbors(rec.id).end());
    ASSERT_EQ(got, want) << "vertex " << rec.id;
  }
  EXPECT_EQ(records, updated.NumVertices());

  // The effective graph still matches a verification scan, and updates
  // keep flowing after the compaction.
  VerifyResult vr;
  ASSERT_OK(VerifyIndependentSetShardedFile(manifest, mis.set(), &vr));
  EXPECT_TRUE(vr.independent);
  EXPECT_TRUE(vr.maximal);
  ASSERT_OK(mis.ApplyBatch({EdgeUpdate::Insert(
      SetToVector(mis.set())[0], SetToVector(mis.set())[1])}));
  ASSERT_OK(mis.Repair());
}

TEST_F(IncrementalStreamTest, RestartReplaysTheOverlayExactly) {
  Graph base = GenerateErdosRenyi(60, 130, 8);
  std::string mono = WriteGraphFile(&scratch_, base);
  std::string manifest = NewPath("restart.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));
  BitVector initial = RandomMaximalSet(base, 15);

  ShardedStreamingMis first;
  ASSERT_OK(first.Initialize(manifest, initial, EnginePipelineOptions{}));
  Random rng(5);
  std::vector<EdgeUpdate> updates;
  for (int i = 0; i < 80; ++i) {
    VertexId u = static_cast<VertexId>(rng.Uniform(60));
    VertexId v = static_cast<VertexId>(rng.Uniform(60));
    if (u == v) continue;
    updates.push_back(rng.OneIn(0.3) ? EdgeUpdate::Delete(u, v)
                                     : EdgeUpdate::Insert(u, v));
  }
  ASSERT_OK(first.ApplyBatch(updates));

  // A second session binds to the same files with the same BASE set and
  // must come back in the exact same state (the logs are the redo
  // stream).
  ShardedStreamingMis second;
  ASSERT_OK(second.Initialize(manifest, initial, EnginePipelineOptions{}));
  EXPECT_EQ(SetToVector(second.set()), SetToVector(first.set()));
  EXPECT_EQ(second.stats().pending_delta_entries,
            first.stats().pending_delta_entries);
  ASSERT_OK(first.Repair());
  ASSERT_OK(second.Repair());
  EXPECT_EQ(SetToVector(second.set()), SetToVector(first.set()));

  // Overlay/base mismatches are rejected, not misread: bind the overlay
  // to a differently-sharded copy of the same graph.
  std::string other = NewPath("restart_other.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, other, 2));
  ShardedStreamingMis third;
  // Hand the 3-shard overlay to the 2-shard file.
  SequentialFileReader src;
  ASSERT_OK(src.Open(EdgeDeltaManifestPath(manifest)));
  std::vector<char> bytes(4096);
  size_t n = 0;
  std::vector<char> all;
  while (true) {
    ASSERT_OK(src.Read(bytes.data(), bytes.size(), &n));
    if (n == 0) break;
    all.insert(all.end(), bytes.begin(), bytes.begin() + n);
  }
  SequentialFileWriter dst;
  ASSERT_OK(dst.Open(EdgeDeltaManifestPath(other)));
  ASSERT_OK(dst.Append(all.data(), all.size()));
  ASSERT_OK(dst.Close());
  Status s = third.Initialize(other, initial, EnginePipelineOptions{});
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(IncrementalStreamTest, RestartDropsCrashTornLogTail) {
  // A crash between a log append and the delta-manifest republish leaves
  // bytes past the declared count -- the unflushed batch. Initialize must
  // drop that tail (not brick with Corruption), rewrite the log clean,
  // and land in the state of the last republished manifest.
  Graph base = GenerateErdosRenyi(40, 80, 3);
  std::string mono = WriteGraphFile(&scratch_, base);
  std::string manifest = NewPath("torn.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));
  BitVector initial = RandomMaximalSet(base, 2);

  ShardedStreamingMis first;
  ASSERT_OK(first.Initialize(manifest, initial, EnginePipelineOptions{}));
  ASSERT_OK(first.ApplyBatch({EdgeUpdate::Insert(0, 1),
                              EdgeUpdate::Insert(2, 3)}));
  const std::vector<VertexId> flushed_state = SetToVector(first.set());

  // Simulate the torn append: extra entries land in a shard log without
  // the delta manifest ever being republished.
  const std::string delta = EdgeDeltaManifestPath(manifest);
  {
    EdgeDeltaShardWriter writer;
    ASSERT_OK(writer.Open(delta, 0, base.NumVertices()));
    ASSERT_OK(writer.Append({99, EdgeDeltaOp::kInsert, 5, 6}));
    ASSERT_OK(writer.Close());
  }
  // Strict read reports the tail...
  EdgeDeltaManifest dm;
  ASSERT_OK(ReadEdgeDeltaManifest(delta, &dm));
  std::vector<EdgeDeltaEntry> entries;
  EXPECT_TRUE(
      ReadEdgeDeltaShardLog(delta, dm, 0, &entries).IsCorruption());

  // ...while a restarted session recovers: same state as the last flush,
  // tail gone, and the overlay fully consistent again.
  ShardedStreamingMis second;
  ASSERT_OK(second.Initialize(manifest, initial, EnginePipelineOptions{}));
  EXPECT_EQ(SetToVector(second.set()), flushed_state);
  EXPECT_EQ(second.stats().recovered_log_tails, 1u);
  entries.clear();
  ASSERT_OK(ReadEdgeDeltaShardLog(delta, dm, 0, &entries));  // clean now
  ASSERT_OK(second.ApplyBatch({EdgeUpdate::Insert(7, 8)}));
  ShardedStreamingMis third;
  ASSERT_OK(third.Initialize(manifest, initial, EnginePipelineOptions{}));
  EXPECT_EQ(SetToVector(third.set()), SetToVector(second.set()));
  EXPECT_EQ(third.stats().recovered_log_tails, 0u);
}

TEST_F(IncrementalStreamTest, StreamQualityTracksFromScratchSolve) {
  // After a burst of random insertions and one repair, the maintained set
  // stays close to a from-scratch sharded solve of the updated
  // (compacted) graph -- the streaming path trades a few percent of
  // quality for not re-solving.
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 2.0), 13);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("q.sadjs");
  {
    Solver solver(SolverOptions{});
    SolveResult solved;
    ASSERT_OK(solver.SolveFile(mono, &solved));
    ASSERT_OK(ShardAdjacencyFile(mono, manifest, 5));
    ShardedStreamingMis mis;
    EnginePipelineOptions opts;
    opts.num_threads = 2;
    ASSERT_OK(mis.Initialize(manifest, solved.set, opts));

    Random rng(17);
    std::vector<EdgeUpdate> updates;
    for (int i = 0; i < 400; ++i) {
      VertexId u = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
      VertexId v = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
      if (u != v) updates.push_back(EdgeUpdate::Insert(u, v));
    }
    ASSERT_OK(mis.ApplyBatch(updates));
    ASSERT_OK(mis.Repair());
    ASSERT_OK(mis.Compact(/*force=*/true));

    // From-scratch: solve the compacted graph directly from the shards.
    SolverOptions sopts;
    sopts.degree_sort = false;  // compaction cleared the sorted flag
    sopts.swap = SwapMode::kNone;
    sopts.pipeline.num_threads = 2;
    Solver fresh(sopts);
    SolveResult from_scratch;
    ASSERT_OK(fresh.SolveShardedFile(manifest, &from_scratch));
    EXPECT_GT(mis.set_size(), from_scratch.set_size * 85 / 100);
    // Both satisfy the same invariants on the same graph.
    VerifyResult vr;
    ASSERT_OK(VerifyIndependentSetShardedFile(manifest, mis.set(), &vr));
    EXPECT_TRUE(vr.independent);
    EXPECT_TRUE(vr.maximal);
  }
}

TEST_F(IncrementalStreamTest, InitializeRejectsMismatchedSet) {
  Graph g = GeneratePath(4);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("mm.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));
  ShardedStreamingMis mis;
  EXPECT_TRUE(mis.Initialize(manifest, BitVector(3), EnginePipelineOptions{})
                  .IsInvalidArgument());
  // Uninitialized use is rejected too.
  ShardedStreamingMis unbound;
  EXPECT_TRUE(unbound.ApplyBatch({EdgeUpdate::Insert(0, 1)})
                  .IsInvalidArgument());
  EXPECT_TRUE(unbound.Repair().IsInvalidArgument());
  EXPECT_TRUE(unbound.Compact(true).IsInvalidArgument());
}

TEST_F(IncrementalStreamTest, EmptyGraphAndEmptyBatches) {
  Graph g = Graph::FromEdges(0, {});
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("empty.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(manifest, BitVector(0), EnginePipelineOptions{}));
  ASSERT_OK(mis.ApplyBatch({}));
  ASSERT_OK(mis.Repair());
  ASSERT_OK(mis.Compact(true));
  EXPECT_EQ(mis.set_size(), 0u);

  // Empty batches on a real graph are no-ops as well.
  Graph p = GeneratePath(3);
  std::string mono2 = WriteGraphFile(&scratch_, p);
  std::string manifest2 = NewPath("empty2.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono2, manifest2, 1));
  ShardedStreamingMis mis2;
  EnginePipelineOptions opts;
  opts.num_threads = 4;
  ASSERT_OK(mis2.Initialize(manifest2, BitVector(3), opts));
  ASSERT_OK(mis2.ApplyBatch({}));
  ASSERT_OK(mis2.Repair());
  EXPECT_EQ(mis2.set_size(), 3u - 1u);  // path 0-1-2: repair adds 0 and 2
}

}  // namespace
}  // namespace semis
