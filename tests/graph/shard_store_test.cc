// Crash-recovery contract of the sharded store (graph/shard_store.h):
// root resolution over the legacy and journaled layouts, epoch fallback,
// and the GC edge cases the epoch journal must survive -- a reader
// holding the old epoch across a commit, an interrupted GC, a root
// pointer naming a missing epoch, and back-to-back compactions retiring
// epochs N and N+1. Process-kill crash points are exercised end to end by
// tests/cli/crash_recovery_test.sh; this suite covers the states those
// crashes leave behind.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/incremental_stream.h"
#include "gen/plrg.h"
#include "graph/shard_store.h"
#include "graph/sharded_adjacency_file.h"
#include "io/edge_delta_file.h"
#include "io/epoch_journal.h"
#include "io/file.h"
#include "test_util.h"
#include "util/random.h"

namespace semis {
namespace {

using testing_util::RandomMaximalSet;
using testing_util::ScratchTest;
using testing_util::WriteGraphFile;

bool FileExists(const std::string& path) {
  uint64_t size = 0;
  return GetFileSize(path, &size).ok();
}

std::vector<uint32_t> ToVector(const BitVector& set) {
  std::vector<uint32_t> out;
  for (size_t v = 0; v < set.size(); ++v) {
    if (set.Test(v)) out.push_back(static_cast<uint32_t>(v));
  }
  return out;
}

void WriteJunkFile(const std::string& path) {
  SequentialFileWriter w;
  EXPECT_OK(w.Open(path));
  EXPECT_OK(w.Append("junk", 4));
  EXPECT_OK(w.Close());
}

class ShardStoreTest : public ScratchTest {
 protected:
  // Creates a legacy sharded store at `*root` and returns a maximal
  // initial set over its graph.
  BitVector MakeStore(uint32_t num_shards, std::string* root) {
    g_ = GeneratePlrg(PlrgSpec::ForVertexCount(200, 2.0), 7);
    std::string mono = WriteGraphFile(&scratch_, g_);
    *root = NewPath("store.sadjs");
    EXPECT_OK(ShardAdjacencyFile(mono, *root, num_shards));
    return RandomMaximalSet(g_, 3);
  }

  // A deterministic batch that changes degrees, parameterized so
  // successive batches are distinct.
  std::vector<EdgeUpdate> SomeUpdates(uint64_t salt) {
    std::vector<EdgeUpdate> updates;
    Random rng(100 + salt);
    for (int i = 0; i < 30; ++i) {
      const auto u = static_cast<VertexId>(rng.Uniform(g_.NumVertices()));
      const auto v = static_cast<VertexId>(rng.Uniform(g_.NumVertices()));
      if (u != v) updates.push_back(EdgeUpdate::Insert(u, v));
    }
    return updates;
  }

  Graph g_;
};

TEST_F(ShardStoreTest, LegacyStoreResolvesInPlace) {
  std::string root;
  MakeStore(3, &root);
  ResolvedShardStore store;
  ASSERT_OK(ResolveShardStore(root, &store));
  EXPECT_FALSE(store.journaled);
  EXPECT_EQ(store.manifest_path, root);
  EXPECT_EQ(store.current_epoch, 0u);
  ASSERT_OK(ValidateShardStoreEpoch(store.manifest_path));
  std::vector<std::string> orphans;
  ASSERT_OK(ListShardStoreOrphans(store, &orphans));
  EXPECT_TRUE(orphans.empty());
}

TEST_F(ShardStoreTest, FirstCompactionConvertsToJournal) {
  std::string root;
  BitVector initial = MakeStore(3, &root);
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(root, initial, EnginePipelineOptions{}));
  ASSERT_OK(mis.ApplyBatch(SomeUpdates(1)));
  ASSERT_OK(mis.Compact(/*force=*/true));

  uint32_t magic = 0;
  ASSERT_OK(ProbeFileMagic(root, &magic));
  EXPECT_EQ(magic, kEpochRootMagic);
  ResolvedShardStore store;
  ASSERT_OK(ResolveShardStore(root, &store));
  EXPECT_TRUE(store.journaled);
  EXPECT_EQ(store.current_epoch, 1u);
  EXPECT_EQ(store.previous_epoch, 0u);
  EXPECT_EQ(store.manifest_path, EpochManifestPath(root, 1));
  ASSERT_OK(ValidateShardStoreEpoch(store.manifest_path));
  // The conversion's trailing GC removed the stale legacy names...
  EXPECT_FALSE(FileExists(root + ".shard0"));
  EXPECT_FALSE(FileExists(root + ".delta"));
  std::vector<std::string> orphans;
  ASSERT_OK(ListShardStoreOrphans(store, &orphans));
  EXPECT_TRUE(orphans.empty());

  // ...and a restarted session serves exactly the committed state.
  ShardedStreamingMis second;
  ASSERT_OK(second.Initialize(root, mis.set(), EnginePipelineOptions{}));
  EXPECT_EQ(ToVector(second.set()), ToVector(mis.set()));
}

TEST_F(ShardStoreTest, BackToBackCompactionsKeepOnePreviousEpoch) {
  std::string root;
  BitVector initial = MakeStore(2, &root);
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(root, initial, EnginePipelineOptions{}));

  ASSERT_OK(mis.ApplyBatch(SomeUpdates(1)));
  ASSERT_OK(mis.Compact(/*force=*/true));  // epoch 1
  ASSERT_OK(mis.ApplyBatch(SomeUpdates(2)));
  ASSERT_OK(mis.Compact(/*force=*/true));  // epoch 2, epoch 1 kept
  EpochRootPointer ptr;
  ASSERT_OK(ReadEpochRootPointer(root, &ptr));
  EXPECT_EQ(ptr.current_epoch, 2u);
  EXPECT_EQ(ptr.previous_epoch, 1u);
  // The previous epoch survives its successor's GC so a reader that
  // resolved just before the commit can finish.
  EXPECT_TRUE(FileExists(EpochManifestPath(root, 1)));
  ResolvedShardStore store;
  ASSERT_OK(ResolveShardStore(root, &store));
  std::vector<std::string> orphans;
  ASSERT_OK(ListShardStoreOrphans(store, &orphans));
  EXPECT_TRUE(orphans.empty());

  ASSERT_OK(mis.ApplyBatch(SomeUpdates(3)));
  ASSERT_OK(mis.Compact(/*force=*/true));  // epoch 3 retires epoch 1
  ASSERT_OK(ReadEpochRootPointer(root, &ptr));
  EXPECT_EQ(ptr.current_epoch, 3u);
  EXPECT_EQ(ptr.previous_epoch, 2u);
  EXPECT_FALSE(FileExists(EpochManifestPath(root, 1)));
  EXPECT_FALSE(FileExists(EpochManifestPath(root, 1) + ".shard0"));
}

TEST_F(ShardStoreTest, ReaderHoldingOldEpochSurvivesOneCommit) {
  std::string root;
  BitVector initial = MakeStore(2, &root);
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(root, initial, EnginePipelineOptions{}));
  ASSERT_OK(mis.ApplyBatch(SomeUpdates(1)));
  ASSERT_OK(mis.Compact(/*force=*/true));  // epoch 1

  // The reader resolves the store at epoch 1 and starts scanning.
  IoStats io;
  AdjacencyFileScanner scanner(&io);
  ASSERT_OK(scanner.Open(root));
  const uint64_t expected = scanner.header().num_vertices;

  // A commit happens underneath it: epoch 2 is published and GC runs.
  ASSERT_OK(mis.ApplyBatch(SomeUpdates(2)));
  ASSERT_OK(mis.Compact(/*force=*/true));

  // Epoch 1's files were kept as the previous epoch, so the scan drains
  // completely instead of hitting unlinked files.
  uint64_t records = 0;
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    ASSERT_OK(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    records++;
  }
  EXPECT_EQ(records, expected);
}

TEST_F(ShardStoreTest, RootNamingMissingEpochFallsBack) {
  std::string root;
  BitVector initial = MakeStore(2, &root);
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(root, initial, EnginePipelineOptions{}));
  ASSERT_OK(mis.ApplyBatch(SomeUpdates(1)));
  ASSERT_OK(mis.Compact(/*force=*/true));  // epoch 1
  ASSERT_OK(mis.ApplyBatch(SomeUpdates(2)));
  ASSERT_OK(mis.Compact(/*force=*/true));  // epoch 2, previous 1

  // A commit that died between the root flip and writing epoch 3's files
  // cannot happen (files are staged first) -- but a scribbled or
  // restored-from-backup root CAN name a missing epoch. Forge one.
  ASSERT_OK(WriteEpochRootPointer(root, {3, 2}));
  ResolvedShardStore store;
  ASSERT_OK(ResolveShardStore(root, &store));
  EXPECT_TRUE(store.fell_back);
  EXPECT_EQ(store.current_epoch, 2u);
  EXPECT_EQ(store.manifest_path, EpochManifestPath(root, 2));
  // Read-only resolution did not touch the root...
  EpochRootPointer ptr;
  ASSERT_OK(ReadEpochRootPointer(root, &ptr));
  EXPECT_EQ(ptr.current_epoch, 3u);

  // ...recovery makes the fallback durable and GCs what epoch 2 no
  // longer references.
  ShardStoreRecovery recovery;
  ASSERT_OK(RecoverShardStore(root, &store, &recovery));
  EXPECT_TRUE(recovery.fell_back);
  ASSERT_OK(ReadEpochRootPointer(root, &ptr));
  EXPECT_EQ(ptr.current_epoch, 2u);
  EXPECT_EQ(ptr.previous_epoch, 0u);
  ASSERT_OK(ResolveShardStore(root, &store));
  EXPECT_FALSE(store.fell_back);
  ASSERT_OK(ValidateShardStoreEpoch(store.manifest_path));

  // With no fallback epoch left, a missing current epoch is terminal.
  ASSERT_OK(WriteEpochRootPointer(root, {9, 0}));
  EXPECT_TRUE(ResolveShardStore(root, &store).IsCorruption());
}

TEST_F(ShardStoreTest, InterruptedGcIsRepairedIdempotently) {
  std::string root;
  BitVector initial = MakeStore(2, &root);
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(root, initial, EnginePipelineOptions{}));
  ASSERT_OK(mis.ApplyBatch(SomeUpdates(1)));
  ASSERT_OK(mis.Compact(/*force=*/true));
  const std::vector<uint32_t> committed = ToVector(mis.set());

  // Litter the directory the way dead mutations do: root-pointer
  // staging, a half-staged future epoch, an interrupted re-sort run.
  WriteJunkFile(root + ".tmp");
  WriteJunkFile(EpochManifestPath(root, 9) + ".shard0");
  WriteJunkFile(EpochManifestPath(root, 1) + ".resort0");
  ResolvedShardStore store;
  ASSERT_OK(ResolveShardStore(root, &store));
  std::vector<std::string> orphans;
  ASSERT_OK(ListShardStoreOrphans(store, &orphans));
  ASSERT_EQ(orphans.size(), 3u);

  // A GC that died after removing one orphan leaves a partial state;
  // recovery finishes the job and is a no-op when run again.
  ASSERT_OK(RemoveFileIfExists(orphans[0]));
  ShardStoreRecovery recovery;
  ASSERT_OK(RecoverShardStore(root, &store, &recovery));
  EXPECT_EQ(recovery.orphan_files_removed, 2u);
  ASSERT_OK(ListShardStoreOrphans(store, &orphans));
  EXPECT_TRUE(orphans.empty());
  ASSERT_OK(RecoverShardStore(root, &store, &recovery));
  EXPECT_EQ(recovery.orphan_files_removed, 0u);

  // The litter never touched the committed state.
  ShardedStreamingMis second;
  ASSERT_OK(second.Initialize(root, mis.set(), EnginePipelineOptions{}));
  EXPECT_EQ(ToVector(second.set()), committed);
}

TEST_F(ShardStoreTest, OrphanClassificationIsConservative) {
  std::string root;
  BitVector initial = MakeStore(2, &root);
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(root, initial, EnginePipelineOptions{}));
  ASSERT_OK(mis.ApplyBatch(SomeUpdates(1)));
  ASSERT_OK(mis.Compact(/*force=*/true));

  // Names that belong to the live epoch or to nobody's naming scheme
  // must never be collected.
  WriteJunkFile(root + ".epochnote");   // digits missing: not our naming
  WriteJunkFile(root + ".backup");      // unrecognized suffix
  WriteJunkFile(root + "-sibling");     // no "<base>." prefix at all
  ResolvedShardStore store;
  ASSERT_OK(ResolveShardStore(root, &store));
  std::vector<std::string> orphans;
  ASSERT_OK(ListShardStoreOrphans(store, &orphans));
  EXPECT_TRUE(orphans.empty());
  EXPECT_TRUE(FileExists(EpochManifestPath(root, 1)));
  EXPECT_TRUE(FileExists(root + ".epochnote"));
  EXPECT_TRUE(FileExists(root + ".backup"));
  EXPECT_TRUE(FileExists(root + "-sibling"));
}

TEST_F(ShardStoreTest, ValidateDetectsWrongShardSize) {
  std::string root;
  MakeStore(2, &root);
  ASSERT_OK(ValidateShardStoreEpoch(root));
  // Shard files have exact manifest-implied sizes; one byte of growth is
  // as corrupt as truncation.
  {
    SequentialFileWriter w;
    ASSERT_OK(w.OpenAppend(root + ".shard0"));
    ASSERT_OK(w.Append("x", 1));
    ASSERT_OK(w.Close());
  }
  EXPECT_TRUE(ValidateShardStoreEpoch(root).IsCorruption());
}

}  // namespace
}  // namespace semis
