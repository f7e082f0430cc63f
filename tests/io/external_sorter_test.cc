#include "io/external_sorter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "test_util.h"
#include "util/memory_tracker.h"
#include "util/random.h"

namespace semis {
namespace {

using testing_util::ScratchTest;

class ExternalSorterTest : public ScratchTest {};

std::vector<std::pair<uint64_t, std::vector<uint32_t>>> Drain(
    ExternalSorter* sorter) {
  std::vector<std::pair<uint64_t, std::vector<uint32_t>>> out;
  SortedRecordView rec;
  while (sorter->Next(&rec)) {
    out.emplace_back(rec.key, std::vector<uint32_t>(rec.begin(), rec.end()));
  }
  EXPECT_OK(sorter->status());
  return out;
}

TEST_F(ExternalSorterTest, InMemorySort) {
  ExternalSorterOptions opts;
  opts.scratch_dir = scratch_.path();
  ExternalSorter sorter(opts);
  uint32_t p1[] = {10, 11};
  uint32_t p2[] = {20};
  ASSERT_OK(sorter.Add(5, p1, 2));
  ASSERT_OK(sorter.Add(1, p2, 1));
  ASSERT_OK(sorter.AddKey(3));
  ASSERT_OK(sorter.Finish());
  EXPECT_EQ(sorter.NumInitialRuns(), 0u);  // never spilled
  auto out = Drain(&sorter);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].first, 1u);
  EXPECT_EQ(out[0].second, std::vector<uint32_t>{20});
  EXPECT_EQ(out[1].first, 3u);
  EXPECT_TRUE(out[1].second.empty());
  EXPECT_EQ(out[2].first, 5u);
  EXPECT_EQ(out[2].second, (std::vector<uint32_t>{10, 11}));
}

TEST_F(ExternalSorterTest, SpillingProducesSortedPermutation) {
  ExternalSorterOptions opts;
  opts.memory_budget_bytes = 1024;  // force many runs
  opts.scratch_dir = scratch_.path();
  IoStats stats;
  opts.stats = &stats;
  ExternalSorter sorter(opts);
  Random rng(77);
  std::map<uint64_t, int> expected;
  const int kRecords = 5000;
  for (int i = 0; i < kRecords; ++i) {
    uint64_t key = rng.Uniform(1000);
    uint32_t payload = static_cast<uint32_t>(key * 2 + 1);
    ASSERT_OK(sorter.Add(key, &payload, 1));
    expected[key]++;
  }
  ASSERT_OK(sorter.Finish());
  EXPECT_GT(sorter.NumInitialRuns(), 1u);
  auto out = Drain(&sorter);
  ASSERT_EQ(out.size(), static_cast<size_t>(kRecords));
  uint64_t prev = 0;
  std::map<uint64_t, int> seen;
  for (auto& [key, payload] : out) {
    EXPECT_GE(key, prev);
    prev = key;
    ASSERT_EQ(payload.size(), 1u);
    EXPECT_EQ(payload[0], key * 2 + 1);  // payload stays attached to key
    seen[key]++;
  }
  EXPECT_EQ(seen, expected);
  EXPECT_GT(stats.bytes_written, 0u);
}

TEST_F(ExternalSorterTest, MultiPassMergeRespectsFanIn) {
  ExternalSorterOptions opts;
  opts.memory_budget_bytes = 256;  // ~18 records per run
  opts.fan_in = 2;                 // force intermediate passes
  opts.scratch_dir = scratch_.path();
  ExternalSorter sorter(opts);
  const int kRecords = 2000;
  for (int i = kRecords - 1; i >= 0; --i) {
    ASSERT_OK(sorter.AddKey(static_cast<uint64_t>(i)));
  }
  ASSERT_OK(sorter.Finish());
  EXPECT_GT(sorter.MergePasses(), 0u);
  auto out = Drain(&sorter);
  ASSERT_EQ(out.size(), static_cast<size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(out[i].first, static_cast<uint64_t>(i));
  }
}

TEST_F(ExternalSorterTest, EmptyInput) {
  ExternalSorterOptions opts;
  opts.scratch_dir = scratch_.path();
  ExternalSorter sorter(opts);
  ASSERT_OK(sorter.Finish());
  SortedRecordView rec;
  EXPECT_FALSE(sorter.Next(&rec));
  EXPECT_OK(sorter.status());
}

TEST_F(ExternalSorterTest, DuplicateKeysAllSurvive) {
  ExternalSorterOptions opts;
  opts.memory_budget_bytes = 512;
  opts.scratch_dir = scratch_.path();
  ExternalSorter sorter(opts);
  for (int i = 0; i < 300; ++i) {
    uint32_t payload = static_cast<uint32_t>(i);
    ASSERT_OK(sorter.Add(42, &payload, 1));
  }
  ASSERT_OK(sorter.Finish());
  auto out = Drain(&sorter);
  ASSERT_EQ(out.size(), 300u);
  std::vector<bool> seen(300, false);
  for (auto& [key, payload] : out) {
    EXPECT_EQ(key, 42u);
    seen[payload[0]] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST_F(ExternalSorterTest, ZeroBudgetRejected) {
  // A zero budget used to silently degenerate to one spilled run per
  // record; it is now an input error.
  ExternalSorterOptions opts;
  opts.memory_budget_bytes = 0;
  opts.scratch_dir = scratch_.path();
  ExternalSorter sorter(opts);
  EXPECT_TRUE(sorter.AddKey(1).IsInvalidArgument());
  EXPECT_TRUE(sorter.Finish().IsInvalidArgument());
}

TEST_F(ExternalSorterTest, FanInBelowTwoRejected) {
  // fan_in < 2 used to be silently clamped to 2; it is now an input error
  // surfaced on the first call, whether or not any record was added.
  for (size_t fan_in : {0u, 1u}) {
    ExternalSorterOptions opts;
    opts.fan_in = fan_in;
    opts.scratch_dir = scratch_.path();
    ExternalSorter sorter(opts);
    EXPECT_TRUE(sorter.AddKey(1).IsInvalidArgument()) << "fan_in " << fan_in;
    EXPECT_TRUE(sorter.Finish().IsInvalidArgument()) << "fan_in " << fan_in;
  }
  ExternalSorterOptions ok_opts;
  ok_opts.fan_in = 2;  // the smallest legal fan-in still works
  ok_opts.scratch_dir = scratch_.path();
  ExternalSorter sorter(ok_opts);
  ASSERT_OK(sorter.AddKey(2));
  ASSERT_OK(sorter.AddKey(1));
  ASSERT_OK(sorter.Finish());
  auto out = Drain(&sorter);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, 1u);
  EXPECT_EQ(out[1].first, 2u);
}

TEST_F(ExternalSorterTest, ReportsMemoryToTracker) {
  ExternalSorterOptions opts;
  opts.memory_budget_bytes = 1024;  // force spills
  opts.scratch_dir = scratch_.path();
  MemoryTracker memory;
  opts.memory = &memory;
  ExternalSorter sorter(opts);
  for (int i = 0; i < 500; ++i) {
    uint32_t payload = static_cast<uint32_t>(i);
    ASSERT_OK(sorter.Add(static_cast<uint64_t>(500 - i), &payload, 1));
  }
  ASSERT_OK(sorter.Finish());
  // The run buffer filled to (at least) the budget before each spill, and
  // merge cursors were charged during Finish.
  EXPECT_GE(memory.CategoryPeakBytes("sort-buffer"), 1024u);
  EXPECT_GT(memory.CategoryPeakBytes("sort-cursors"), 0u);
  EXPECT_GE(memory.PeakBytes(), 1024u);
  auto out = Drain(&sorter);
  EXPECT_EQ(out.size(), 500u);
}

TEST_F(ExternalSorterTest, AddAfterFinishRejected) {
  ExternalSorterOptions opts;
  opts.scratch_dir = scratch_.path();
  ExternalSorter sorter(opts);
  ASSERT_OK(sorter.Finish());
  EXPECT_TRUE(sorter.AddKey(1).IsInvalidArgument());
}

TEST_F(ExternalSorterTest, VariableLengthPayloads) {
  ExternalSorterOptions opts;
  opts.memory_budget_bytes = 2048;
  opts.scratch_dir = scratch_.path();
  ExternalSorter sorter(opts);
  Random rng(5);
  std::map<uint64_t, std::vector<uint32_t>> expected;
  for (uint64_t k = 0; k < 200; ++k) {
    std::vector<uint32_t> payload(rng.Uniform(50));
    for (auto& p : payload) p = static_cast<uint32_t>(rng.Uniform(1000));
    ASSERT_OK(sorter.Add(k, payload.data(),
                         static_cast<uint32_t>(payload.size())));
    expected[k] = payload;
  }
  ASSERT_OK(sorter.Finish());
  auto out = Drain(&sorter);
  ASSERT_EQ(out.size(), 200u);
  for (auto& [key, payload] : out) {
    EXPECT_EQ(payload, expected[key]) << "key " << key;
  }
}

// Records for the view tests: key k carries PayloadLen(k) words, word j
// being PayloadWord(k, j), so a view is checked against its key alone.
// Key kHugeKey's payload (1.2 MB) is larger than a run cursor's 1 MiB
// read buffer.
constexpr uint64_t kViewRecords = 60000;
constexpr uint64_t kHugeKey = 31337;
uint32_t PayloadLen(uint64_t key) {
  return key == kHugeKey ? 300000u : static_cast<uint32_t>(key % 61);
}
uint32_t PayloadWord(uint64_t key, uint32_t j) {
  return static_cast<uint32_t>(key * 977 + j);
}

// Adds the view-test records in a shuffled order, drains the sorter and
// checks every record through its view.
void ExpectViewsRoundTrip(ExternalSorterOptions opts, bool spills) {
  ExternalSorter sorter(opts);
  std::vector<uint64_t> keys(kViewRecords);
  for (uint64_t k = 0; k < kViewRecords; ++k) keys[k] = k;
  Random rng(21);
  for (uint64_t i = kViewRecords - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.Uniform(i + 1)]);
  }
  std::vector<uint32_t> payload;
  for (uint64_t key : keys) {
    payload.resize(PayloadLen(key));
    for (uint32_t j = 0; j < payload.size(); ++j) {
      payload[j] = PayloadWord(key, j);
    }
    ASSERT_OK(sorter.Add(key, payload.data(), PayloadLen(key)));
  }
  ASSERT_OK(sorter.Finish());
  EXPECT_EQ(sorter.NumInitialRuns() > 1, spills);

  // Each view is read in full before the next call, which may invalidate
  // it: a run's next record can slide or grow the window under it.
  SortedRecordView rec;
  uint64_t expected_key = 0;
  while (sorter.Next(&rec)) {
    ASSERT_EQ(rec.key, expected_key++);
    ASSERT_EQ(rec.len, PayloadLen(rec.key));
    for (uint32_t j = 0; j < rec.len; ++j) {
      ASSERT_EQ(rec.payload[j], PayloadWord(rec.key, j))
          << "key " << rec.key << " word " << j;
    }
  }
  EXPECT_OK(sorter.status());
  EXPECT_EQ(expected_key, kViewRecords);
}

TEST_F(ExternalSorterTest, InMemoryViewsRoundTrip) {
  ExternalSorterOptions opts;
  opts.scratch_dir = scratch_.path();
  ExpectViewsRoundTrip(opts, /*spills=*/false);
}

TEST_F(ExternalSorterTest, SpilledViewsRoundTrip) {
  // ~2 MiB runs: every run cursor slides its read window many times and
  // grows it once for the huge record.
  ExternalSorterOptions opts;
  opts.memory_budget_bytes = 2 << 20;
  opts.scratch_dir = scratch_.path();
  ExpectViewsRoundTrip(opts, /*spills=*/true);
}

}  // namespace
}  // namespace semis
