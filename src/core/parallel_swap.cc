#include "core/parallel_swap.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "core/swap_candidate_index.h"
#include "graph/shard_store.h"
#include "graph/sharded_adjacency_file.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/u64_hash_set.h"

namespace semis {

namespace {

// Per-vertex commit decision of one round, written only by the worker
// scanning the vertex's record.
enum class Decision : uint8_t { kNone = 0, kEnter, kLeave, kDenied };

class ParallelSwapRun {
 public:
  ParallelSwapRun(const std::string& manifest_path,
                  ShardedAdjacencyManifest manifest,
                  const ParallelSwapOptions& options)
      : options_(options),
        manifest_path_(manifest_path),
        manifest_(std::move(manifest)),
        n_(manifest_.header.num_vertices),
        pool_(options.num_threads),
        worker_io_(pool_.size()),
        state_(n_),
        isn1_(n_, kInvalidVertex),
        isn2_(n_, kInvalidVertex),
        cnt_(n_),
        mark_r_(n_),
        decision_(n_, Decision::kNone),
        free_(n_, 0),
        contexts_(pool_.size()) {}

  // Exactly one of `initial_set` / `initial_states` is non-null; both
  // describe the same thing (initial IS membership per vertex).
  Status Execute(const BitVector* initial_set,
                 const std::vector<VState>* initial_states, AlgoResult* res);

 private:
  // Shard-local scan-order context of the 2<->k discovery (Algorithm 4).
  // Each worker owns one and clears it at every shard start, so discovery
  // never depends on which worker scans which shard; clearing keeps the
  // capacity, so a warm context allocates nothing.
  // Cache-line aligned: each worker writes its own context on every
  // record, so neighboring contexts must not share a line.
  struct alignas(64) ShardContext {
    SwapCandidateIndex sc;
    // IS vertices this shard already marked for removal, and non-IS
    // vertices already consumed by a fired skeleton.
    U64HashSet removed;
    U64HashSet used;
    uint64_t sc_vertices = 0;

    void Clear() {
      sc.Clear();
      removed.Reset();
      used.Reset();
      sc_vertices = 0;
    }
    size_t MemoryBytes() const {
      return sc.MemoryBytes() + removed.MemoryBytes() + used.MemoryBytes();
    }
  };

  VState State(VertexId v) const {
    return static_cast<VState>(state_[v].load(std::memory_order_relaxed));
  }
  void SetState(VertexId v, VState s) {
    state_[v].store(static_cast<uint8_t>(s), std::memory_order_relaxed);
  }
  bool MarkedR(VertexId v) const {
    return mark_r_[v].load(std::memory_order_relaxed) != 0;
  }
  bool IsAnchor(VertexId v) const { return isn2_[v] != kInvalidVertex; }

  /// A vertex joins the entering wave iff it is labeled A and every one of
  /// its ISN vertices was marked for removal. Evaluated against state
  /// frozen at the proposal-phase barrier, so it is scan-order free.
  bool EnterCandidate(VertexId v) const {
    if (State(v) != VState::kA) return false;
    if (!MarkedR(isn1_[v])) return false;
    const VertexId w2 = isn2_[v];
    return w2 == kInvalidVertex || MarkedR(w2);
  }

  // One full pass over the file: runs `per_shard(shard, worker)` for every
  // shard, distributed over the pool, short-circuiting a worker after its
  // first error. Returns the first per-worker error.
  template <typename PerShard>
  Status RunShardPass(PerShard&& per_shard) {
    std::vector<Status> worker_status(pool_.size());
    pool_.ParallelFor(
        manifest_.num_shards(), [&](size_t shard, size_t worker) {
          if (!worker_status[worker].ok()) return;
          worker_status[worker] =
              per_shard(static_cast<uint32_t>(shard), worker);
        });
    scans_started_++;
    for (const Status& s : worker_status) {
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  // Runs `fn(rec, worker)` over every record of every shard.
  template <typename Fn>
  Status ScanShards(Fn&& fn) {
    return RunShardPass([&](uint32_t shard, size_t worker) {
      return ScanOneShard(shard, worker, [&](const VertexRecordView& rec) {
        fn(rec, worker);
      });
    });
  }

  template <typename RecordFn>
  Status ScanOneShard(uint32_t shard, size_t worker, RecordFn&& fn) {
    AdjacencyShardReader reader(&worker_io_[worker]);
    SEMIS_RETURN_IF_ERROR(reader.Open(manifest_path_, manifest_, shard));
    VertexRecordView rec;
    bool has_next = false;
    while (true) {
      SEMIS_RETURN_IF_ERROR(reader.Next(&rec, &has_next));
      if (!has_next) break;
      fn(rec);
    }
    return reader.Close();
  }

  Status LabelScan();
  Status ProposalScan(RoundStats* round, AlgoResult* res);
  Status SwapScan();
  void ApplySwaps(RoundStats* round);
  Status FreeScan();
  Status JoinScan();
  uint64_t ApplyJoins(RoundStats* round);

  // --- proposal-scan helpers (shard-local, snapshot state only) ---
  bool IsLive(VertexId w, const ShardContext& ctx) const {
    return State(w) == VState::kI && !ctx.removed.Contains(w);
  }
  void MarkRemove(VertexId w, ShardContext* ctx) {
    mark_r_[w].store(1, std::memory_order_relaxed);
    ctx->removed.Insert(w);
  }
  void StampNeighbors(const VertexRecordView& rec, size_t worker);
  bool Stamped(VertexId v, size_t worker) const {
    return stamp_[worker][v] == token_[worker];
  }
  void ProposalVertex(const VertexRecordView& rec, size_t worker,
                      ShardContext* ctx, RoundStats* round);
  void TryTwoKSwap(const VertexRecordView& rec, size_t worker,
                   ShardContext* ctx, RoundStats* round);

  const ParallelSwapOptions& options_;
  const std::string manifest_path_;
  const ShardedAdjacencyManifest manifest_;
  const uint64_t n_;
  ThreadPool pool_;
  std::vector<IoStats> worker_io_;
  uint64_t scans_started_ = 0;

  // Shared vertex-state tables. `state_` is atomic because the label scan
  // relabels non-IS vertices while other workers test neighbors for
  // IS-ness; IS-ness itself never changes inside a scan, so relaxed
  // ordering cannot change any outcome.
  std::vector<std::atomic<uint8_t>> state_;
  std::vector<VertexId> isn1_;
  std::vector<VertexId> isn2_;
  std::vector<std::atomic<uint32_t>> cnt_;  // |ISN^-1(w)| per IS vertex
  std::vector<std::atomic<uint8_t>> mark_r_;
  std::vector<Decision> decision_;
  std::vector<uint8_t> free_;  // 1 = not in IS and no IS neighbor

  // Per-worker neighborhood stamps for O(1) adjacency tests against the
  // record in hand (two-k discovery only).
  std::vector<std::vector<uint32_t>> stamp_;
  std::vector<uint32_t> token_;

  // Per-worker proposal-scan context, indexed by worker id.
  std::vector<ShardContext> contexts_;

  uint64_t is_size_ = 0;
  uint64_t sc_peak_vertices_ = 0;
};

Status ParallelSwapRun::LabelScan() {
  for (uint64_t v = 0; v < n_; ++v) {
    cnt_[v].store(0, std::memory_order_relaxed);
  }
  return ScanShards([this](const VertexRecordView& rec, size_t) {
    const VertexId u = rec.id;
    if (State(u) == VState::kI) return;
    VertexId e1 = kInvalidVertex, e2 = kInvalidVertex;
    uint32_t count = 0;
    for (uint32_t i = 0; i < rec.degree && count < 3; ++i) {
      const VertexId nb = rec.neighbors[i];
      if (State(nb) == VState::kI) {
        if (count == 0) {
          e1 = nb;
        } else if (count == 1) {
          e2 = nb;
        }
        count++;
      }
    }
    if (count == 1) {
      SetState(u, VState::kA);
      isn1_[u] = e1;
      isn2_[u] = kInvalidVertex;
      cnt_[e1].fetch_add(1, std::memory_order_relaxed);
    } else if (count == 2 && options_.enable_two_k) {
      SetState(u, VState::kA);
      isn1_[u] = e1;
      isn2_[u] = e2;
    } else {
      SetState(u, VState::kN);
      isn1_[u] = kInvalidVertex;
      isn2_[u] = kInvalidVertex;
    }
  });
}

void ParallelSwapRun::StampNeighbors(const VertexRecordView& rec,
                                     size_t worker) {
  if (stamp_[worker].empty()) stamp_[worker].assign(n_, 0);
  if (++token_[worker] == 0) {  // wrapped: clear and restart
    std::fill(stamp_[worker].begin(), stamp_[worker].end(), 0);
    token_[worker] = 1;
  }
  for (uint32_t i = 0; i < rec.degree; ++i) {
    stamp_[worker][rec.neighbors[i]] = token_[worker];
  }
}

void ParallelSwapRun::TryTwoKSwap(const VertexRecordView& rec, size_t worker,
                                  ShardContext* ctx, RoundStats* round) {
  // Shard-local Algorithm 4: register u in SC(w1, w2), pair it with an
  // earlier compatible anchor, and fire the 2-3 skeleton when u is the
  // third mutually non-adjacent vertex. `ctx` carries the scan-order
  // context; it never leaves the shard, so discovery is identical no
  // matter which worker runs it.
  const VertexId u = rec.id;
  const VertexId w1 = isn1_[u];
  const VertexId w2 = isn2_[u];
  StampNeighbors(rec, worker);
  auto live = [this, ctx](VertexId w) { return IsLive(w, *ctx); };
  auto can_join = [this, ctx, worker](VertexId v) {
    return !ctx->used.Contains(v) && !Stamped(v, worker);
  };
  if (ctx->sc.Register(u, w1, w2, options_.max_pairs_per_bucket, live,
                       can_join)) {
    ctx->sc_vertices++;
  }

  // 2-3 skeleton with u as the third vertex.
  SwapCandidateIndex::Skeleton sk;
  if (!ctx->sc.TakeSkeleton(u, w1, w2, live, can_join, &sk)) return;
  // Fire: (v1, v2, u) replace (w1, w2). The entering trio joins the wave
  // via the all-ISN-removed rule at the swap scan.
  ctx->used.Insert(u);
  ctx->used.Insert(sk.v1);
  ctx->used.Insert(sk.v2);
  MarkRemove(sk.w1, ctx);
  MarkRemove(sk.w2, ctx);
  round->two_k_swaps++;  // per-round totals aggregated via atomics below
}

void ParallelSwapRun::ProposalVertex(const VertexRecordView& rec, size_t worker,
                                     ShardContext* ctx, RoundStats* round) {
  const VertexId u = rec.id;
  if (State(u) != VState::kA) return;
  if (ctx->used.Contains(u)) return;  // already entering via a skeleton

  if (options_.enable_two_k) {
    TryTwoKSwap(rec, worker, ctx, round);
    if (ctx->used.Contains(u)) return;
  }

  // 1-2 swap skeleton via the ISN^-1 counting trick (Section 5.4): u has
  // a non-adjacent partner sharing its single IS neighbor w iff
  // |ISN^-1(w)| >= x + 2, where x counts u's A neighbors pointing at w.
  // Only w's removal is marked here; u (and every other A vertex whose
  // whole ISN leaves) joins the entering wave in the swap scan, which is
  // exactly the paper's follower-join rule evaluated wave-wide.
  if (IsAnchor(u)) return;  // an anchor's second IS neighbor stays
  const VertexId w = isn1_[u];
  if (!IsLive(w, *ctx)) return;
  uint32_t x = 0;
  for (uint32_t i = 0; i < rec.degree; ++i) {
    const VertexId nb = rec.neighbors[i];
    if (State(nb) == VState::kA && !IsAnchor(nb) && isn1_[nb] == w) x++;
  }
  if (cnt_[w].load(std::memory_order_relaxed) >= x + 2) {
    MarkRemove(w, ctx);
    round->one_k_swaps++;
  }
}

Status ParallelSwapRun::ProposalScan(RoundStats* round, AlgoResult* res) {
  std::atomic<uint64_t> one_k{0}, two_k{0}, sc_vertices{0};
  SEMIS_RETURN_IF_ERROR(RunShardPass([&](uint32_t shard, size_t worker) {
    ShardContext& ctx = contexts_[worker];
    ctx.Clear();
    RoundStats local;
    Status s = ScanOneShard(shard, worker, [&](const VertexRecordView& rec) {
      ProposalVertex(rec, worker, &ctx, &local);
    });
    one_k.fetch_add(local.one_k_swaps, std::memory_order_relaxed);
    two_k.fetch_add(local.two_k_swaps, std::memory_order_relaxed);
    sc_vertices.fetch_add(ctx.sc_vertices, std::memory_order_relaxed);
    return s;
  }));
  round->one_k_swaps = one_k.load();
  round->two_k_swaps = two_k.load();
  sc_peak_vertices_ = std::max(sc_peak_vertices_, sc_vertices.load());
  // The per-worker contexts stay resident between scans: charge what they
  // hold, retained capacity included.
  size_t sc_bytes = 0;
  for (const ShardContext& ctx : contexts_) sc_bytes += ctx.MemoryBytes();
  res->memory.Set("sc", sc_bytes);
  return Status::OK();
}

Status ParallelSwapRun::SwapScan() {
  return ScanShards([this](const VertexRecordView& rec, size_t) {
    const VertexId u = rec.id;
    if (State(u) == VState::kI) {
      if (MarkedR(u)) decision_[u] = Decision::kLeave;
      return;
    }
    if (!EnterCandidate(u)) return;
    // Lowest vertex id wins among adjacent entering candidates; a
    // neighbor that stays in the IS blocks unconditionally (cannot happen
    // for an A vertex whose whole ISN leaves, but kept as an invariant
    // guard). The rule reads only barrier-frozen data, so the outcome is
    // identical regardless of scan interleaving.
    bool denied = false;
    for (uint32_t i = 0; i < rec.degree; ++i) {
      const VertexId nb = rec.neighbors[i];
      if (State(nb) == VState::kI && !MarkedR(nb)) {
        denied = true;
        break;
      }
      if (nb < u && EnterCandidate(nb)) {
        denied = true;
        break;
      }
    }
    decision_[u] = denied ? Decision::kDenied : Decision::kEnter;
  });
}

void ParallelSwapRun::ApplySwaps(RoundStats* round) {
  for (uint64_t v = 0; v < n_; ++v) {
    switch (decision_[v]) {
      case Decision::kLeave:
        SetState(static_cast<VertexId>(v), VState::kN);
        round->removed_is_vertices++;
        is_size_--;
        break;
      case Decision::kEnter:
        SetState(static_cast<VertexId>(v), VState::kI);
        round->new_is_vertices++;
        is_size_++;
        break;
      case Decision::kDenied:
        round->denied_promotions++;
        round->conflicts++;
        break;
      case Decision::kNone:
        break;
    }
    decision_[v] = Decision::kNone;
    mark_r_[v].store(0, std::memory_order_relaxed);
  }
}

Status ParallelSwapRun::FreeScan() {
  return ScanShards([this](const VertexRecordView& rec, size_t) {
    const VertexId u = rec.id;
    if (State(u) == VState::kI) {
      free_[u] = 0;
      return;
    }
    bool has_is_neighbor = false;
    for (uint32_t i = 0; i < rec.degree; ++i) {
      if (State(rec.neighbors[i]) == VState::kI) {
        has_is_neighbor = true;
        break;
      }
    }
    free_[u] = has_is_neighbor ? 0 : 1;
  });
}

Status ParallelSwapRun::JoinScan() {
  // 0<->1 swaps: a free vertex (no IS neighbor) joins iff it is the local
  // minimum among the free vertices of its closed neighborhood -- the
  // deterministic parallel counterpart of the sequential post-swap rule.
  return ScanShards([this](const VertexRecordView& rec, size_t) {
    const VertexId u = rec.id;
    if (!free_[u]) return;
    for (uint32_t i = 0; i < rec.degree; ++i) {
      const VertexId nb = rec.neighbors[i];
      if (nb < u && free_[nb]) return;
    }
    decision_[u] = Decision::kEnter;
  });
}

uint64_t ParallelSwapRun::ApplyJoins(RoundStats* round) {
  uint64_t joined = 0;
  for (uint64_t v = 0; v < n_; ++v) {
    if (decision_[v] == Decision::kEnter) {
      SetState(static_cast<VertexId>(v), VState::kI);
      joined++;
      is_size_++;
    }
    decision_[v] = Decision::kNone;
  }
  if (round != nullptr) {
    round->zero_one_swaps += joined;
    round->new_is_vertices += joined;
  }
  return joined;
}

Status ParallelSwapRun::Execute(const BitVector* initial_set,
                                const std::vector<VState>* initial_states,
                                AlgoResult* res) {
  res->memory.Add("state", n_ * sizeof(uint8_t));
  res->memory.Add("isn", 2 * n_ * sizeof(VertexId));
  res->memory.Add("counters", n_ * sizeof(uint32_t));
  res->memory.Add("marks", n_ * sizeof(uint8_t));
  res->memory.Add("decision", n_ * sizeof(Decision));
  res->memory.Add("free", n_ * sizeof(uint8_t));
  stamp_.resize(pool_.size());
  token_.assign(pool_.size(), 0);
  if (options_.enable_two_k) {
    // Stamps are allocated lazily per worker, but charge them up front:
    // every worker that touches a shard needs one.
    res->memory.Add("stamps", pool_.size() * n_ * sizeof(uint32_t));
  }

  for (uint64_t v = 0; v < n_; ++v) {
    const bool in = initial_set != nullptr
                        ? initial_set->Test(v)
                        : (*initial_states)[v] == VState::kI;
    SetState(static_cast<VertexId>(v), in ? VState::kI : VState::kN);
    if (in) is_size_++;
  }

  uint64_t stalled_rounds = 0;
  bool progress = true;
  while (progress &&
         (options_.max_rounds == 0 || res->rounds < options_.max_rounds)) {
    const uint64_t size_before = is_size_;
    RoundStats round;
    WallTimer round_timer;
    SEMIS_RETURN_IF_ERROR(LabelScan());
    SEMIS_RETURN_IF_ERROR(ProposalScan(&round, res));
    SEMIS_RETURN_IF_ERROR(SwapScan());
    ApplySwaps(&round);
    SEMIS_RETURN_IF_ERROR(FreeScan());
    SEMIS_RETURN_IF_ERROR(JoinScan());
    ApplyJoins(&round);
    round.is_size_after = is_size_;
    round.seconds = round_timer.ElapsedSeconds();
    res->round_stats.push_back(round);
    res->rounds++;
    progress = round.removed_is_vertices + round.new_is_vertices > 0;
    stalled_rounds = is_size_ > size_before ? 0 : stalled_rounds + 1;
    if (options_.stall_round_limit > 0 &&
        stalled_rounds >= options_.stall_round_limit) {
      break;
    }
  }

  if (options_.final_maximality_pass) {
    while (true) {
      SEMIS_RETURN_IF_ERROR(FreeScan());
      SEMIS_RETURN_IF_ERROR(JoinScan());
      if (ApplyJoins(nullptr) == 0) break;
    }
  }

  res->in_set = BitVector(n_);
  res->set_size = 0;
  for (uint64_t v = 0; v < n_; ++v) {
    if (State(static_cast<VertexId>(v)) == VState::kI) {
      res->in_set.Set(v);
      res->set_size++;
    }
  }
  res->memory.Add("result-bitset", res->in_set.MemoryBytes());
  res->peak_memory_bytes = res->memory.PeakBytes();
  res->sc_peak_vertices = sc_peak_vertices_;

  for (const IoStats& io : worker_io_) res->io.MergeFrom(io);
  res->io.sequential_scans += scans_started_;
  return Status::OK();
}

}  // namespace

namespace {

Status RunParallelSwapImpl(const std::string& manifest_path,
                           const BitVector* initial_set,
                           const std::vector<VState>* initial_states,
                           const ParallelSwapOptions& options,
                           AlgoResult* result) {
  WallTimer timer;
  AlgoResult res;
  // Resolve a journaled-store root so the per-worker shard readers open
  // the current epoch's files.
  ShardedAdjacencyManifest manifest;
  std::string serving_path;
  SEMIS_RETURN_IF_ERROR(
      ReadShardStoreManifest(manifest_path, &manifest, &res.io, &serving_path));
  const uint64_t initial_size = initial_set != nullptr
                                    ? initial_set->size()
                                    : initial_states->size();
  if (initial_size != manifest.header.num_vertices) {
    return Status::InvalidArgument(
        "initial set size does not match graph vertex count");
  }
  ParallelSwapRun run(serving_path, std::move(manifest), options);
  SEMIS_RETURN_IF_ERROR(run.Execute(initial_set, initial_states, &res));
  res.seconds = timer.ElapsedSeconds();
  *result = std::move(res);
  return Status::OK();
}

}  // namespace

Status RunParallelSwap(const std::string& manifest_path,
                       const BitVector& initial_set,
                       const ParallelSwapOptions& options,
                       AlgoResult* result) {
  return RunParallelSwapImpl(manifest_path, &initial_set, nullptr, options,
                             result);
}

Status RunParallelSwap(const std::string& manifest_path,
                       const std::vector<VState>& initial_states,
                       const ParallelSwapOptions& options,
                       AlgoResult* result) {
  return RunParallelSwapImpl(manifest_path, nullptr, &initial_states, options,
                             result);
}

}  // namespace semis
