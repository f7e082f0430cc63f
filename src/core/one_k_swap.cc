#include "core/one_k_swap.h"

#include <unordered_map>

#include "graph/adjacency_file.h"
#include "util/timer.h"

namespace semis {

namespace {

// Implementation state of one run. The per-vertex arrays are the
// algorithm's entire long-lived memory: state (1 byte) + isn (4 bytes),
// the paper's "2|V|" bookkeeping.
class OneKSwapRun {
 public:
  OneKSwapRun(const OneKSwapOptions& options, uint64_t n)
      : options_(options),
        n_(n),
        state_(n, VState::kN),
        isn_(n, kInvalidVertex) {}

  Status Execute(AdjacencyFileScanner* scanner, const BitVector& initial_set,
                 AlgoResult* res);

 private:
  // ISN^-1 counter of IS vertex w lives in isn_[w] (counting trick). The
  // ablation keeps an explicit index instead.
  void CounterReset(VertexId w) {
    if (options_.use_counting_trick) {
      isn_[w] = 0;
    } else {
      inv_index_[w].clear();
    }
  }
  void CounterAdd(VertexId w, VertexId u) {
    if (options_.use_counting_trick) {
      isn_[w]++;
    } else {
      inv_index_[w].push_back(u);
    }
  }
  void CounterRemove(VertexId w, VertexId u) {
    if (options_.use_counting_trick) {
      if (isn_[w] > 0) isn_[w]--;
    } else {
      auto& vec = inv_index_[w];
      for (size_t i = 0; i < vec.size(); ++i) {
        if (vec[i] == u) {
          vec[i] = vec.back();
          vec.pop_back();
          break;
        }
      }
    }
  }
  // Members of ISN^-1(w) that still have state A (the trick keeps the
  // count exact because transitions out of A decrement it immediately).
  uint64_t CounterGet(VertexId w) const {
    if (options_.use_counting_trick) return isn_[w];
    auto it = inv_index_.find(w);
    return it == inv_index_.end() ? 0 : it->second.size();
  }

  // Transitions u out of state A, maintaining the counter of its IS
  // anchor when that anchor is still an IS vertex.
  void LeaveA(VertexId u) {
    VertexId w = isn_[u];
    if (w != kInvalidVertex && state_[w] == VState::kI) CounterRemove(w, u);
  }

  Status InitialLabelScan(AdjacencyFileScanner* scanner);
  Status PreSwapScan(AdjacencyFileScanner* scanner, RoundStats* round);
  void SwapPass(RoundStats* round, bool* can_swap);
  Status PostSwapScan(AdjacencyFileScanner* scanner, RoundStats* round);
  Status CompletionScan(AdjacencyFileScanner* scanner, uint64_t* added);

  const OneKSwapOptions& options_;
  const uint64_t n_;
  std::vector<VState> state_;
  std::vector<VertexId> isn_;
  // Ablation only (use_counting_trick == false).
  std::unordered_map<VertexId, std::vector<VertexId>> inv_index_;
  uint64_t is_size_ = 0;
};

Status OneKSwapRun::InitialLabelScan(AdjacencyFileScanner* scanner) {
  // Lines 1-3 of Algorithm 2: a non-IS vertex with exactly one IS
  // neighbor e becomes A with ISN(u) = e.
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner->Next(&rec, &has_next));
    if (!has_next) break;
    if (state_[rec.id] == VState::kI) continue;
    VertexId e = kInvalidVertex;
    uint32_t is_neighbors = 0;
    for (uint32_t i = 0; i < rec.degree && is_neighbors < 2; ++i) {
      if (state_[rec.neighbors[i]] == VState::kI) {
        is_neighbors++;
        e = rec.neighbors[i];
      }
    }
    if (is_neighbors == 1) {
      state_[rec.id] = VState::kA;
      isn_[rec.id] = e;
      CounterAdd(e, rec.id);
    }
  }
  return Status::OK();
}

Status OneKSwapRun::PreSwapScan(AdjacencyFileScanner* scanner,
                                RoundStats* round) {
  // Lines 7-14 of Algorithm 2, in the paper's priority order:
  //   (i)  a P neighbor wins the race -> become C;
  //   (ii) a fresh 1-2 swap skeleton -> become P, demote w to R;
  //   (iii) our IS vertex already left (state R) -> join as P.
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner->Next(&rec, &has_next));
    if (!has_next) break;
    const VertexId u = rec.id;
    if (state_[u] != VState::kA) continue;
    const VertexId w = isn_[u];
    bool has_p_neighbor = false;
    uint64_t x = 0;  // neighbors that share our anchor and are still A
    for (uint32_t i = 0; i < rec.degree; ++i) {
      const VertexId nb = rec.neighbors[i];
      if (state_[nb] == VState::kP) {
        has_p_neighbor = true;
        break;
      }
      if (state_[nb] == VState::kA && isn_[nb] == w) x++;
    }
    if (has_p_neighbor) {
      LeaveA(u);
      state_[u] = VState::kC;
      round->conflicts++;
      continue;
    }
    if (state_[w] == VState::kI) {
      // 1-2 swap skeleton (u, v, w) exists iff some A vertex v != u with
      // ISN(v) = w is NOT adjacent to u. |ISN^-1(w)| counts u itself plus
      // its x conflicting neighbors plus any eligible v.
      if (CounterGet(w) >= x + 2) {
        LeaveA(u);
        state_[u] = VState::kP;
        state_[w] = VState::kR;
        round->one_k_swaps++;
      }
    } else if (state_[w] == VState::kR) {
      // Line 13-14: extend the running 1-k swap.
      state_[u] = VState::kP;
      round->follower_joins++;
    }
  }
  return Status::OK();
}

void OneKSwapRun::SwapPass(RoundStats* round, bool* can_swap) {
  // Lines 15-19: commit the round. Pure state-array pass; no file I/O.
  for (uint64_t v = 0; v < n_; ++v) {
    if (state_[v] == VState::kP) {
      state_[v] = VState::kI;
      CounterReset(static_cast<VertexId>(v));
      round->new_is_vertices++;
      is_size_++;
    } else if (state_[v] == VState::kR) {
      state_[v] = VState::kN;
      isn_[v] = kInvalidVertex;
      round->removed_is_vertices++;
      is_size_--;
      *can_swap = true;
    }
  }
}

Status OneKSwapRun::PostSwapScan(AdjacencyFileScanner* scanner,
                                 RoundStats* round) {
  // Lines 20-28. Counters of IS vertices are rebuilt from scratch here, so
  // zero them first (they may be stale after the pre-swap transitions).
  for (uint64_t v = 0; v < n_; ++v) {
    if (state_[v] == VState::kI) CounterReset(static_cast<VertexId>(v));
  }
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner->Next(&rec, &has_next));
    if (!has_next) break;
    const VertexId u = rec.id;
    if (state_[u] == VState::kN) {
      // Lines 21-23: 0<->1 swap. Only an all-C/N neighborhood is safe: an
      // A neighbor's ISN could go stale if we joined the set here.
      bool all_c_or_n = true;
      for (uint32_t i = 0; i < rec.degree; ++i) {
        const VState s = state_[rec.neighbors[i]];
        if (s != VState::kC && s != VState::kN) {
          all_c_or_n = false;
          break;
        }
      }
      if (all_c_or_n) {
        state_[u] = VState::kI;
        CounterReset(u);
        round->zero_one_swaps++;
        round->new_is_vertices++;
        is_size_++;
        continue;
      }
    }
    if (state_[u] == VState::kC || state_[u] == VState::kA ||
        state_[u] == VState::kN) {
      // Lines 24-28: relabel for the next round. The pseudo-code of
      // Algorithm 2 spells out C and A; N must be included as well
      // (exactly as Algorithm 3 line 16 does), otherwise a vertex that
      // starts with two IS neighbors and loses one can never become a
      // swap candidate -- and the paper's own cascade-swap worst case
      // (Figure 5) could not cascade.
      VertexId e = kInvalidVertex;
      uint32_t is_neighbors = 0;
      for (uint32_t i = 0; i < rec.degree && is_neighbors < 2; ++i) {
        if (state_[rec.neighbors[i]] == VState::kI) {
          is_neighbors++;
          e = rec.neighbors[i];
        }
      }
      if (is_neighbors == 1) {
        state_[u] = VState::kA;
        isn_[u] = e;
        CounterAdd(e, u);
      } else {
        state_[u] = VState::kN;
        isn_[u] = kInvalidVertex;
      }
    }
  }
  return Status::OK();
}

Status OneKSwapRun::CompletionScan(AdjacencyFileScanner* scanner,
                                   uint64_t* added) {
  // Implementation note (divergence from the paper, documented in
  // DESIGN.md): Algorithm 2's 0-1 rule only fires when the whole
  // neighborhood is C/N, so a vertex whose last IS neighbor was swapped
  // away can stay out of the set forever if one neighbor keeps state A.
  // After convergence no more swaps will happen, so it is safe to add any
  // vertex with no IS neighbor; doing it in scan order keeps independence
  // (once added, later vertices see the I state).
  *added = 0;
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner->Next(&rec, &has_next));
    if (!has_next) break;
    if (state_[rec.id] == VState::kI) continue;
    bool has_is_neighbor = false;
    for (uint32_t i = 0; i < rec.degree; ++i) {
      if (state_[rec.neighbors[i]] == VState::kI) {
        has_is_neighbor = true;
        break;
      }
    }
    if (!has_is_neighbor) {
      state_[rec.id] = VState::kI;
      is_size_++;
      (*added)++;
    }
  }
  return Status::OK();
}

Status OneKSwapRun::Execute(AdjacencyFileScanner* scanner,
                            const BitVector& initial_set, AlgoResult* res) {
  res->memory.Add("state", n_ * sizeof(VState));
  res->memory.Add("isn", n_ * sizeof(VertexId));

  for (uint64_t v = 0; v < n_; ++v) {
    if (initial_set.Test(v)) {
      state_[v] = VState::kI;
      CounterReset(static_cast<VertexId>(v));
      is_size_++;
    }
  }
  SEMIS_RETURN_IF_ERROR(InitialLabelScan(scanner));
  auto observe = [&](const char* phase, uint64_t round) {
    if (options_.observer) options_.observer(phase, round, state_);
  };
  observe("init", 0);

  // Lines 4-6: rounds until no swap fires (or the early-stop cap).
  bool can_swap = true;
  while (can_swap &&
         (options_.max_rounds == 0 || res->rounds < options_.max_rounds)) {
    can_swap = false;
    RoundStats round;
    WallTimer round_timer;
    SEMIS_RETURN_IF_ERROR(scanner->Rewind());
    SEMIS_RETURN_IF_ERROR(PreSwapScan(scanner, &round));
    observe("pre-swap", res->rounds);
    SwapPass(&round, &can_swap);
    observe("swap", res->rounds);
    SEMIS_RETURN_IF_ERROR(scanner->Rewind());
    SEMIS_RETURN_IF_ERROR(PostSwapScan(scanner, &round));
    observe("post-swap", res->rounds);
    round.is_size_after = is_size_;
    round.seconds = round_timer.ElapsedSeconds();
    res->round_stats.push_back(round);
    res->rounds++;
    if (!options_.use_counting_trick) {
      size_t bytes = 0;
      // Order-insensitive sum for memory accounting.
      // semis-lint: allow(unordered-iteration)
      for (const auto& kv : inv_index_) {
        bytes += sizeof(kv) + kv.second.capacity() * sizeof(VertexId);
      }
      res->memory.Set("inv-index", bytes);
    }
  }

  if (options_.final_maximality_pass) {
    uint64_t added = 0;
    SEMIS_RETURN_IF_ERROR(scanner->Rewind());
    SEMIS_RETURN_IF_ERROR(CompletionScan(scanner, &added));
    observe("completion", res->rounds);
  }

  ExtractIndependentSet(state_, &res->in_set, &res->set_size);
  res->memory.Add("result-bitset", res->in_set.MemoryBytes());
  res->peak_memory_bytes = res->memory.PeakBytes();
  return Status::OK();
}

}  // namespace

Status RunOneKSwap(const std::string& path, const BitVector& initial_set,
                   const OneKSwapOptions& options, AlgoResult* result) {
  WallTimer timer;
  AlgoResult res;
  AdjacencyFileScanner scanner(&res.io);
  SEMIS_RETURN_IF_ERROR(scanner.Open(path));
  const uint64_t n = scanner.header().num_vertices;
  if (initial_set.size() != n) {
    return Status::InvalidArgument(
        "initial set size does not match graph vertex count");
  }
  OneKSwapRun run(options, n);
  SEMIS_RETURN_IF_ERROR(run.Execute(&scanner, initial_set, &res));
  res.seconds = timer.ElapsedSeconds();
  *result = std::move(res);
  return Status::OK();
}

}  // namespace semis
