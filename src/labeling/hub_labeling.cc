#include "src/labeling/hub_labeling.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/obs/counters.h"
#include "src/util/min_heap.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace kosr {
namespace {

// First entry of rank >= `rank` in a rank-sorted label vector.
template <typename Labels>
auto LowerBoundRank(Labels& labels, uint32_t rank) {
  return std::lower_bound(
      labels.begin(), labels.end(), rank,
      [](const LabelEntry& e, uint32_t r) { return e.hub_rank < r; });
}

// Binary search for a rank in a rank-sorted label vector. Returns nullptr if
// absent.
const LabelEntry* FindRank(std::span<const LabelEntry> labels, uint32_t rank) {
  auto it = LowerBoundRank(labels, rank);
  if (it == labels.end() || it->hub_rank != rank) return nullptr;
  return &*it;
}

// Inserts or updates an entry, keeping the vector sorted by rank. Returns
// whether the vector changed (callers re-seal the flat runs of changed
// vertices only).
bool InsertOrUpdate(std::vector<LabelEntry>& labels, const LabelEntry& entry) {
  if (labels.empty() || labels.back().hub_rank < entry.hub_rank) {
    labels.push_back(entry);
    return true;
  }
  auto it = LowerBoundRank(labels, entry.hub_rank);
  if (it != labels.end() && it->hub_rank == entry.hub_rank) {
    if (entry.dist < it->dist) {
      *it = entry;
      return true;
    }
    return false;
  }
  labels.insert(it, entry);
  return true;
}

bool IsPermutation(const std::vector<VertexId>& order, uint32_t n) {
  if (order.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (VertexId v : order) {
    if (v >= n || seen[v]) return false;
    seen[v] = true;
  }
  return true;
}

// Snapshot validation shared by Deserialize and FromParts: every field of a
// label entry is attacker-controlled until proven otherwise.
void ValidateLabelVector(const std::vector<LabelEntry>& labels, uint32_t n,
                         const char* what) {
  uint32_t prev_rank = 0;
  bool first = true;
  for (const LabelEntry& e : labels) {
    if (e.hub_rank >= n) {
      throw std::runtime_error(std::string(what) + ": hub rank out of range");
    }
    if (!first && e.hub_rank <= prev_rank) {
      throw std::runtime_error(std::string(what) +
                               ": label vector not strictly rank-sorted");
    }
    if (e.parent != kInvalidVertex && e.parent >= n) {
      throw std::runtime_error(std::string(what) + ": parent out of range");
    }
    prev_rank = e.hub_rank;
    first = false;
  }
}

}  // namespace

// One (vertex, dist, parent) produced by a batched search, pending the
// commit-phase prune re-check.
struct HubLabeling::CandidateLabel {
  VertexId vertex;
  uint32_t dist;
  VertexId parent;
};

// First-touch pre-repair snapshots of label vectors, captured immediately
// before their first mutation. FinishRepair diffs them against the final
// vectors, so the reported delta lists exactly the vertices whose labels
// actually changed — a repair search that removes and re-inserts identical
// entries (tight-but-unchanged hubs) contributes nothing.
struct HubLabeling::RepairTracker {
  std::unordered_map<VertexId, std::vector<LabelEntry>> old_in;
  std::unordered_map<VertexId, std::vector<LabelEntry>> old_out;

  void Capture(bool in_side, VertexId v, const std::vector<LabelEntry>& cur) {
    (in_side ? old_in : old_out).try_emplace(v, cur);
  }
};

// Per-thread pruned-Dijkstra scratch. dist/parent are dense arrays reset via
// the touched list (cheap for small search spaces); scratch is the dense
// distance table keyed by hub rank holding the current hub's opposite-side
// labels during prune checks. `relaxations` counts the arcs every search on
// this context relaxed; the context's owner folds it into the calling
// thread's kPrunedRelaxations slot, so pool threads' searches are counted
// where the build was called.
struct HubLabeling::SearchContext {
  std::vector<Cost> dist;
  std::vector<VertexId> parent;
  std::vector<VertexId> touched;
  IndexedMinHeap heap;
  std::vector<Cost> scratch;
  std::vector<uint32_t> scratch_touched;
  uint64_t relaxations = 0;

  explicit SearchContext(uint32_t n)
      : dist(n, kInfCost),
        parent(n, kInvalidVertex),
        heap(n),
        scratch(n, kInfCost) {}
};

void HubLabeling::FlatSide::Seal(
    const std::vector<std::vector<LabelEntry>>& labels) {
  size_t n = labels.size();
  runs.resize(n);
  uint64_t total = kRunPadding;  // the shared empty run at slot 0
  for (const auto& l : labels) {
    if (!l.empty()) total += l.size() + kRunPadding;
  }
  key.clear();
  parent.clear();
  key.reserve(total);
  parent.reserve(total);
  // Slot 0 is one shared sentinel block that every empty run points at —
  // a disk-store working set (FromParts) is almost entirely empty runs,
  // and paying kRunPadding slots for each of those would triple its
  // footprint for no information.
  for (uint32_t p = 0; p < kRunPadding; ++p) {
    key.push_back(kSentinelKey);
    parent.push_back(kInvalidVertex);
  }
  for (size_t v = 0; v < n; ++v) {
    runs[v].len = static_cast<uint32_t>(labels[v].size());
    if (labels[v].empty()) {
      runs[v].start = 0;
      continue;
    }
    runs[v].start = key.size();
    for (const LabelEntry& e : labels[v]) {
      key.push_back(PackLabelKey(e.hub_rank, e.dist));
      parent.push_back(e.parent);
    }
    for (uint32_t p = 0; p < kRunPadding; ++p) {
      key.push_back(kSentinelKey);
      parent.push_back(kInvalidVertex);
    }
  }
  garbage = 0;
}

void HubLabeling::FlatSide::ResealRun(VertexId v,
                                      const std::vector<LabelEntry>& labels) {
  uint32_t old_len = runs[v].len;
  uint32_t new_len = static_cast<uint32_t>(labels.size());
  // Runs at slot 0 are views of the shared empty block (never owned), so
  // they have nothing to overwrite and nothing to turn into garbage.
  const bool shared_empty = runs[v].start == 0;
  if (new_len == 0) {
    // An emptied run (a deletion disconnected the vertex from every hub
    // that labeled it): repoint at the shared block, abandoning any owned
    // slot.
    if (!shared_empty) {
      garbage += old_len + kRunPadding;
      runs[v].start = 0;
    }
    runs[v].len = 0;
    return;
  }
  uint64_t s;
  if (!shared_empty && new_len <= old_len) {
    // Overwrite in place; the sentinel padding moves up and any slack
    // between the new padding and the old slot end becomes garbage
    // (increase/deletion repairs shrink runs whose hubs lost coverage).
    s = runs[v].start;
    garbage += old_len - new_len;
  } else {
    // The run grew past its slot (or out of the shared empty block):
    // append a fresh run at the tail and abandon any owned old slot.
    if (!shared_empty) garbage += old_len + kRunPadding;
    s = key.size();
    runs[v].start = s;
    key.resize(s + new_len + kRunPadding);
    parent.resize(s + new_len + kRunPadding);
  }
  for (uint32_t i = 0; i < new_len; ++i) {
    key[s + i] = PackLabelKey(labels[i].hub_rank, labels[i].dist);
    parent[s + i] = labels[i].parent;
  }
  for (uint32_t p = 0; p < kRunPadding; ++p) {
    key[s + new_len + p] = kSentinelKey;
    parent[s + new_len + p] = kInvalidVertex;
  }
  runs[v].len = new_len;
}

uint64_t HubLabeling::FlatSide::Bytes() const {
  return key.size() * (sizeof(uint64_t) + sizeof(VertexId)) +
         runs.size() * sizeof(RunRef);
}

void HubLabeling::Seal() {
  flat_in_.Seal(in_labels_);
  flat_out_.Seal(out_labels_);
}

void HubLabeling::ResealTouched(
    FlatSide& side, const std::vector<std::vector<LabelEntry>>& labels,
    std::vector<VertexId>& touched) {
  if (touched.empty()) return;
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (VertexId v : touched) side.ResealRun(v, labels[v]);
  // Compact once a quarter of the slots are dead — keeps the arrays within
  // a constant factor of the live size under sustained update streams.
  if (side.garbage * 4 > side.key.size()) side.Seal(labels);
}

uint64_t HubLabeling::FlatBytes() const {
  return flat_in_.Bytes() + flat_out_.Bytes();
}

std::vector<VertexId> HubLabeling::DegreeOrder(const Graph& graph,
                                               uint32_t num_threads) {
  uint32_t n = graph.num_vertices();
  // Precompute the keys once: the comparator runs O(n log n) times and the
  // degree lookups are two indirections each.
  std::vector<uint64_t> key(n);
  constexpr uint32_t kChunk = 4096;
  uint64_t chunks = (static_cast<uint64_t>(n) + kChunk - 1) / kChunk;
  ParallelForEachIndex(num_threads, chunks, [&](uint64_t c) {
    uint32_t lo = static_cast<uint32_t>(c * kChunk);
    uint32_t hi = std::min(n, lo + kChunk);
    for (VertexId v = lo; v < hi; ++v) {
      key[v] = static_cast<uint64_t>(graph.InDegree(v) + 1) *
               (graph.OutDegree(v) + 1);
    }
  });
  std::vector<VertexId> order(n);
  for (VertexId v = 0; v < n; ++v) order[v] = v;
  ParallelSort(
      order,
      [&](VertexId a, VertexId b) {
        return key[a] != key[b] ? key[a] > key[b] : a < b;
      },
      num_threads);
  return order;
}

void HubLabeling::Build(const Graph& graph, uint32_t num_threads) {
  Build(graph, DegreeOrder(graph, num_threads), num_threads);
}

void HubLabeling::Build(const Graph& graph, const std::vector<VertexId>& order,
                        uint32_t num_threads) {
  uint32_t n = graph.num_vertices();
  if (!IsPermutation(order, n)) {
    throw std::invalid_argument("order must be a permutation of the vertices");
  }
  WallTimer timer;
  in_labels_.assign(n, {});
  out_labels_.assign(n, {});
  order_ = order;
  rank_.assign(n, 0);
  for (uint32_t r = 0; r < n; ++r) rank_[order_[r]] = r;
  std::vector<HubSearch> searches;
  searches.reserve(2 * static_cast<size_t>(n));
  for (uint32_t r = 0; r < n; ++r) {
    searches.push_back({r, /*forward=*/true});
    searches.push_back({r, /*forward=*/false});
  }
  SearchAndCommit(graph, searches, num_threads, nullptr);
  Seal();
  build_seconds_ = timer.ElapsedSeconds();
}

void HubLabeling::SearchAndCommit(const Graph& graph,
                                  std::span<const HubSearch> searches,
                                  uint32_t num_threads,
                                  RepairTracker* tracker) {
  const uint32_t n = num_vertices();
  // More threads than searches would only idle.
  num_threads = static_cast<uint32_t>(
      std::min<uint64_t>(ResolveThreadCount(num_threads), searches.size()));
  if (num_threads <= 1) {
    // Sequential path: labels commit directly during the search (the prune
    // there already runs against the fully committed prefix), so there is
    // nothing to re-check.
    SearchContext ctx(n);
    for (const HubSearch& s : searches) {
      PrunedSearch(graph, s.rank, s.forward, ctx, nullptr, tracker);
    }
    KOSR_COUNT(kPrunedRelaxations, ctx.relaxations);
    return;
  }

  // One persistent pool for the whole call: the batch loop below issues
  // two parallel-fors per batch (hundreds per index), and respawning
  // threads each time dominated small-batch wall time.
  ThreadPool pool(num_threads);
  num_threads = pool.num_threads();
  std::vector<std::unique_ptr<SearchContext>> contexts;
  contexts.reserve(num_threads);
  for (uint32_t t = 0; t < num_threads; ++t) {
    contexts.push_back(std::make_unique<SearchContext>(n));
  }

  // Rank-batched searches. A batch holds the searches of the next
  // `batch_ranks` searched ranks. Threads run them against the labels
  // committed before the batch (the label vectors are never written while
  // searches run, so sharing them is race-free); the weaker prune admits
  // extra candidates, which the commit below re-checks against the entries
  // the batch committed before each candidate's rank, so exactly the
  // canonical (sequential) label set survives. Batches start at one rank
  // because the top hubs have the largest searches and their labels prune
  // everything after them; the cap keeps all threads busy on the long tail
  // of small searches.
  //
  // The commit runs in two steps. Whether candidate (rank, x) survives
  // depends only on the hub's opposite-side entries and on x's own
  // same-side entries. So the candidates on the batch's own hub vertices
  // commit first, in rank order on this thread: their decisions read hub
  // vertices only. After that every hub's entries are final for the
  // batch, and each remaining vertex depends on nothing but itself, so
  // pool task p commits, in rank order, the candidates of the vertices x
  // with x % num_threads == p.
  //
  // Concurrency contract (DESIGN.md, "Concurrency contract"): this routine
  // deliberately owns no lock. Each search task writes only its own
  // disjoint candidates[task] slot, each commit task writes only the label
  // vectors of the vertices it owns while reading hub vertices' vectors,
  // which nothing writes in that step, and ParallelFor's internal mutex is
  // the barrier whose release/acquire ordering publishes each step's
  // writes to the next. The repair tracker and the vectors' growth are
  // touched on this thread only. Adding shared mutable state here means
  // adding a capability-annotated Mutex, not an atomic sprinkled in.
  const uint32_t batch_cap = std::max<uint32_t>(8 * num_threads, 64);
  std::vector<std::vector<CandidateLabel>> candidates;
  // Candidate counts per label vector (Lin(x) at x, Lout(x) at n + x) and
  // the indexes counted, for growing the vectors before each commit.
  std::vector<uint32_t> incoming(2 * static_cast<size_t>(n), 0);
  std::vector<size_t> counted;
  // Hub vertices of the current batch's searches.
  std::vector<bool> batch_hub(n, false);
  uint32_t batch_ranks = 1;
  for (size_t lo = 0; lo < searches.size();
       batch_ranks = std::min(batch_ranks * 2, batch_cap)) {
    size_t hi = lo;
    for (uint32_t ranks = 0; ranks < batch_ranks && hi < searches.size();
         ++ranks) {
      const uint32_t rank = searches[hi].rank;
      while (hi < searches.size() && searches[hi].rank == rank) ++hi;
    }
    const std::span<const HubSearch> batch = searches.subspan(lo, hi - lo);
    const uint32_t begin = batch.front().rank;
    lo = hi;
    candidates.assign(batch.size(), {});
    pool.ParallelFor(batch.size(), [&](uint64_t task, uint32_t thread) {
      PrunedSearch(graph, batch[task].rank, batch[task].forward,
                   *contexts[thread], &candidates[task]);
    });
    // Label vectors grow on this thread only: each vector the batch may
    // insert into gets room for all its candidates first, so the commit's
    // pool threads never reallocate one. A block a pool thread allocates
    // comes from that thread's malloc arena, which the label copies that
    // later updates make on other threads cannot reuse, so a server would
    // hold about one extra label copy after its first updates. A build's
    // vectors grow in batch after batch, so they double to keep the growth
    // amortized; a repair's vectors are copied tight and mostly regain
    // what the scrub removed, so they grow by exactly the batch's
    // candidates (doubling them left about 30 MB more in use after a
    // 20-update batch on an 80x80 grid). The same pass hands the repair
    // tracker each vector's pre-image.
    for (size_t task = 0; task < batch.size(); ++task) {
      const size_t side = batch[task].forward ? 0 : n;
      for (const CandidateLabel& c : candidates[task]) {
        if (incoming[side + c.vertex]++ == 0) counted.push_back(side + c.vertex);
      }
    }
    for (size_t i : counted) {
      const bool in_side = i < n;
      const VertexId x = static_cast<VertexId>(in_side ? i : i - n);
      auto& labels = in_side ? in_labels_[x] : out_labels_[x];
      if (tracker != nullptr) tracker->Capture(in_side, x, labels);
      const size_t want = labels.size() + incoming[i];
      if (want > labels.capacity()) {
        labels.reserve(tracker != nullptr
                           ? want
                           : std::max(want, 2 * labels.capacity()));
      }
      incoming[i] = 0;
    }
    counted.clear();
    for (const HubSearch& s : batch) batch_hub[order_[s.rank]] = true;
    // Commit slot of vertex x: 0 for the batch's hub vertices, 1 + the
    // owning pool task otherwise.
    auto slot_of = [&](VertexId x) -> uint32_t {
      return batch_hub[x] ? 0 : 1 + x % num_threads;
    };
    // Canonical order, the same order the sequential path writes labels in.
    auto commit = [&](uint32_t slot, SearchContext& ctx) {
      auto owns = [&](VertexId x) { return slot_of(x) == slot; };
      for (size_t task = 0; task < batch.size(); ++task) {
        CommitCandidates(begin, batch[task].rank, batch[task].forward,
                         candidates[task], ctx, owns);
      }
    };
    commit(0, *contexts[0]);
    pool.ParallelFor(num_threads, [&](uint64_t task, uint32_t thread) {
      commit(1 + static_cast<uint32_t>(task), *contexts[thread]);
    });
    for (const HubSearch& s : batch) batch_hub[order_[s.rank]] = false;
  }
  uint64_t relaxations = 0;
  for (const auto& ctx : contexts) relaxations += ctx->relaxations;
  KOSR_COUNT(kPrunedRelaxations, relaxations);
}

void HubLabeling::PrunedSearch(const Graph& graph, uint32_t rank, bool forward,
                               SearchContext& ctx,
                               std::vector<CandidateLabel>* candidates,
                               RepairTracker* tracker) {
  VertexId hub = order_[rank];

  // Load the hub's own opposite-side labels (ranks < `rank`) into the dense
  // scratch table: query(hub, x) (forward) is then a scan of Lin(x).
  const auto& hub_labels = forward ? out_labels_[hub] : in_labels_[hub];
  for (const LabelEntry& e : hub_labels) {
    if (e.hub_rank >= rank) break;
    ctx.scratch[e.hub_rank] = e.dist;
    ctx.scratch_touched.push_back(e.hub_rank);
  }

  auto& dist = ctx.dist;
  auto& parent = ctx.parent;
  auto& touched = ctx.touched;
  auto& heap = ctx.heap;

  dist[hub] = 0;
  touched.push_back(hub);
  heap.InsertOrDecrease(hub, 0);

  // Relaxations accumulate in a register and hit the context once per
  // search, after the heap drains.
  uint64_t relaxations = 0;
  while (!heap.Empty()) {
    auto [d, x] = heap.ExtractMin();
    // Prune if hubs of strictly smaller rank already certify dis <= d.
    const auto& x_labels = forward ? in_labels_[x] : out_labels_[x];
    Cost covered = kInfCost;
    for (const LabelEntry& e : x_labels) {
      if (e.hub_rank >= rank) break;
      Cost via = ctx.scratch[e.hub_rank];
      if (via != kInfCost) covered = std::min(covered, via + e.dist);
    }
    if (covered <= d) continue;

    if (candidates != nullptr) {
      candidates->push_back({x, static_cast<uint32_t>(d), parent[x]});
    } else {
      auto& target_labels = forward ? in_labels_[x] : out_labels_[x];
      if (tracker != nullptr) tracker->Capture(forward, x, target_labels);
      InsertOrUpdate(target_labels, {rank, static_cast<uint32_t>(d), parent[x]});
    }

    auto arcs = forward ? graph.OutArcs(x) : graph.InArcs(x);
    for (const Arc& a : arcs) {
      ++relaxations;
      Cost nd = d + a.weight;
      if (nd < dist[a.head]) {
        if (dist[a.head] == kInfCost) touched.push_back(a.head);
        dist[a.head] = nd;
        parent[a.head] = x;
        heap.InsertOrDecrease(a.head, nd);
      } else if (nd == dist[a.head] && x < parent[a.head]) {
        // Canonical tie-break: among equal-cost predecessors keep the
        // smallest id. This makes the Dijkstra tree — and thus the stored
        // parent pointers — independent of exploration order, which is what
        // lets the batched parallel build reproduce the sequential labels
        // byte for byte (batched searches explore more than sequential ones
        // and would otherwise pick different shortest-path ties).
        parent[a.head] = x;
      }
    }
  }
  ctx.relaxations += relaxations;

  for (VertexId v : touched) {
    dist[v] = kInfCost;
    parent[v] = kInvalidVertex;
  }
  touched.clear();
  heap.Clear();
  for (uint32_t r : ctx.scratch_touched) ctx.scratch[r] = kInfCost;
  ctx.scratch_touched.clear();
}

template <typename Owns>
void HubLabeling::CommitCandidates(
    uint32_t begin, uint32_t rank, bool forward,
    const std::vector<CandidateLabel>& candidates, SearchContext& ctx,
    Owns owns) {
  // The search emitted a candidate only if the entries present when it ran
  // leave it uncovered: every rank below `begin` and, in a repair, every
  // rank the batch does not re-search. What it could not see are the
  // entries this batch committed since, all of rank in [begin, rank), so
  // the re-check scans that rank range on both sides. In a repair,
  // entries of unsearched larger ranks sit behind the range, so it is
  // found by binary search and the candidate is inserted at its rank
  // position; in a build the range is the vectors' tail.
  VertexId hub = order_[rank];
  const auto& hub_labels = forward ? out_labels_[hub] : in_labels_[hub];
  for (auto it = LowerBoundRank(hub_labels, begin);
       it != hub_labels.end() && it->hub_rank < rank; ++it) {
    ctx.scratch[it->hub_rank] = it->dist;
    ctx.scratch_touched.push_back(it->hub_rank);
  }
  // With no hub-side entry in the range nothing can cover a candidate.
  const bool check = !ctx.scratch_touched.empty();
  for (const CandidateLabel& c : candidates) {
    if (!owns(c.vertex)) continue;
    auto& target = forward ? in_labels_[c.vertex] : out_labels_[c.vertex];
    auto pos = target.end();
    if (!target.empty() && target.back().hub_rank >= begin) {
      Cost covered = kInfCost;
      for (pos = LowerBoundRank(target, begin);
           pos != target.end() && pos->hub_rank < rank; ++pos) {
        if (!check) continue;
        Cost via = ctx.scratch[pos->hub_rank];
        if (via != kInfCost) covered = std::min(covered, via + pos->dist);
      }
      assert(pos == target.end() || pos->hub_rank > rank);
      if (covered <= static_cast<Cost>(c.dist)) continue;
    }
    target.insert(pos, {rank, c.dist, c.parent});
  }
  for (uint32_t r : ctx.scratch_touched) ctx.scratch[r] = kInfCost;
  ctx.scratch_touched.clear();
}

namespace {

// Intersects a much shorter run against a much longer one by binary search
// instead of stepping the long run entry by entry. Matches are visited in
// increasing rank order with a strict improvement test, so the witnessing
// hub is identical to the merge-join's. The `lo` cursor only moves forward:
// both runs are rank-sorted, so earlier positions can never match again.
inline void GallopIntersect(const LabelRun& small, const LabelRun& big,
                            Cost& best, uint32_t& best_rank) {
  const uint64_t* lo = big.key;
  const uint64_t* end = big.key + big.size;
  // Probes accumulate in a register and hit the thread-local slot once per
  // intersection, never inside the loop.
  uint64_t probes = 0;
  for (uint32_t i = 0; i < small.size; ++i) {
    uint32_t r = small.RankAt(i);
    // First key with rank >= r (keys are rank-major packed).
    lo = std::lower_bound(lo, end, PackLabelKey(r, 0));
    ++probes;
    if (lo == end) break;
    if (static_cast<uint32_t>(*lo >> 32) == r) {
      Cost d = static_cast<Cost>(small.DistAt(i)) +
               static_cast<uint32_t>(*lo);
      if (d < best) {
        best = d;
        best_rank = r;
      }
    }
  }
  KOSR_COUNT(kGallopProbes, probes);
}

}  // namespace

Cost HubLabeling::QueryGallop(const LabelRun& a, const LabelRun& b,
                              uint32_t& best_rank) const {
  Cost best = kInfCost;
  if (a.size < b.size) {
    GallopIntersect(a, b, best, best_rank);
  } else {
    GallopIntersect(b, a, best, best_rank);
  }
  return best;
}

std::optional<std::pair<Cost, uint32_t>> HubLabeling::QueryWithHub(
    VertexId s, VertexId t) const {
  KOSR_COUNT(kLabelQueries, 1);
  LabelRun a = flat_out_.Run(s);
  LabelRun b = flat_in_.Run(t);
  Cost best = kInfCost;
  uint32_t best_rank = 0;
  if (RunsLopsided(a, b)) {
    best = QueryGallop(a, b, best_rank);
  } else {
    best = MergeLabelRuns<true>(a, b, best_rank);
  }
  if (best == kInfCost) return std::nullopt;
  return std::make_pair(best, best_rank);
}

std::optional<std::pair<Cost, uint32_t>> HubLabeling::QueryWithHubReference(
    VertexId s, VertexId t) const {
  const auto& a = out_labels_[s];
  const auto& b = in_labels_[t];
  Cost best = kInfCost;
  uint32_t best_rank = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].hub_rank == b[j].hub_rank) {
      Cost d = static_cast<Cost>(a[i].dist) + b[j].dist;
      if (d < best) {
        best = d;
        best_rank = a[i].hub_rank;
      }
      ++i;
      ++j;
    } else if (a[i].hub_rank < b[j].hub_rank) {
      ++i;
    } else {
      ++j;
    }
  }
  if (best == kInfCost) return std::nullopt;
  return std::make_pair(best, best_rank);
}

std::vector<VertexId> HubLabeling::UnpackPath(VertexId s, VertexId t) const {
  if (s == t) return {s};
  auto q = QueryWithHub(s, t);
  if (!q) return {};
  uint32_t rank = q->second;
  VertexId hub = order_[rank];

  // Every labeling this code builds has intact parent chains (asserted),
  // but a labeling assembled from parts — or a hostile snapshot that slips
  // past validation — might not: walk defensively (missing link -> empty
  // path, like an unreachable pair) and bound each chain by n (a shortest
  // path is simple), so malformed parents can never dereference null or
  // spin a serve worker forever.
  auto walk = [&](VertexId from, const FlatSide& side) -> std::vector<VertexId> {
    std::vector<VertexId> chain;
    VertexId cur = from;
    while (cur != hub) {
      if (chain.size() >= num_vertices()) return {};
      chain.push_back(cur);
      LabelRun run = side.Run(cur);
      uint32_t i = FindRankInRun(run, rank);
      assert(i < run.size && run.parent[i] != kInvalidVertex);
      if (i >= run.size || run.parent[i] == kInvalidVertex) return {};
      cur = run.parent[i];
    }
    chain.push_back(hub);
    return chain;
  };

  // s -> hub along the Lout parent chain, then hub -> t along the Lin chain
  // (walked from t, so reversed).
  std::vector<VertexId> path = walk(s, flat_out_);
  std::vector<VertexId> tail = walk(t, flat_in_);
  if (path.empty() || tail.empty()) return {};
  // tail is [t, ..., hub]; reversed it is [hub, ..., t] — skip the hub,
  // path already ends with it.
  path.insert(path.end(), tail.rbegin() + 1, tail.rend());
  return path;
}

LabelRepairDelta HubLabeling::RepairEdgeUpdates(
    const Graph& graph, std::span<const EdgeRepairRequest> requests,
    uint32_t num_threads) {
  const uint32_t n = num_vertices();

  // Per-request short-circuit on the shared pre-batch labels: when an
  // existing route strictly beats every engaged tight of a request,
  // neither of its tightness tests can fire for any hub (dis(h, v) <=
  // dis(h, u) + dis(u, v) < dis(h, u) + tight, so neither the equality
  // nor the <= test is satisfiable) — skip the request without the
  // affected-hub sweep. A strictly cheaper existing route makes the arc
  // lie on no shortest path, old or new; an equal-cost one does not
  // qualify, because the arc then ties onto shortest paths and can re-tie
  // canonical parents and cover paths.
  std::vector<const EdgeRepairRequest*> active;
  active.reserve(requests.size());
  for (const EdgeRepairRequest& request : requests) {
    Cost existing = Query(request.u, request.v);
    bool old_dead = !request.tight_old || existing < *request.tight_old;
    bool new_dead = !request.tight_new || existing < *request.tight_new;
    if (old_dead && new_dead) continue;
    active.push_back(&request);
  }
  if (active.empty()) return {};

  // Phase 1 — affected hubs, read off the *pre-batch* labels (nothing has
  // been mutated yet, so Query still answers pre-batch distances exactly).
  //
  // A hub's forward label set can change only if some batched arc lies on
  // a shortest path from it in the old graph (dis(h, u) + w_old ==
  // dis(h, v); its loss can change distances, uncover entries of
  // larger-ranked hubs whose cover path crossed the arc, or untie
  // canonical parents) or in the new graph (dis(h, u) + w_new <=
  // dis(h, v); a strict improvement changes distances, an exact tie can
  // newly cover entries away or re-tie parents). Backward mirror: the arc
  // on a shortest path *to* the hub. The affected set of a batch is the
  // union over its requests: any hub whose labels differ between the
  // pre-batch and post-batch graphs owes that difference to at least one
  // net-changed arc on an old or new shortest path, and that arc's test
  // fires for it. DESIGN.md ("Dynamic updates" and "Snapshot
  // publication") gives the exactness argument. Because the hub order is
  // a permutation of all vertices, empty tight sets certify that no
  // pair's distance (and no label entry) changed at all.
  std::vector<HubSearch> searches;  // canonical order
  std::vector<bool> fwd_affected(n, false), bwd_affected(n, false);
  for (uint32_t r = 0; r < n; ++r) {
    VertexId h = order_[r];
    for (const EdgeRepairRequest* request : active) {
      if (!fwd_affected[r]) {
        Cost hu = Query(h, request->u);
        if (hu != kInfCost) {
          Cost hv = Query(h, request->v);
          if ((request->tight_old && hu + *request->tight_old == hv) ||
              (request->tight_new && hu + *request->tight_new <= hv)) {
            fwd_affected[r] = true;
          }
        }
      }
      if (!bwd_affected[r]) {
        Cost vh = Query(request->v, h);
        if (vh != kInfCost) {
          Cost uh = Query(request->u, h);
          if ((request->tight_old && *request->tight_old + vh == uh) ||
              (request->tight_new && *request->tight_new + vh <= uh)) {
            bwd_affected[r] = true;
          }
        }
      }
      if (fwd_affected[r] && bwd_affected[r]) break;
    }
    if (fwd_affected[r]) searches.push_back({r, /*forward=*/true});
    if (bwd_affected[r]) searches.push_back({r, /*forward=*/false});
  }
  KOSR_COUNT(kRepairTightnessTests, static_cast<uint64_t>(n) * active.size());
  if (searches.empty()) return {};

  // Phase 2 — drop every label entry owned by an affected hub. Entries can
  // move to new vertices after the update (weaker coverage), so a full
  // re-search replaces a per-entry patch; stale entries must go first or
  // InsertOrUpdate would keep their smaller, now-wrong distances.
  RepairTracker tracker;
  for (VertexId x = 0; x < n; ++x) {
    auto scrub = [&](bool in_side, std::vector<LabelEntry>& labels,
                     const std::vector<bool>& affected) {
      bool any = false;
      for (const LabelEntry& e : labels) {
        if (affected[e.hub_rank]) {
          any = true;
          break;
        }
      }
      if (!any) return;
      tracker.Capture(in_side, x, labels);
      std::erase_if(labels, [&](const LabelEntry& e) {
        return affected[e.hub_rank];
      });
    };
    scrub(/*in_side=*/true, in_labels_[x], fwd_affected);
    scrub(/*in_side=*/false, out_labels_[x], bwd_affected);
  }

  // Phase 3 — re-run the affected hubs' pruned searches against the updated
  // graph through Build's search-and-commit routine, in ascending rank
  // order with forward before backward at equal rank: exactly the order
  // the sequential build commits in, so every prune runs against the
  // canonical label prefix (smaller affected ranks already repaired,
  // unaffected ranks provably unchanged) and the committed entries are
  // byte-identical to a from-scratch build's.
  KOSR_COUNT(kRepairResearches, searches.size());
  SearchAndCommit(graph, searches, num_threads, &tracker);
  return FinishRepair(tracker);
}

LabelRepairDelta HubLabeling::FinishRepair(RepairTracker& tracker) {
  LabelRepairDelta delta;
  for (auto& [x, old] : tracker.old_in) {
    if (old != in_labels_[x]) delta.changed_in.push_back(x);
  }
  std::sort(delta.changed_in.begin(), delta.changed_in.end());
  delta.old_in.reserve(delta.changed_in.size());
  for (VertexId x : delta.changed_in) {
    delta.old_in.push_back(std::move(tracker.old_in[x]));
  }
  for (auto& [x, old] : tracker.old_out) {
    if (old != out_labels_[x]) delta.changed_out.push_back(x);
  }
  std::sort(delta.changed_out.begin(), delta.changed_out.end());
  // Re-seal exactly the runs that changed (ResealTouched tolerates — and
  // here receives — an already sorted, unique list).
  std::vector<VertexId> in_touched = delta.changed_in;
  std::vector<VertexId> out_touched = delta.changed_out;
  ResealTouched(flat_in_, in_labels_, in_touched);
  ResealTouched(flat_out_, out_labels_, out_touched);
  return delta;
}

double HubLabeling::AvgInLabelSize() const {
  uint64_t total = 0;
  for (const auto& l : in_labels_) total += l.size();
  return in_labels_.empty() ? 0 : static_cast<double>(total) / in_labels_.size();
}

double HubLabeling::AvgOutLabelSize() const {
  uint64_t total = 0;
  for (const auto& l : out_labels_) total += l.size();
  return out_labels_.empty() ? 0
                             : static_cast<double>(total) / out_labels_.size();
}

uint64_t HubLabeling::IndexBytes() const {
  uint64_t entries = 0;
  for (const auto& l : in_labels_) entries += l.size();
  for (const auto& l : out_labels_) entries += l.size();
  return entries * sizeof(LabelEntry);
}

namespace {

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T ReadPod(std::istream& in) {
  T value;
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("truncated hub labeling stream");
  return value;
}

void WriteLabelVector(std::ostream& out, const std::vector<LabelEntry>& l) {
  WritePod<uint64_t>(out, l.size());
  out.write(reinterpret_cast<const char*>(l.data()),
            static_cast<std::streamsize>(l.size() * sizeof(LabelEntry)));
}

// `max_size` bounds the allocation before it happens: a vertex has at most
// one entry per hub, so any claimed size beyond the vertex count is
// malformed, not merely big.
std::vector<LabelEntry> ReadLabelVector(std::istream& in, uint64_t max_size) {
  uint64_t size = ReadPod<uint64_t>(in);
  if (size > max_size) {
    throw std::runtime_error("label vector size exceeds vertex count");
  }
  std::vector<LabelEntry> l(size);
  in.read(reinterpret_cast<char*>(l.data()),
          static_cast<std::streamsize>(size * sizeof(LabelEntry)));
  if (!in) throw std::runtime_error("truncated hub labeling stream");
  return l;
}

}  // namespace

void HubLabeling::Serialize(std::ostream& out) const {
  WritePod<uint64_t>(out, 0x4b4f53524c424c31ull);  // "KOSRLBL1"
  WritePod<uint32_t>(out, num_vertices());
  out.write(reinterpret_cast<const char*>(order_.data()),
            static_cast<std::streamsize>(order_.size() * sizeof(VertexId)));
  for (const auto& l : in_labels_) WriteLabelVector(out, l);
  for (const auto& l : out_labels_) WriteLabelVector(out, l);
}

HubLabeling HubLabeling::Deserialize(std::istream& in,
                                     uint32_t expected_vertices) {
  if (ReadPod<uint64_t>(in) != 0x4b4f53524c424c31ull) {
    throw std::runtime_error("bad hub labeling magic");
  }
  uint32_t n = ReadPod<uint32_t>(in);
  if (expected_vertices != 0 && n != expected_vertices) {
    throw std::runtime_error("index snapshot is for a different graph");
  }
  HubLabeling hl;
  hl.order_.resize(n);
  in.read(reinterpret_cast<char*>(hl.order_.data()),
          static_cast<std::streamsize>(n * sizeof(VertexId)));
  if (!in) throw std::runtime_error("truncated hub labeling stream");
  if (!IsPermutation(hl.order_, n)) {
    // Without this check the rank_[order_[r]] scatter below would write out
    // of bounds for order values >= n.
    throw std::runtime_error("hub order is not a permutation of the vertices");
  }
  hl.rank_.assign(n, 0);
  for (uint32_t r = 0; r < n; ++r) hl.rank_[hl.order_[r]] = r;
  hl.in_labels_.resize(n);
  hl.out_labels_.resize(n);
  for (uint32_t v = 0; v < n; ++v) {
    hl.in_labels_[v] = ReadLabelVector(in, n);
    ValidateLabelVector(hl.in_labels_[v], n, "hub labeling Lin");
  }
  for (uint32_t v = 0; v < n; ++v) {
    hl.out_labels_[v] = ReadLabelVector(in, n);
    ValidateLabelVector(hl.out_labels_[v], n, "hub labeling Lout");
  }
  // Structural pass: parent chains must be walkable, or UnpackPath on a
  // hostile snapshot could chase dangling or circular parents. In any real
  // labeling a non-hub entry's parent is the next vertex on the path toward
  // the hub, one positive-weight arc closer — so the parent carries a
  // same-side entry for the same hub with strictly smaller distance, and a
  // parentless entry is exactly the hub's self-entry. Full snapshots (unlike
  // FromParts working sets) contain every chain link, so both invariants are
  // checkable here.
  for (uint32_t side = 0; side < 2; ++side) {
    const auto& labels = side == 0 ? hl.in_labels_ : hl.out_labels_;
    for (uint32_t v = 0; v < n; ++v) {
      for (const LabelEntry& e : labels[v]) {
        if (e.parent == kInvalidVertex) {
          if (hl.order_[e.hub_rank] != v) {
            throw std::runtime_error(
                "hub labeling entry without a parent is not a hub self-entry");
          }
          continue;
        }
        const LabelEntry* p = FindRank(labels[e.parent], e.hub_rank);
        if (p == nullptr || p->dist >= e.dist) {
          throw std::runtime_error(
              "hub labeling parent chain is broken or not decreasing");
        }
      }
    }
  }
  hl.Seal();
  return hl;
}

HubLabeling HubLabeling::FromParts(
    std::vector<VertexId> order,
    std::vector<std::vector<LabelEntry>> in_labels,
    std::vector<std::vector<LabelEntry>> out_labels) {
  uint32_t n = static_cast<uint32_t>(order.size());
  if (!IsPermutation(order, n)) {
    throw std::runtime_error("hub order is not a permutation of the vertices");
  }
  if (in_labels.size() != n || out_labels.size() != n) {
    throw std::runtime_error("label table size disagrees with hub order");
  }
  for (const auto& l : in_labels) ValidateLabelVector(l, n, "Lin part");
  for (const auto& l : out_labels) ValidateLabelVector(l, n, "Lout part");
  HubLabeling hl;
  hl.order_ = std::move(order);
  hl.in_labels_ = std::move(in_labels);
  hl.out_labels_ = std::move(out_labels);
  hl.rank_.assign(n, 0);
  for (uint32_t r = 0; r < n; ++r) hl.rank_[hl.order_[r]] = r;
  hl.Seal();
  return hl;
}

}  // namespace kosr
