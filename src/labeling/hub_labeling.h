#ifndef KOSR_LABELING_HUB_LABELING_H_
#define KOSR_LABELING_HUB_LABELING_H_

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

#include "src/graph/graph.h"
#include "src/obs/counters.h"
#include "src/util/types.h"

namespace kosr {

/// One 2-hop label entry. Hubs are identified by their *rank* in the
/// construction order (rank 0 = most important); both label sets of a vertex
/// are sorted by rank, so distance queries are a linear merge-join, exactly
/// as in Sec. IV-A of the paper.
///
/// `parent` is the Dijkstra-tree neighbor of the labeled vertex on the
/// shortest path between hub and vertex. It allows reconstructing actual
/// routes from witnesses ("by adding a parent vertex in each label entry of
/// the hop labeling, it is easy to construct the actual route" — Sec. IV-A).
struct LabelEntry {
  uint32_t hub_rank;
  uint32_t dist;
  VertexId parent;  ///< kInvalidVertex for the hub's own self-entry.

  friend bool operator==(const LabelEntry&, const LabelEntry&) = default;
};

/// Sentinel for unreachable in 32-bit label distances.
inline constexpr uint32_t kInfLabelDist = UINT32_MAX;

/// Rank value terminating every sealed label run. Real ranks are < n <=
/// UINT32_MAX, so the sentinel compares greater than any of them and a
/// merge-join over two sealed runs needs no end-of-run checks at all.
inline constexpr uint32_t kSentinelRank = UINT32_MAX;

/// Packed hot entry of the sealed store: rank in the high 32 bits, dist in
/// the low 32. Runs stay sorted ascending by the packed value (ranks are
/// unique within a run, so rank-major packing preserves rank order), one
/// 8-byte load serves both the merge comparison and the distance sum, and
/// the sentinel packs to UINT64_MAX.
inline constexpr uint64_t PackLabelKey(uint32_t rank, uint32_t dist) {
  return (static_cast<uint64_t>(rank) << 32) | dist;
}
inline constexpr uint64_t kSentinelKey =
    PackLabelKey(kSentinelRank, kInfLabelDist);

/// Sentinel slots trailing every sealed run. The first one terminates the
/// scalar merge; the extra slots license a merge variant that peeks up to
/// `kRunPadding - 1` entries ahead (block skips, SIMD loads — see the
/// ROADMAP item) to do so without bounds checks: a peek from inside a run
/// can only land on that run's entries or its sentinels, never on the next
/// run packed behind it.
inline constexpr uint32_t kRunPadding = 4;

/// View of one sealed label run: a hot array of packed (rank, dist) keys
/// (terminated one slot past `size` by kSentinelKey, so consumers may
/// iterate by `size` or until the sentinel) and a cold parallel `parent`
/// array that only path unpacking touches.
struct LabelRun {
  const uint64_t* key;
  const VertexId* parent;
  uint32_t size;

  uint32_t RankAt(uint32_t i) const {
    return static_cast<uint32_t>(key[i] >> 32);
  }
  uint32_t DistAt(uint32_t i) const { return static_cast<uint32_t>(key[i]); }
};

/// Summary of an incremental label repair: exactly the vertices whose label
/// vectors actually changed (vertices a repair search merely revisited with
/// identical entries are filtered out). `old_in[i]` holds the pre-repair
/// Lin(changed_in[i]) so consumers that mirror per-vertex Lin state — the
/// per-category inverted label indexes — can diff old against current
/// entries and patch only the affected lists instead of rebuilding. Lout has
/// no such consumer, so only the changed-vertex list is reported for it.
struct LabelRepairDelta {
  std::vector<VertexId> changed_in;                 ///< Sorted, unique.
  std::vector<std::vector<LabelEntry>> old_in;      ///< Parallel to changed_in.
  std::vector<VertexId> changed_out;                ///< Sorted, unique.

  bool Empty() const { return changed_in.empty() && changed_out.empty(); }
  uint64_t ChangedVertices() const {
    return changed_in.size() + changed_out.size();
  }
};

/// Index of rank `r` within the run, or `run.size` if absent.
inline uint32_t FindRankInRun(const LabelRun& run, uint32_t r) {
  const uint64_t* end = run.key + run.size;
  // The first key with rank >= r is the first key >= (r << 32).
  const uint64_t* it = std::lower_bound(run.key, end, PackLabelKey(r, 0));
  if (it == end || (*it >> 32) != r) return run.size;
  return static_cast<uint32_t>(it - run.key);
}

/// 2-hop labeling (a.k.a. hub labeling) for directed weighted graphs, built
/// with Pruned Landmark Labeling [Akiba et al., SIGMOD 2013] generalized to
/// weighted graphs (pruned Dijkstra instead of pruned BFS).
///
/// For every vertex v the index keeps:
///   Lin(v)  — hubs that reach v, with dis(hub, v);
///   Lout(v) — hubs reachable from v, with dis(v, hub);
/// satisfying the cover property: for any s, t some hub on a shortest s-t
/// path appears in both Lout(s) and Lin(t).
class HubLabeling {
 public:
  HubLabeling() = default;

  /// Builds the index. `order[r]` is the vertex with rank r; it must be a
  /// permutation of [0, n). Higher-ranked (smaller r) vertices become hubs
  /// of more label entries; a good order is crucial for index size.
  ///
  /// `num_threads` parallelizes construction with rank-batched pruned
  /// searches (0 = hardware concurrency; 1 runs the plain sequential PLL
  /// loop). The output is byte-identical for every thread count. Build
  /// clears the labels and runs every rank's searches through the same
  /// search-and-commit routine the edge-update repair uses; see
  /// SearchAndCommit below and DESIGN.md, "Parallel index construction".
  void Build(const Graph& graph, const std::vector<VertexId>& order,
             uint32_t num_threads = 1);

  /// Convenience: Build with the degree-product order.
  void Build(const Graph& graph, uint32_t num_threads = 1);

  /// Vertices sorted by (in+1)*(out+1) degree product, descending. A decent
  /// general-purpose PLL order. `num_threads` parallelizes the key
  /// computation and sort (deterministic: ties broken by vertex id).
  static std::vector<VertexId> DegreeOrder(const Graph& graph,
                                           uint32_t num_threads = 1);

  /// dis(s, t), or kInfCost if t is unreachable from s. Runs on the sealed
  /// flat store: a sentinel-terminated merge-join over contiguous packed
  /// runs (with a galloping path when one run dwarfs the other). Defined
  /// inline below — this is the hottest entry point in the system (every
  /// FindNEN heuristic probe lands here), and inlining the merge into the
  /// caller's loop is measurably faster than a call into another TU.
  Cost Query(VertexId s, VertexId t) const;

  /// dis(s, t) together with the witnessing hub rank.
  std::optional<std::pair<Cost, uint32_t>> QueryWithHub(VertexId s,
                                                        VertexId t) const;

  /// Reference implementation of QueryWithHub over the nested label
  /// vectors, bypassing the flat store. Kept for the flat-vs-nested
  /// equivalence property test and the bench_label_query before/after
  /// comparison; not a production path.
  std::optional<std::pair<Cost, uint32_t>> QueryWithHubReference(
      VertexId s, VertexId t) const;

  /// Shortest s-t path as a full vertex sequence (empty if unreachable,
  /// {s} if s == t). Cost of the returned path equals Query(s, t).
  std::vector<VertexId> UnpackPath(VertexId s, VertexId t) const;

  std::span<const LabelEntry> Lin(VertexId v) const { return in_labels_[v]; }
  std::span<const LabelEntry> Lout(VertexId v) const { return out_labels_[v]; }

  // --- Sealed flat store ----------------------------------------------------
  // Build/Deserialize/FromParts construct into the nested vectors above (the
  // mutable source of truth, which serialization also reads) and then seal a
  // flat CSR/SoA read view; the incremental repair (RepairEdgeUpdates)
  // re-seals only the runs of vertices whose labels it changed. Queries and
  // the NN machinery read the flat view exclusively. See DESIGN.md, "Label
  // memory layout".

  /// Flat run of Lin(v) / Lout(v). Valid while the labeling is unchanged.
  LabelRun InRun(VertexId v) const { return flat_in_.Run(v); }
  LabelRun OutRun(VertexId v) const { return flat_out_.Run(v); }

  /// Bytes held by the sealed flat arrays (entries + sentinels + run table).
  uint64_t FlatBytes() const;

  uint32_t num_vertices() const { return static_cast<uint32_t>(in_labels_.size()); }
  VertexId HubVertex(uint32_t rank) const { return order_[rank]; }
  uint32_t RankOf(VertexId v) const { return rank_[v]; }

  // --- Incremental maintenance (Sec. IV-C) ----------------------------------
  // Every edge-update kind runs one canonical algorithm (DESIGN.md,
  // "Dynamic updates"): identify the *affected hubs* — exactly those with a
  // shortest path through the updated arc in the old or new graph, found by
  // tightness tests on the pre-update labels — drop their label entries,
  // and re-run their full pruned searches in rank order. Because the hub
  // order covers every vertex, unaffected hubs' entries are provably
  // already canonical for the new graph, so the result is byte-identical
  // to a from-scratch Build on the updated graph with the same hub order
  // (asserted in dynamic_update_test), after any mix of updates. An empty
  // delta therefore certifies that *no* distance, parent chain, or label
  // changed at all — callers use that to skip downstream invalidation.

  /// One coalesced arc change inside a batched repair: the net effect of
  /// every update to arc (u, v) within the batch. `tight_old` is the
  /// pre-batch minimum u->v weight (absent when the net effect is an
  /// insertion or pure decrease), `tight_new` the post-batch one (absent
  /// when the net effect is a deletion or pure increase). A decrease or
  /// insertion engages only the new-graph test, an increase or deletion
  /// only the old-graph test.
  struct EdgeRepairRequest {
    VertexId u = 0;
    VertexId v = 0;
    std::optional<Cost> tight_old;
    std::optional<Cost> tight_new;
  };

  /// Canonical repair of a batch of arc changes (one update is a batch of
  /// one): unions the affected-hub sets of all requests — each identified
  /// by the same tightness tests on the shared pre-batch labels — scrubs
  /// the union once, and re-runs each affected hub's pruned search once,
  /// in the canonical rank order. `graph` must already carry every
  /// post-batch weight. Requests whose short-circuit fires (an existing
  /// route strictly beats every engaged tight, so neither test can fire
  /// for any hub) are skipped individually. Equivalent to applying the
  /// requests one at a time — and byte-identical to a from-scratch
  /// rebuild — at the cost of one affected-hub sweep and one re-search per
  /// hub instead of one per update (the batched direction of dynamic
  /// pruned landmark labeling, Akiba et al., WWW'14).
  ///
  /// `num_threads` runs the re-searches the way Build runs its searches
  /// (0 = hardware concurrency; 1 = one search at a time, committing
  /// directly). Labels and delta are identical for every thread count.
  LabelRepairDelta RepairEdgeUpdates(
      const Graph& graph, std::span<const EdgeRepairRequest> requests,
      uint32_t num_threads = 1);

  // --- Introspection (Table IX) -------------------------------------------

  double AvgInLabelSize() const;
  double AvgOutLabelSize() const;
  uint64_t IndexBytes() const;
  double BuildSeconds() const { return build_seconds_; }

  // --- Serialization (disk-resident variant, Sec. IV-C) -------------------

  void Serialize(std::ostream& out) const;
  /// Reads a snapshot, rejecting malformed input with std::runtime_error:
  /// the order must be a permutation of [0, n), label vectors are bounded by
  /// n entries and must be strictly rank-sorted with hub_rank < n and parent
  /// < n (or kInvalidVertex). serve --indexes feeds this untrusted files, so
  /// no field is trusted before it is range-checked. Callers that know the
  /// graph (LoadIndexes) pass `expected_vertices` so an absurd claimed
  /// vertex count is rejected before the O(n) allocations, not after
  /// (0 = accept any count).
  static HubLabeling Deserialize(std::istream& in,
                                 uint32_t expected_vertices = 0);

  /// Assembles a (possibly partial) labeling from raw parts. Vertices whose
  /// label vectors are empty simply answer "unreachable"; the disk-resident
  /// store uses this to materialize exactly the per-query working set.
  /// Applies the same validation as Deserialize (std::runtime_error).
  static HubLabeling FromParts(std::vector<VertexId> order,
                               std::vector<std::vector<LabelEntry>> in_labels,
                               std::vector<std::vector<LabelEntry>> out_labels);

 private:
  struct SearchContext;    // Per-thread pruned-Dijkstra scratch.
  struct CandidateLabel;   // (vertex, dist, parent) produced by a search.
  struct RepairTracker;    // First-touch pre-repair label snapshots.

  /// One pruned search: the hub of `rank`, forward (it writes Lin entries)
  /// or backward (Lout entries).
  struct HubSearch {
    uint32_t rank;
    bool forward;
  };

  /// One direction of the sealed flat store. Runs live back to back in the
  /// hot `key` array (packed rank|dist, each run terminated by a
  /// kSentinelKey slot) with parents in a cold parallel array; `start[v]`
  /// points at v's run (not necessarily in vertex order after re-seals),
  /// `len[v]` is its entry count. Slot 0 holds one shared sentinel block
  /// that every empty run points at — a disk-store working set is almost
  /// entirely empty runs. A re-sealed run that outgrew its slot is
  /// appended at the tail and the old slots become garbage until the next
  /// full seal.
  struct FlatSide {
    /// Per-vertex run locator, fused so one cache-line touch yields both
    /// fields (start and len in separate arrays cost a second scattered
    /// load on every probe).
    struct RunRef {
      uint64_t start;
      uint32_t len;
    };
    std::vector<RunRef> runs;
    std::vector<uint64_t> key;
    std::vector<VertexId> parent;
    uint64_t garbage = 0;  ///< Abandoned slots (entries + sentinels).

    void Seal(const std::vector<std::vector<LabelEntry>>& labels);
    void ResealRun(VertexId v, const std::vector<LabelEntry>& labels);
    LabelRun Run(VertexId v) const {
      const RunRef& r = runs[v];
      return {key.data() + r.start, parent.data() + r.start, r.len};
    }
    uint64_t Bytes() const;
  };

  /// (Re)builds both flat sides from the nested vectors.
  void Seal();
  /// Query fallback for lopsided run sizes (binary-search intersection of
  /// the shorter run in the longer). Records the witnessing hub rank of
  /// the best match in `best_rank` (untouched if unreachable).
  Cost QueryGallop(const LabelRun& a, const LabelRun& b,
                   uint32_t& best_rank) const;
  /// Re-seals the runs of the given vertices (duplicates fine); falls back
  /// to a full seal of that side once garbage crosses the compaction bound.
  static void ResealTouched(FlatSide& side,
                            const std::vector<std::vector<LabelEntry>>& labels,
                            std::vector<VertexId>& touched);

  // Runs one pruned Dijkstra from the hub of rank `rank` in the given
  // direction, pruning against the committed label entries of smaller
  // ranks. With `candidates` null the surviving labels are committed
  // directly (the one-thread SearchAndCommit; `tracker`, if given,
  // snapshots every label vector just before its first mutation so the
  // repair can report exactly what changed); otherwise the search is
  // read-only and appends candidates for a later commit. Relaxations
  // accumulate in `ctx.relaxations`; the context's owner flushes them.
  void PrunedSearch(const Graph& graph, uint32_t rank, bool forward,
                    SearchContext& ctx,
                    std::vector<CandidateLabel>* candidates,
                    RepairTracker* tracker = nullptr);

  // Runs the pruned searches in `searches` — canonical order: ascending
  // rank, forward before backward — and commits their labels, which must
  // hold no entry of a searched (rank, direction) yet. Build passes every
  // rank; a repair passes the affected ones, with `tracker` receiving the
  // pre-image of every vector it may change. With one thread each search
  // commits directly. With more, the searches run in rank batches on a
  // pool: a batch's searches prune against the labels committed before
  // the batch and emit candidates, and CommitCandidates re-checks them.
  // Relaxations of every context land in the calling thread's
  // kPrunedRelaxations.
  void SearchAndCommit(const Graph& graph, std::span<const HubSearch> searches,
                       uint32_t num_threads, RepairTracker* tracker);

  // Diffs the tracker's pre-repair snapshots against the current vectors,
  // re-seals exactly the changed flat runs, and assembles the delta.
  LabelRepairDelta FinishRepair(RepairTracker& tracker);

  // Commit phase of SearchAndCommit for the batch whose first rank is
  // `begin`: inserts each candidate of `rank` whose vertex `owns` accepts
  // at its rank position, unless entries of rank in [begin, rank) cover it
  // (the search already ruled out every entry present when it ran).
  template <typename Owns>
  void CommitCandidates(uint32_t begin, uint32_t rank, bool forward,
                        const std::vector<CandidateLabel>& candidates,
                        SearchContext& ctx, Owns owns);

  std::vector<std::vector<LabelEntry>> in_labels_;
  std::vector<std::vector<LabelEntry>> out_labels_;
  FlatSide flat_in_;
  FlatSide flat_out_;
  std::vector<VertexId> order_;
  std::vector<uint32_t> rank_;
  double build_seconds_ = 0;
};

/// Runs dwarfed past this size ratio take the galloping path; below it the
/// linear sentinel merge wins (no mispredicted lower_bound branches,
/// contiguous streaming reads).
inline constexpr uint32_t kGallopRatio = 16;

/// True when one run dwarfs the other enough for galloping to pay off.
inline bool RunsLopsided(const LabelRun& a, const LabelRun& b) {
  return a.size > kGallopRatio * b.size || b.size > kGallopRatio * a.size;
}

/// The sentinel-terminated merge-join over the packed (rank << 32 | dist)
/// keys, shared by Query (TrackHub = false) and QueryWithHub (TrackHub =
/// true, records the witnessing hub rank in `best_rank`): one 8-byte load
/// per entry serves both the rank comparison and the distance sum, and
/// because every run ends in kSentinelKey slots the loop needs no bounds
/// checks — both cursors stop on their sentinels. The skip comparisons run
/// on the full packed keys (ranks in the high half order them whenever the
/// ranks differ, with no per-load shift); equal ranks are detected by the
/// high halves matching, i.e. the keys xor-ing to less than 2^32.
template <bool TrackHub>
inline Cost MergeLabelRuns(const LabelRun& a, const LabelRun& b,
                           uint32_t& best_rank) {
  const uint64_t* ak = a.key;
  const uint64_t* bk = b.key;
  uint64_t ka = *ak;
  uint64_t kb = *bk;
  Cost best = kInfCost;
  // Work accounting (ISSUE 7): iterations counted in a register, scanned
  // entries recovered from the cursor positions — the thread-local flush
  // happens once per merge, after the loop, never inside it.
  uint64_t compares = 0;
  for (;;) {
    ++compares;
    if ((ka ^ kb) < (uint64_t{1} << 32)) {  // same rank
      if (ka == kSentinelKey) break;
      Cost d = static_cast<Cost>(static_cast<uint32_t>(ka)) +
               static_cast<uint32_t>(kb);
      if (d < best) {
        best = d;
        if constexpr (TrackHub) best_rank = static_cast<uint32_t>(ka >> 32);
      }
      ka = *++ak;
      kb = *++bk;
    } else if (ka < kb) {
      ka = *++ak;
    } else {
      kb = *++bk;
    }
  }
  KOSR_COUNT(kMergeJoinCompares, compares);
  KOSR_COUNT(kLabelEntriesScanned,
             static_cast<uint64_t>(ak - a.key) +
                 static_cast<uint64_t>(bk - b.key));
  return best;
}

inline Cost HubLabeling::Query(VertexId s, VertexId t) const {
  KOSR_COUNT(kLabelQueries, 1);
  LabelRun a = flat_out_.Run(s);
  LabelRun b = flat_in_.Run(t);
  uint32_t unused_rank = 0;
  if (RunsLopsided(a, b)) return QueryGallop(a, b, unused_rank);
  return MergeLabelRuns<false>(a, b, unused_rank);
}

}  // namespace kosr

#endif  // KOSR_LABELING_HUB_LABELING_H_
