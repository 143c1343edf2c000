#ifndef KOSR_CORE_ENGINE_H_
#define KOSR_CORE_ENGINE_H_

#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/query.h"
#include "src/core/query_context.h"
#include "src/graph/categories.h"
#include "src/graph/graph.h"
#include "src/labeling/disk_store.h"
#include "src/labeling/hub_labeling.h"
#include "src/nn/inverted_label_index.h"

namespace kosr {

class EngineSnapshot;

/// Outcome of a dynamic edge update: whether the graph mutated at all, and
/// how much incremental label repair it triggered. `labels_changed == false`
/// with `graph_changed == true` is common and useful — a weight increase on
/// an arc that lay on no shortest path repairs nothing, and (because the hub
/// order covers every vertex) certifies that no distance, unpacked path, or
/// KOSR answer changed, so callers such as the service's result cache can
/// skip invalidation entirely.
struct EdgeUpdateSummary {
  bool graph_changed = false;
  bool labels_changed = false;
  /// Vertices whose Lin / Lout label vectors the repair changed.
  uint32_t changed_in_labels = 0;
  uint32_t changed_out_labels = 0;
  /// Vertices with a changed Lin (respectively Lout) vector, sorted — the
  /// repair delta's changed lists, forwarded so callers can invalidate
  /// per-vertex state (the service's result cache) without a full flush.
  std::vector<VertexId> changed_in_vertices;
  std::vector<VertexId> changed_out_vertices;
};

/// One buffered edge mutation for KosrEngine::ApplyEdgeUpdates — the three
/// protocol verbs ADD_EDGE / SET_EDGE / REMOVE_EDGE as data.
struct EdgeUpdate {
  enum class Kind { kAddOrDecrease, kSet, kRemove };
  Kind kind = Kind::kSet;
  VertexId u = 0;
  VertexId v = 0;
  Weight w = 0;  ///< Ignored for kRemove.
};

/// Facade that owns a graph, its category assignment, and the query indexes
/// (hub labeling + one inverted label index per category), and answers KOSR
/// queries with any of the paper's methods.
///
/// Typical use:
///
///   KosrEngine engine(std::move(graph), std::move(categories));
///   engine.BuildIndexes();
///   KosrResult r = engine.Query({s, t, {MA, RE, CI}, 3});
///
class KosrEngine {
 public:
  KosrEngine(Graph graph, CategoryTable categories);

  /// Builds the hub labeling (degree order) and all inverted label indexes.
  /// `num_threads` parallelizes the whole pipeline — the degree-order sort,
  /// the rank-batched hub-label construction, and the per-category inverted
  /// index builds (0 = hardware concurrency). The resulting indexes are
  /// byte-identical for every thread count. The engine keeps the count for
  /// the label repairs of later edge updates (see set_repair_threads).
  void BuildIndexes(uint32_t num_threads = 1);
  /// Same with an explicit hub order (e.g. a grid dissection order or a CH
  /// importance order — see DESIGN.md on ordering quality).
  void BuildIndexes(const std::vector<VertexId>& order,
                    uint32_t num_threads = 1);

  /// Answers a KOSR query. Categories referenced by the sequence must be
  /// non-empty; an unreachable query yields fewer than k (possibly zero)
  /// routes. Requires BuildIndexes() unless options.nn_mode == kDijkstra.
  ///
  /// `ctx` (optional) supplies reusable per-thread query scratch — callers
  /// answering many queries (service workers, benches) keep one per thread
  /// so the search hot path stops allocating. Results do not depend on it.
  KosrResult Query(const KosrQuery& query, const KosrOptions& options = {},
                   QueryContext* ctx = nullptr) const;

  /// Answers an OSR (k = 1) query with the GSP comparator.
  std::optional<SequencedRoute> QueryGsp(VertexId source, VertexId target,
                                         const CategorySequence& sequence,
                                         QueryStats* stats = nullptr) const;

  /// Expands a witness into a full vertex path using label parent pointers.
  std::vector<VertexId> ReconstructPath(
      const std::vector<VertexId>& witness) const;

  // --- Dynamic updates (Sec. IV-C) ----------------------------------------

  /// Category update: vertex gains a category; label + inverted indexes stay
  /// consistent. O(|Lin(v)| log |Ci|).
  void AddVertexCategory(VertexId v, CategoryId c);
  /// Category update: vertex loses a category.
  void RemoveVertexCategory(VertexId v, CategoryId c);
  /// Graph update: inserts arc (u, v, w) or lowers an existing arc's weight
  /// in place (Graph::AddOrDecreaseArc — repeated updates to the same edge
  /// do not grow the arc lists), incrementally repairs the labeling
  /// (affected-hub re-searches), and patches only the inverted lists of
  /// hubs whose labels actually changed. A no-op update (w >= the current
  /// weight) touches nothing (`graph_changed == false`), so callers (the
  /// service's cache invalidation) can skip their own reactions too. Like
  /// SetEdgeWeight and RemoveEdge, this is ApplyEdgeUpdates on a batch of
  /// one.
  EdgeUpdateSummary AddOrDecreaseEdge(VertexId u, VertexId v, Weight w);

  /// Graph update: sets the u->v weight to exactly `w` — decrease, insert,
  /// or *increase* — and incrementally repairs the labeling either way
  /// (affected-hub re-searches, byte-identical to a from-scratch rebuild
  /// with the same hub order — see DESIGN.md, "Dynamic updates"). Inverted
  /// indexes are patched incrementally from the repair delta. Setting the
  /// current weight again is a no-op. Throws std::invalid_argument for
  /// out-of-range endpoints; self loops are dropped.
  EdgeUpdateSummary SetEdgeWeight(VertexId u, VertexId v, Weight w);

  /// Graph update: deletes arc (u, v) (all parallels) and incrementally
  /// repairs the labeling and inverted indexes the same way. Removing an
  /// absent arc is a no-op.
  EdgeUpdateSummary RemoveEdge(VertexId u, VertexId v);

  /// Applies a whole batch of edge updates with ONE canonical repair on
  /// repair_threads() threads: every graph mutation is applied first
  /// (recording each arc's pre-batch weight on first touch), per-arc
  /// updates coalesce to their net effect (arcs that end where they
  /// started repair nothing), and the surviving net changes run one
  /// batched affected-hub repair — the union of the per-update affected
  /// sets, each hub re-searched once.
  /// The resulting labels are byte-identical to applying the updates one
  /// at a time (and to a from-scratch rebuild). The summary's
  /// graph_changed reports whether any mutation touched the graph object;
  /// the label fields describe the single batched repair.
  EdgeUpdateSummary ApplyEdgeUpdates(std::span<const EdgeUpdate> updates);

  // --- Index persistence ----------------------------------------------------

  /// Saves the built indexes (hub labeling + all inverted label indexes) so
  /// a later process can LoadIndexes() instead of rebuilding. Orthogonal to
  /// the per-query disk store: this is a bulk snapshot for in-memory use.
  void SaveIndexes(std::ostream& out) const;
  /// Restores indexes saved by SaveIndexes. The graph and category table
  /// must be the ones the snapshot was built from.
  void LoadIndexes(std::istream& in);

  // --- Disk-resident mode (SK-DB) -----------------------------------------

  /// Persists indexes to a directory for SK-DB queries.
  void WriteDiskStore(const std::string& dir) const;
  /// Answers a StarKOSR query loading the working set from a disk store
  /// written by WriteDiskStore. The load time is added to stats.total_time_s
  /// (and reported in stats.estimation_time_s = 0; see QueryStats).
  static KosrResult QueryFromDisk(const DiskLabelStore& store,
                                  const KosrQuery& query,
                                  const KosrOptions& options = {});

  // --- Snapshot publication (ISSUE 8) --------------------------------------

  /// Seals the engine's current query-facing state into an immutable
  /// EngineSnapshot tagged with `version`. O(num_categories) — the parts
  /// are shared, not copied; a later mutation of this engine copies the
  /// affected part first (copy-on-write), so the snapshot stays frozen.
  std::shared_ptr<const EngineSnapshot> SealSnapshot(uint64_t version) const;

  // --- Accessors -----------------------------------------------------------

  const Graph& graph() const { return *graph_; }
  const CategoryTable& categories() const { return *categories_; }
  const HubLabeling& labeling() const { return *labeling_; }
  const InvertedLabelIndex& inverted(CategoryId c) const {
    return *inverted_[c];
  }
  bool indexes_built() const { return indexes_built_; }
  /// Threads every later edge update's label repair runs on (0 = hardware
  /// concurrency); the result does not depend on it. BuildIndexes sets it
  /// to its own count; an engine whose indexes were loaded instead keeps
  /// 1 until set.
  uint32_t repair_threads() const { return repair_threads_; }
  void set_repair_threads(uint32_t num_threads) {
    repair_threads_ = num_threads;
  }
  double label_build_seconds() const { return label_build_seconds_; }
  double inverted_build_seconds() const { return inverted_build_seconds_; }

 private:
  /// Applies a label-repair delta to the per-category inverted indexes
  /// (patching only the lists of hubs whose member labels changed) and
  /// folds it into `summary`.
  void AbsorbLabelRepair(LabelRepairDelta delta, EdgeUpdateSummary& summary);

  // Copy-on-write accessors for the mutating entry points: each clones its
  // part iff a sealed snapshot still shares it (use_count > 1), so frozen
  // snapshots never observe a mutation. Safe without the snapshot domain's
  // locks: new references to these parts are only ever created on the
  // owning (publisher) thread via SealSnapshot / engine copies, so a
  // use_count of 1 cannot concurrently grow — it can only shrink when a
  // retired snapshot is destroyed, which at worst forces a harmless extra
  // clone.
  Graph& MutableGraph();
  CategoryTable& MutableCategories();
  HubLabeling& MutableLabeling();
  InvertedLabelIndex& MutableInverted(CategoryId c);

  std::shared_ptr<Graph> graph_;
  std::shared_ptr<CategoryTable> categories_;
  std::shared_ptr<HubLabeling> labeling_;
  std::vector<std::shared_ptr<InvertedLabelIndex>> inverted_;
  bool indexes_built_ = false;
  uint32_t repair_threads_ = 1;
  double label_build_seconds_ = 0;
  double inverted_build_seconds_ = 0;
};

/// Dispatches one KOSR query against explicit index parts (shared by the
/// in-memory engine, sealed snapshots, and the disk-resident path).
/// `slot_indexes` holds one inverted index per sequence slot (empty for
/// Dijkstra-mode queries, which never read it).
KosrResult RunQueryWithIndexes(
    const Graph& graph, const CategoryTable& categories,
    const HubLabeling& labeling,
    const std::vector<const InvertedLabelIndex*>& slot_indexes,
    const KosrQuery& query, const KosrOptions& options, KosrScratch* scratch);

/// Validates a query against the category table (range checks on source,
/// target, k, and every sequence entry; throws std::invalid_argument).
/// Exposed so EngineSnapshot::Query applies exactly the engine's rules.
void ValidateKosrQuery(const KosrQuery& query, const CategoryTable& categories);

/// Expands a witness into a full vertex path using label parent pointers
/// (or Dijkstra when no labeling is built). Shared by KosrEngine and
/// EngineSnapshot.
std::vector<VertexId> ReconstructWitnessPath(const Graph& graph,
                                             const HubLabeling& labeling,
                                             bool indexes_built,
                                             const std::vector<VertexId>& witness);

}  // namespace kosr

#endif  // KOSR_CORE_ENGINE_H_
