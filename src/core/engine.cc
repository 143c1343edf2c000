#include "src/core/engine.h"

#include <istream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "src/algo/gsp.h"
#include "src/core/snapshot.h"
#include "src/algo/kpne.h"
#include "src/algo/pruning_kosr.h"
#include "src/algo/star_kosr.h"
#include "src/nn/dijkstra_nn.h"
#include "src/nn/find_nen.h"
#include "src/nn/find_nn.h"
#include "src/obs/counters.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace kosr {
namespace {

AlgoConfig MakeConfig(const KosrQuery& query, const KosrOptions& options) {
  AlgoConfig config;
  config.source = query.source;
  config.target = query.target;
  config.num_categories = static_cast<uint32_t>(query.sequence.size());
  config.k = query.k;
  config.max_examined = options.max_examined_routes;
  config.time_budget_s = options.time_budget_s;
  config.collect_phase_times = options.collect_phase_times;
  return config;
}

}  // namespace

void ValidateKosrQuery(const KosrQuery& query,
                       const CategoryTable& categories) {
  if (query.source == kInvalidVertex || query.target == kInvalidVertex) {
    throw std::invalid_argument("query needs a source and a target");
  }
  if (query.source >= categories.num_vertices() ||
      query.target >= categories.num_vertices()) {
    throw std::invalid_argument("source/target outside the vertex universe");
  }
  if (query.k == 0) throw std::invalid_argument("k must be positive");
  for (CategoryId c : query.sequence) {
    if (c >= categories.num_categories()) {
      throw std::invalid_argument("unknown category in sequence");
    }
  }
}

/// Shared driver used by the in-memory and disk-resident paths. `scratch`
/// (optional) is the reusable search-state arena of the caller's
/// QueryContext.
KosrResult RunQueryWithIndexes(
    const Graph& graph, const CategoryTable& categories,
    const HubLabeling& labeling,
    const std::vector<const InvertedLabelIndex*>& slot_indexes,
    const KosrQuery& query, const KosrOptions& options,
    KosrScratch* scratch) {
  AlgoConfig config = MakeConfig(query, options);
  KosrResult result;
  switch (options.algorithm) {
    case Algorithm::kKpne: {
      if (options.nn_mode == NnMode::kHopLabel) {
        HopLabelNnProvider nn(&labeling, slot_indexes, query.target,
                              options.filter);
        result = RunKpne(config, nn, scratch);
      } else {
        DijkstraNnProvider nn(&graph, &categories, query.sequence,
                              query.target, options.filter);
        result = RunKpne(config, nn, scratch);
      }
      break;
    }
    case Algorithm::kPruning: {
      if (options.nn_mode == NnMode::kHopLabel) {
        HopLabelNnProvider nn(&labeling, slot_indexes, query.target,
                              options.filter);
        result = RunPruningKosr(config, nn, scratch);
      } else {
        DijkstraNnProvider nn(&graph, &categories, query.sequence,
                              query.target, options.filter);
        result = RunPruningKosr(config, nn, scratch);
      }
      break;
    }
    case Algorithm::kStar: {
      if (options.nn_mode == NnMode::kHopLabel) {
        HopLabelNenProvider nen(&labeling, slot_indexes, query.target,
                                options.filter);
        result = RunStarKosr(config, nen, scratch);
      } else {
        DijkstraNenProvider nen(&graph, &categories, query.sequence,
                                query.target, options.filter);
        result = RunStarKosr(config, nen, scratch);
      }
      break;
    }
  }
  return result;
}

KosrEngine::KosrEngine(Graph graph, CategoryTable categories)
    : graph_(std::make_shared<Graph>(std::move(graph))),
      categories_(std::make_shared<CategoryTable>(std::move(categories))),
      labeling_(std::make_shared<HubLabeling>()) {
  if (categories_->num_vertices() != graph_->num_vertices()) {
    throw std::invalid_argument(
        "category table and graph disagree on the vertex universe");
  }
}

Graph& KosrEngine::MutableGraph() {
  if (graph_.use_count() > 1) graph_ = std::make_shared<Graph>(*graph_);
  return *graph_;
}

CategoryTable& KosrEngine::MutableCategories() {
  if (categories_.use_count() > 1) {
    categories_ = std::make_shared<CategoryTable>(*categories_);
  }
  return *categories_;
}

HubLabeling& KosrEngine::MutableLabeling() {
  if (labeling_.use_count() > 1) {
    labeling_ = std::make_shared<HubLabeling>(*labeling_);
  }
  return *labeling_;
}

InvertedLabelIndex& KosrEngine::MutableInverted(CategoryId c) {
  if (inverted_[c].use_count() > 1) {
    inverted_[c] = std::make_shared<InvertedLabelIndex>(*inverted_[c]);
  }
  return *inverted_[c];
}

void KosrEngine::BuildIndexes(uint32_t num_threads) {
  BuildIndexes(HubLabeling::DegreeOrder(*graph_, num_threads), num_threads);
}

void KosrEngine::BuildIndexes(const std::vector<VertexId>& order,
                              uint32_t num_threads) {
  MutableLabeling().Build(*graph_, order, num_threads);
  repair_threads_ = num_threads;
  label_build_seconds_ = labeling_->BuildSeconds();
  WallTimer timer;
  // Categories are independent of one another, so each inverted index build
  // is one parallel task (dynamic scheduling — category sizes can be very
  // skewed under the Zipfian tables).
  inverted_.assign(categories_->num_categories(), nullptr);
  ParallelForEachIndex(
      num_threads, categories_->num_categories(), [&](uint64_t c) {
        inverted_[c] = std::make_shared<InvertedLabelIndex>(
            InvertedLabelIndex::Build(
                *labeling_, categories_->Members(static_cast<CategoryId>(c))));
      });
  inverted_build_seconds_ = timer.ElapsedSeconds();
  indexes_built_ = true;
}

KosrResult KosrEngine::Query(const KosrQuery& query,
                             const KosrOptions& options,
                             QueryContext* ctx) const {
  ValidateKosrQuery(query, *categories_);
  if (options.nn_mode == NnMode::kHopLabel && !indexes_built_) {
    throw std::logic_error("BuildIndexes() must run before hop-label queries");
  }
  std::vector<const InvertedLabelIndex*> local_slots;
  std::vector<const InvertedLabelIndex*>& slot_indexes =
      ctx != nullptr ? ctx->slot_indexes : local_slots;
  slot_indexes.clear();
  if (options.nn_mode == NnMode::kHopLabel) {
    // Dijkstra-mode providers never read the slot indexes, and inverted_
    // may be empty (indexes not built) — indexing it there would read past
    // an empty vector.
    for (CategoryId c : query.sequence) {
      slot_indexes.push_back(inverted_[c].get());
    }
  }
  KosrResult result =
      RunQueryWithIndexes(*graph_, *categories_, *labeling_, slot_indexes,
                          query, options,
                          ctx != nullptr ? &ctx->scratch : nullptr);
  if (ctx != nullptr) {
    // Arena high-water mark: the pool only grows across a context's
    // lifetime, so its size after a query is the peak witness count so far.
    KOSR_COUNT_MAX(kScratchPeakWitnesses, ctx->scratch.pool.size());
  }
  if (options.reconstruct_paths) {
    for (SequencedRoute& route : result.routes) {
      route.path = ReconstructPath(route.witness);
    }
  }
  return result;
}

std::optional<SequencedRoute> KosrEngine::QueryGsp(
    VertexId source, VertexId target, const CategorySequence& sequence,
    QueryStats* stats) const {
  return RunGsp(*graph_, *categories_, sequence, source, target, stats);
}

std::vector<VertexId> ReconstructWitnessPath(
    const Graph& graph, const HubLabeling& labeling, bool indexes_built,
    const std::vector<VertexId>& witness) {
  std::vector<VertexId> path;
  for (size_t i = 0; i + 1 < witness.size(); ++i) {
    std::vector<VertexId> leg;
    if (indexes_built) {
      leg = labeling.UnpackPath(witness[i], witness[i + 1]);
    } else {
      leg = DijkstraPath(graph, witness[i], witness[i + 1]);
    }
    if (leg.empty()) return {};  // disconnected witness (shouldn't happen)
    if (!path.empty()) path.pop_back();  // drop duplicated junction vertex
    path.insert(path.end(), leg.begin(), leg.end());
  }
  if (witness.size() == 1) path = witness;
  return path;
}

std::vector<VertexId> KosrEngine::ReconstructPath(
    const std::vector<VertexId>& witness) const {
  return ReconstructWitnessPath(*graph_, *labeling_, indexes_built_, witness);
}

void KosrEngine::AddVertexCategory(VertexId v, CategoryId c) {
  MutableCategories().Add(v, c);
  if (indexes_built_) MutableInverted(c).AddMember(*labeling_, v);
}

void KosrEngine::RemoveVertexCategory(VertexId v, CategoryId c) {
  if (indexes_built_) MutableInverted(c).RemoveMember(*labeling_, v);
  MutableCategories().Remove(v, c);
}

void KosrEngine::AbsorbLabelRepair(LabelRepairDelta delta,
                                   EdgeUpdateSummary& summary) {
  summary.labels_changed = !delta.Empty();
  summary.changed_in_labels = static_cast<uint32_t>(delta.changed_in.size());
  summary.changed_out_labels = static_cast<uint32_t>(delta.changed_out.size());
  // Inverted lists mirror Lin entries of category members; patch exactly
  // the lists of hubs whose entries for a changed member moved, instead of
  // rebuilding every category from scratch.
  for (size_t i = 0; i < delta.changed_in.size(); ++i) {
    VertexId x = delta.changed_in[i];
    for (CategoryId c : categories_->CategoriesOf(x)) {
      MutableInverted(c).UpdateMember(x, delta.old_in[i], labeling_->Lin(x));
    }
  }
  summary.changed_in_vertices = std::move(delta.changed_in);
  summary.changed_out_vertices = std::move(delta.changed_out);
}

EdgeUpdateSummary KosrEngine::AddOrDecreaseEdge(VertexId u, VertexId v,
                                                Weight w) {
  const EdgeUpdate update{EdgeUpdate::Kind::kAddOrDecrease, u, v, w};
  return ApplyEdgeUpdates({&update, 1});
}

EdgeUpdateSummary KosrEngine::SetEdgeWeight(VertexId u, VertexId v, Weight w) {
  const EdgeUpdate update{EdgeUpdate::Kind::kSet, u, v, w};
  return ApplyEdgeUpdates({&update, 1});
}

EdgeUpdateSummary KosrEngine::RemoveEdge(VertexId u, VertexId v) {
  const EdgeUpdate update{EdgeUpdate::Kind::kRemove, u, v, 0};
  return ApplyEdgeUpdates({&update, 1});
}

EdgeUpdateSummary KosrEngine::ApplyEdgeUpdates(
    std::span<const EdgeUpdate> updates) {
  EdgeUpdateSummary summary;

  // Pass 1 — apply every graph mutation, recording each arc's pre-batch
  // minimum weight on first touch (kInfCost = the arc did not exist). The
  // ordered map keeps the coalesced requests in deterministic (u, v) order.
  std::map<std::pair<VertexId, VertexId>, Cost> first_old;
  for (const EdgeUpdate& update : updates) {
    VertexId u = update.u, v = update.v;
    if (u >= graph_->num_vertices() || v >= graph_->num_vertices()) {
      throw std::invalid_argument("arc endpoint outside the vertex universe");
    }
    if (u == v) continue;  // self loops are dropped, as everywhere
    Cost old = graph_->ArcWeight(u, v);
    switch (update.kind) {
      case EdgeUpdate::Kind::kAddOrDecrease:
        if (old <= static_cast<Cost>(update.w)) continue;
        first_old.try_emplace({u, v}, old);
        MutableGraph().AddOrDecreaseArc(u, v, update.w);
        summary.graph_changed = true;
        break;
      case EdgeUpdate::Kind::kSet:
        if (old == static_cast<Cost>(update.w)) continue;
        first_old.try_emplace({u, v}, old);
        MutableGraph().SetArcWeight(u, v, update.w);
        summary.graph_changed = true;
        break;
      case EdgeUpdate::Kind::kRemove:
        if (old == kInfCost) continue;
        first_old.try_emplace({u, v}, old);
        MutableGraph().RemoveArc(u, v);
        summary.graph_changed = true;
        break;
    }
  }
  if (!summary.graph_changed || !indexes_built_) return summary;

  // Pass 2 — coalesce per-arc to the net (pre-batch, post-batch) weight
  // change: a net decrease or insertion engages only the new-graph test,
  // a net increase or deletion only the old-graph test. Arcs that ended at
  // their pre-batch weight repair nothing.
  std::vector<HubLabeling::EdgeRepairRequest> requests;
  requests.reserve(first_old.size());
  for (const auto& [arc, old] : first_old) {
    Cost now = graph_->ArcWeight(arc.first, arc.second);
    if (now == old) continue;  // net no-op across the batch
    HubLabeling::EdgeRepairRequest request;
    request.u = arc.first;
    request.v = arc.second;
    if (now < old) {
      request.tight_new = now;
    } else {
      request.tight_old = old;
    }
    requests.push_back(request);
  }
  if (requests.empty()) return summary;

  AbsorbLabelRepair(
      MutableLabeling().RepairEdgeUpdates(*graph_, requests, repair_threads_),
      summary);
  return summary;
}

void KosrEngine::SaveIndexes(std::ostream& out) const {
  if (!indexes_built_) {
    throw std::logic_error("BuildIndexes() must run before SaveIndexes()");
  }
  labeling_->Serialize(out);
  uint32_t num_categories = categories_->num_categories();
  out.write(reinterpret_cast<const char*>(&num_categories),
            sizeof(num_categories));
  for (const auto& index : inverted_) index->Serialize(out);
}

void KosrEngine::LoadIndexes(std::istream& in) {
  // Passing the expected vertex count makes Deserialize reject an absurd
  // claimed n before sizing anything from it.
  labeling_ = std::make_shared<HubLabeling>(
      HubLabeling::Deserialize(in, graph_->num_vertices()));
  if (labeling_->num_vertices() != graph_->num_vertices()) {
    throw std::runtime_error("index snapshot is for a different graph");
  }
  uint32_t num_categories = 0;
  in.read(reinterpret_cast<char*>(&num_categories), sizeof(num_categories));
  if (!in || num_categories != categories_->num_categories()) {
    throw std::runtime_error("index snapshot is for different categories");
  }
  inverted_.clear();
  inverted_.reserve(num_categories);
  for (uint32_t c = 0; c < num_categories; ++c) {
    inverted_.push_back(std::make_shared<InvertedLabelIndex>(
        InvertedLabelIndex::Deserialize(in, graph_->num_vertices())));
  }
  indexes_built_ = true;
}

std::shared_ptr<const EngineSnapshot> KosrEngine::SealSnapshot(
    uint64_t version) const {
  std::vector<std::shared_ptr<const InvertedLabelIndex>> inverted(
      inverted_.begin(), inverted_.end());
  return std::make_shared<const EngineSnapshot>(
      version, indexes_built_, graph_, categories_, labeling_,
      std::move(inverted));
}

void KosrEngine::WriteDiskStore(const std::string& dir) const {
  if (!indexes_built_) {
    throw std::logic_error("BuildIndexes() must run before WriteDiskStore()");
  }
  DiskLabelStore::Write(dir, *labeling_, *categories_);
}

KosrResult KosrEngine::QueryFromDisk(const DiskLabelStore& store,
                                     const KosrQuery& query,
                                     const KosrOptions& options) {
  if (options.nn_mode != NnMode::kHopLabel) {
    throw std::invalid_argument("disk-resident queries are hop-label only");
  }
  DiskLabelStore::QueryContext ctx =
      store.Load(query.source, query.target, query.sequence);
  std::vector<const InvertedLabelIndex*> slot_indexes;
  for (const InvertedLabelIndex& idx : ctx.slot_indexes) {
    slot_indexes.push_back(&idx);
  }
  AlgoConfig config = MakeConfig(query, options);
  KosrResult result;
  switch (options.algorithm) {
    case Algorithm::kStar: {
      HopLabelNenProvider nen(&ctx.labeling, slot_indexes, query.target,
                              options.filter);
      result = RunStarKosr(config, nen);
      break;
    }
    case Algorithm::kKpne: {
      HopLabelNnProvider nn(&ctx.labeling, slot_indexes, query.target,
                            options.filter);
      result = RunKpne(config, nn);
      break;
    }
    case Algorithm::kPruning: {
      HopLabelNnProvider nn(&ctx.labeling, slot_indexes, query.target,
                            options.filter);
      result = RunPruningKosr(config, nn);
      break;
    }
  }
  result.stats.total_time_s += ctx.load_seconds;
  return result;
}

}  // namespace kosr
