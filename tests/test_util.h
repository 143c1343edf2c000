#ifndef KOSR_TESTS_TEST_UTIL_H_
#define KOSR_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <random>
#include <vector>

#include "src/graph/categories.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/labeling/hub_labeling.h"
#include "src/util/types.h"

namespace kosr::testing {

/// Thread count the parallel-build tests exercise. CI pins KOSR_TEST_THREADS
/// to 4 so the batched build runs under the ASan/UBSan and TSan jobs with
/// real concurrency; locally it defaults to 4 as well.
inline uint32_t TestThreads() {
  const char* env = std::getenv("KOSR_TEST_THREADS");
  if (env != nullptr) {
    int parsed = std::atoi(env);
    if (parsed > 0) return static_cast<uint32_t>(parsed);
  }
  return 4;
}

/// Repairs `hl` after one change of arc (u, v), `graph` already carrying
/// it: a decrease or insertion to `w` passes only `tight_new = w`, an
/// increase or deletion only `tight_old` = the weight before.
inline LabelRepairDelta RepairOneArc(HubLabeling& hl, const Graph& graph,
                                     VertexId u, VertexId v,
                                     std::optional<Cost> tight_old,
                                     std::optional<Cost> tight_new,
                                     uint32_t num_threads = 1) {
  const HubLabeling::EdgeRepairRequest request{u, v, tight_old, tight_new};
  return hl.RepairEdgeUpdates(graph, {&request, 1}, num_threads);
}

/// A random sparse instance with one category per vertex drawn uniformly.
struct TestInstance {
  Graph graph;
  CategoryTable categories;
};

inline TestInstance MakeRandomInstance(uint32_t n, uint64_t m,
                                       uint32_t num_categories,
                                       uint64_t seed) {
  TestInstance inst;
  inst.graph = MakeRandomGraph(n, m, seed);
  inst.categories = CategoryTable(n, num_categories);
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::uniform_int_distribution<uint32_t> pick(0, num_categories - 1);
  for (VertexId v = 0; v < n; ++v) inst.categories.Add(v, pick(rng));
  return inst;
}

/// All-pairs distances by repeated Dijkstra (test-sized graphs only).
class DistanceOracle {
 public:
  explicit DistanceOracle(const Graph& graph) : graph_(&graph) {}

  Cost operator()(VertexId s, VertexId t) {
    auto it = cache_.find(s);
    if (it == cache_.end()) {
      it = cache_.emplace(s, DijkstraAllDistances(*graph_, s)).first;
    }
    return it->second[t];
  }

 private:
  const Graph* graph_;
  std::map<VertexId, std::vector<Cost>> cache_;
};

/// Reference KOSR: enumerates every witness tuple in VC1 x ... x VCj and
/// returns all finite feasible costs, sorted ascending. Exponential — only
/// for tiny instances.
inline std::vector<Cost> BruteForceKosrCosts(const Graph& graph,
                                             const CategoryTable& categories,
                                             VertexId s, VertexId t,
                                             const CategorySequence& seq) {
  DistanceOracle dis(graph);
  std::vector<Cost> costs;
  std::vector<VertexId> pick(seq.size());
  auto recurse = [&](auto&& self, size_t i, Cost acc, VertexId prev) -> void {
    if (acc >= kInfCost) return;
    if (i == seq.size()) {
      Cost leg = dis(prev, t);
      if (leg < kInfCost) costs.push_back(acc + leg);
      return;
    }
    for (VertexId v : categories.Members(seq[i])) {
      Cost leg = dis(prev, v);
      if (leg < kInfCost) self(self, i + 1, acc + leg, v);
    }
  };
  recurse(recurse, 0, 0, s);
  std::sort(costs.begin(), costs.end());
  return costs;
}

/// First k reference costs (fewer if fewer feasible witnesses exist).
inline std::vector<Cost> BruteForceTopK(const Graph& graph,
                                        const CategoryTable& categories,
                                        VertexId s, VertexId t,
                                        const CategorySequence& seq,
                                        uint32_t k) {
  auto costs = BruteForceKosrCosts(graph, categories, s, t, seq);
  if (costs.size() > k) costs.resize(k);
  return costs;
}

/// Checks that a witness is structurally feasible: starts at s, ends at t,
/// interior vertices carry the right categories, and the claimed cost equals
/// the sum of shortest-path legs.
inline bool WitnessFeasible(const Graph& graph,
                            const CategoryTable& categories, VertexId s,
                            VertexId t, const CategorySequence& seq,
                            const std::vector<VertexId>& witness,
                            Cost claimed_cost) {
  if (witness.size() != seq.size() + 2) return false;
  if (witness.front() != s || witness.back() != t) return false;
  for (size_t i = 0; i < seq.size(); ++i) {
    if (!categories.Has(witness[i + 1], seq[i])) return false;
  }
  DistanceOracle dis(graph);
  Cost total = 0;
  for (size_t i = 0; i + 1 < witness.size(); ++i) {
    Cost leg = dis(witness[i], witness[i + 1]);
    if (leg >= kInfCost) return false;
    total += leg;
  }
  return total == claimed_cost;
}

}  // namespace kosr::testing

#endif  // KOSR_TESTS_TEST_UTIL_H_
