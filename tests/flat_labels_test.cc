// Property tests for the sealed flat SoA label store: on randomized graphs
// the flat view must answer Query / QueryWithHub / UnpackPath exactly like
// the nested-vector reference path — including after batches of dynamic
// updates in every direction (weight decreases, increases, and deletions:
// incremental run re-sealing, tail growth, in-place shrinks, emptied runs,
// and the garbage-triggered compaction) and after a snapshot save/load
// round trip.

#include <random>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/labeling/hub_labeling.h"
#include "tests/test_util.h"

namespace kosr {
namespace {

using testing::DistanceOracle;

// The flat runs must mirror the nested vectors entry for entry, with the
// sentinel in place — this is the strongest equivalence statement, and every
// query-level check below follows from it.
void ExpectFlatMirrorsNested(const HubLabeling& hl) {
  for (VertexId v = 0; v < hl.num_vertices(); ++v) {
    for (bool in_side : {true, false}) {
      auto nested = in_side ? hl.Lin(v) : hl.Lout(v);
      LabelRun run = in_side ? hl.InRun(v) : hl.OutRun(v);
      ASSERT_EQ(run.size, nested.size()) << "vertex " << v;
      for (uint32_t i = 0; i < run.size; ++i) {
        EXPECT_EQ(run.RankAt(i), nested[i].hub_rank);
        EXPECT_EQ(run.DistAt(i), nested[i].dist);
        EXPECT_EQ(run.parent[i], nested[i].parent);
      }
      EXPECT_EQ(run.key[run.size], kSentinelKey);
    }
  }
}

// Flat Query/QueryWithHub agree with the nested reference merge for every
// pair, and UnpackPath yields a real path of exactly that cost.
void ExpectQueriesMatchReference(const Graph& graph, const HubLabeling& hl) {
  DistanceOracle dis(graph);
  uint32_t n = hl.num_vertices();
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      auto flat = hl.QueryWithHub(s, t);
      auto ref = hl.QueryWithHubReference(s, t);
      ASSERT_EQ(flat.has_value(), ref.has_value()) << s << "->" << t;
      if (flat.has_value()) {
        EXPECT_EQ(flat->first, ref->first) << s << "->" << t;
        EXPECT_EQ(flat->second, ref->second) << s << "->" << t;
        EXPECT_EQ(hl.Query(s, t), ref->first);
        // The labeling must also be *correct*, not merely self-consistent.
        EXPECT_EQ(flat->first, dis(s, t)) << s << "->" << t;
      } else {
        EXPECT_EQ(dis(s, t), kInfCost) << s << "->" << t;
      }
    }
  }
}

void ExpectUnpackedPathsValid(const Graph& graph, const HubLabeling& hl) {
  uint32_t n = hl.num_vertices();
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      std::vector<VertexId> path = hl.UnpackPath(s, t);
      Cost d = hl.Query(s, t);
      if (s == t) {
        ASSERT_EQ(path, std::vector<VertexId>{s});
        continue;
      }
      if (d >= kInfCost) {
        EXPECT_TRUE(path.empty());
        continue;
      }
      ASSERT_GE(path.size(), 2u);
      EXPECT_EQ(path.front(), s);
      EXPECT_EQ(path.back(), t);
      Cost total = 0;
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        Cost leg = graph.ArcWeight(path[i], path[i + 1]);
        ASSERT_LT(leg, kInfCost)
            << path[i] << "->" << path[i + 1] << " is not an arc";
        total += leg;
      }
      EXPECT_EQ(total, d);
    }
  }
}

TEST(FlatLabelsTest, SealedStoreMatchesNestedOnRandomGraphs) {
  for (uint64_t seed : {11u, 22u, 33u, 44u}) {
    Graph graph = MakeRandomGraph(60, 240, seed);
    HubLabeling hl;
    hl.Build(graph);
    ExpectFlatMirrorsNested(hl);
    ExpectQueriesMatchReference(graph, hl);
    ExpectUnpackedPathsValid(graph, hl);
  }
}

TEST(FlatLabelsTest, SealedStoreMatchesNestedOnGrid) {
  Graph graph = MakeGridRoadNetwork(7, 7, 5, 10, 100, 0);
  HubLabeling hl;
  hl.Build(graph);
  ExpectFlatMirrorsNested(hl);
  ExpectQueriesMatchReference(graph, hl);
  ExpectUnpackedPathsValid(graph, hl);
}

TEST(FlatLabelsTest, ParallelBuildSealsIdentically) {
  Graph graph = MakeRandomGraph(80, 400, 7);
  HubLabeling sequential;
  sequential.Build(graph, 1);
  HubLabeling parallel;
  parallel.Build(graph, testing::TestThreads());
  ExpectFlatMirrorsNested(parallel);
  for (VertexId s = 0; s < graph.num_vertices(); ++s) {
    for (VertexId t = 0; t < graph.num_vertices(); ++t) {
      EXPECT_EQ(parallel.Query(s, t), sequential.Query(s, t));
    }
  }
}

// A long stream of weight decreases exercises every re-seal path: in-place
// overwrites (distance improved, run length unchanged), tail appends (run
// grew a new hub), and eventually the garbage-triggered full compaction.
// After every update the store must stay equivalent to the nested truth,
// and at the end it must agree with a from-scratch rebuild.
TEST(FlatLabelsTest, EquivalentAfterDynamicDecreaseBatch) {
  std::mt19937_64 rng(99);
  Graph graph = MakeRandomGraph(50, 180, 17);
  HubLabeling hl;
  hl.Build(graph);
  std::uniform_int_distribution<VertexId> pick(0, graph.num_vertices() - 1);
  std::uniform_int_distribution<Weight> weight(1, 40);
  uint32_t applied = 0;
  for (uint32_t step = 0; step < 120; ++step) {
    VertexId u = pick(rng), v = pick(rng);
    Weight w = weight(rng);
    if (!graph.AddOrDecreaseArc(u, v, w)) continue;
    testing::RepairOneArc(hl, graph, u, v, std::nullopt, w);
    ++applied;
    ExpectFlatMirrorsNested(hl);
  }
  ASSERT_GT(applied, 20u);  // the stream must actually exercise repairs
  ExpectQueriesMatchReference(graph, hl);
  ExpectUnpackedPathsValid(graph, hl);
  HubLabeling rebuilt;
  rebuilt.Build(graph);
  for (VertexId s = 0; s < graph.num_vertices(); ++s) {
    for (VertexId t = 0; t < graph.num_vertices(); ++t) {
      EXPECT_EQ(hl.Query(s, t), rebuilt.Query(s, t)) << s << "->" << t;
    }
  }
}

// Joining two previously disconnected components makes runs grow out of
// the shared empty block (an isolated sink has an empty Lin everywhere but
// itself) — the reseal path that repoints start[v] from slot 0 to an owned
// tail slot must keep the store equivalent.
TEST(FlatLabelsTest, EmptyRunsGrowAfterConnectingUpdate) {
  std::vector<std::tuple<VertexId, VertexId, Weight>> edges;
  for (VertexId v = 0; v + 1 < 6; ++v) {
    edges.emplace_back(v, v + 1, 3);
    edges.emplace_back(v + 1, v, 3);
  }
  for (VertexId v = 6; v + 1 < 12; ++v) {
    edges.emplace_back(v, v + 1, 5);
    edges.emplace_back(v + 1, v, 5);
  }
  Graph graph = Graph::FromEdges(12, edges);
  HubLabeling hl;
  hl.Build(graph);
  // Cross-component pairs are unreachable before the bridging update.
  ASSERT_GE(hl.Query(0, 11), kInfCost);
  ASSERT_TRUE(graph.AddOrDecreaseArc(5, 6, 2));
  testing::RepairOneArc(hl, graph, 5, 6, std::nullopt, 2);
  ExpectFlatMirrorsNested(hl);
  ExpectQueriesMatchReference(graph, hl);
  ExpectUnpackedPathsValid(graph, hl);
  HubLabeling rebuilt;
  rebuilt.Build(graph);
  for (VertexId s = 0; s < 12; ++s) {
    for (VertexId t = 0; t < 12; ++t) {
      EXPECT_EQ(hl.Query(s, t), rebuilt.Query(s, t)) << s << "->" << t;
    }
  }
}

// Mixed weakening stream (increases and deletions) exercises the re-seal
// paths the decrease batch cannot: in-place *shrinks* (a hub lost coverage
// of a vertex, the run got shorter) and runs emptied outright (a deletion
// disconnected a vertex). After every repair the store must mirror the
// nested truth, keep answering correctly, and match a canonical rebuild
// with the same order byte for byte.
TEST(FlatLabelsTest, EquivalentAfterIncreaseAndRemovalStream) {
  std::mt19937_64 rng(4242);
  Graph graph = MakeRandomGraph(45, 170, 29);
  HubLabeling hl;
  hl.Build(graph);
  std::vector<VertexId> order(hl.num_vertices());
  for (uint32_t r = 0; r < hl.num_vertices(); ++r) order[r] = hl.HubVertex(r);

  uint32_t applied = 0;
  for (uint32_t step = 0; step < 60; ++step) {
    auto edges = graph.ToEdges();
    if (edges.empty()) break;
    auto [u, v, w] = edges[rng() % edges.size()];
    if (step % 3 == 0) {
      auto old = graph.RemoveArc(u, v);
      ASSERT_TRUE(old.has_value());
      LabelRepairDelta delta =
          testing::RepairOneArc(hl, graph, u, v, *old, std::nullopt);
      applied += delta.Empty() ? 0 : 1;
    } else {
      Weight raised = w + 1 + static_cast<Weight>(rng() % 60);
      auto old = graph.SetArcWeight(u, v, raised);
      ASSERT_TRUE(old.has_value());
      LabelRepairDelta delta =
          testing::RepairOneArc(hl, graph, u, v, *old, std::nullopt);
      applied += delta.Empty() ? 0 : 1;
    }
    ExpectFlatMirrorsNested(hl);
  }
  ASSERT_GT(applied, 15u);  // the stream must actually trigger repairs
  ExpectQueriesMatchReference(graph, hl);
  ExpectUnpackedPathsValid(graph, hl);
  HubLabeling rebuilt;
  rebuilt.Build(graph, order);
  std::stringstream got, want;
  hl.Serialize(got);
  rebuilt.Serialize(want);
  EXPECT_EQ(got.str(), want.str());
}

// Deleting a vertex's every incident arc empties its label runs (only the
// self-entry can survive on one side) — the re-seal must repoint shrunken
// and emptied runs correctly and the store must stay equivalent.
TEST(FlatLabelsTest, RunsShrinkAndEmptyAfterIsolatingAVertex) {
  Graph graph = MakeGridRoadNetwork(5, 5, 3, 10, 100, 0);
  HubLabeling hl;
  hl.Build(graph);
  VertexId isolated = 12;  // grid center
  for (auto [u, v, w] : graph.ToEdges()) {
    if (u != isolated && v != isolated) continue;
    auto old = graph.RemoveArc(u, v);
    if (!old.has_value()) continue;  // already removed as a parallel
    testing::RepairOneArc(hl, graph, u, v, *old, std::nullopt);
    ExpectFlatMirrorsNested(hl);
  }
  // The isolated vertex reaches nothing and is reached by nothing; at most
  // its own self-entries remain.
  for (VertexId t = 0; t < hl.num_vertices(); ++t) {
    if (t == isolated) continue;
    EXPECT_GE(hl.Query(isolated, t), kInfCost);
    EXPECT_GE(hl.Query(t, isolated), kInfCost);
  }
  EXPECT_LE(hl.Lin(isolated).size(), 1u);
  EXPECT_LE(hl.Lout(isolated).size(), 1u);
  ExpectQueriesMatchReference(graph, hl);
  ExpectUnpackedPathsValid(graph, hl);
}

TEST(FlatLabelsTest, EquivalentAfterSnapshotRoundTrip) {
  Graph graph = MakeRandomGraph(60, 260, 23);
  HubLabeling hl;
  hl.Build(graph);
  std::stringstream stream;
  hl.Serialize(stream);
  HubLabeling loaded = HubLabeling::Deserialize(stream);
  ExpectFlatMirrorsNested(loaded);
  ExpectQueriesMatchReference(graph, loaded);
  ExpectUnpackedPathsValid(graph, loaded);
  // And a decrease applied to the *loaded* labeling repairs its flat store
  // too (snapshot -> serve -> dynamic update is the service's real path).
  ASSERT_TRUE(graph.AddOrDecreaseArc(0, graph.num_vertices() - 1, 1));
  testing::RepairOneArc(loaded, graph, 0, graph.num_vertices() - 1,
                        std::nullopt, 1);
  ExpectFlatMirrorsNested(loaded);
  ExpectQueriesMatchReference(graph, loaded);
}

TEST(FlatLabelsTest, FromPartsSealsPartialWorkingSet) {
  Graph graph = MakeRandomGraph(40, 160, 31);
  HubLabeling full;
  full.Build(graph);
  // Working set: only Lout(3) and Lin(8) populated, like a disk-store load.
  std::vector<std::vector<LabelEntry>> in(40), out(40);
  out[3].assign(full.Lout(3).begin(), full.Lout(3).end());
  in[8].assign(full.Lin(8).begin(), full.Lin(8).end());
  std::vector<VertexId> order(full.num_vertices());
  for (uint32_t r = 0; r < full.num_vertices(); ++r) {
    order[r] = full.HubVertex(r);
  }
  HubLabeling partial =
      HubLabeling::FromParts(std::move(order), std::move(in), std::move(out));
  ExpectFlatMirrorsNested(partial);
  EXPECT_EQ(partial.Query(3, 8), full.Query(3, 8));
  // Unloaded vertices answer unreachable, with empty (sentinel-only) runs.
  EXPECT_EQ(partial.OutRun(5).size, 0u);
  EXPECT_EQ(partial.OutRun(5).key[0], kSentinelKey);
  EXPECT_GE(partial.Query(5, 8), kInfCost);
}

TEST(FlatLabelsTest, FlatBytesTracksStore) {
  Graph graph = MakeRandomGraph(30, 120, 41);
  HubLabeling hl;
  hl.Build(graph);
  // Lower bound: every entry appears in both arrays' SoA slots.
  EXPECT_GT(hl.FlatBytes(), hl.IndexBytes());
}

}  // namespace
}  // namespace kosr
