#include "src/core/engine.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/graph/generators.h"
#include "tests/test_util.h"

namespace kosr {
namespace {

TEST(EngineTest, RejectsMismatchedUniverse) {
  Graph g = MakeRandomGraph(10, 20, 1);
  CategoryTable cats(5, 2);
  EXPECT_THROW(KosrEngine(g, cats), std::invalid_argument);
}

TEST(EngineTest, HopLabelQueriesRequireIndexes) {
  Figure1 fig = MakeFigure1();
  KosrEngine engine(fig.graph, fig.categories);
  KosrQuery query{Figure1::s, Figure1::t, {Figure1::MA}, 1};
  EXPECT_THROW(engine.Query(query), std::logic_error);
  // Dijkstra mode works without indexes.
  KosrOptions options;
  options.nn_mode = NnMode::kDijkstra;
  EXPECT_EQ(engine.Query(query, options).routes.size(), 1u);
}

TEST(EngineTest, ValidatesQueries) {
  Figure1 fig = MakeFigure1();
  KosrEngine engine(fig.graph, fig.categories);
  engine.BuildIndexes();
  KosrQuery bad_k{Figure1::s, Figure1::t, {Figure1::MA}, 0};
  EXPECT_THROW(engine.Query(bad_k), std::invalid_argument);
  KosrQuery bad_cat{Figure1::s, Figure1::t, {42}, 1};
  EXPECT_THROW(engine.Query(bad_cat), std::invalid_argument);
  KosrQuery no_source{kInvalidVertex, Figure1::t, {Figure1::MA}, 1};
  EXPECT_THROW(engine.Query(no_source), std::invalid_argument);
}

TEST(EngineTest, ReconstructedPathsAreRealRoutes) {
  auto inst = testing::MakeRandomInstance(50, 260, 3, 55);
  KosrEngine engine(inst.graph, inst.categories);
  engine.BuildIndexes();
  KosrQuery query{3, 46, {0, 1, 2}, 3};
  KosrOptions options;
  options.reconstruct_paths = true;
  KosrResult result = engine.Query(query, options);
  for (const auto& route : result.routes) {
    ASSERT_FALSE(route.path.empty());
    EXPECT_EQ(route.path.front(), 3u);
    EXPECT_EQ(route.path.back(), 46u);
    // Consecutive path vertices are connected, and the path's real edge cost
    // equals the route cost.
    Cost total = 0;
    for (size_t i = 0; i + 1 < route.path.size(); ++i) {
      Cost w = inst.graph.ArcWeight(route.path[i], route.path[i + 1]);
      ASSERT_LT(w, kInfCost);
      total += w;
    }
    EXPECT_EQ(total, route.cost);
    // The witness is a subsequence of the path.
    size_t pos = 0;
    for (VertexId w : route.witness) {
      while (pos < route.path.size() && route.path[pos] != w) ++pos;
      ASSERT_LT(pos, route.path.size()) << "witness vertex missing from path";
    }
  }
}

TEST(EngineTest, QuickstartShapedUsage) {
  Figure1 fig = MakeFigure1();
  KosrEngine engine(fig.graph, fig.categories);
  engine.BuildIndexes();
  EXPECT_TRUE(engine.indexes_built());
  EXPECT_GE(engine.label_build_seconds(), 0.0);
  EXPECT_GE(engine.inverted_build_seconds(), 0.0);
  KosrResult r = engine.Query(
      {Figure1::s, Figure1::t, {Figure1::MA, Figure1::RE, Figure1::CI}, 3});
  ASSERT_EQ(r.routes.size(), 3u);
  EXPECT_EQ(r.routes[0].cost, 20);
}

TEST(EngineTest, BuildWithExplicitOrder) {
  auto inst = testing::MakeRandomInstance(30, 130, 2, 66);
  KosrEngine engine(inst.graph, inst.categories);
  std::vector<VertexId> order(30);
  for (VertexId v = 0; v < 30; ++v) order[v] = 29 - v;
  engine.BuildIndexes(order);
  KosrQuery query{0, 29, {0, 1}, 2};
  auto expected = testing::BruteForceTopK(inst.graph, inst.categories, 0, 29,
                                          {0, 1}, 2);
  std::vector<Cost> got;
  for (const auto& r : engine.Query(query).routes) got.push_back(r.cost);
  EXPECT_EQ(got, expected);
}

TEST(EngineTest, GspThroughEngine) {
  Figure1 fig = MakeFigure1();
  KosrEngine engine(fig.graph, fig.categories);
  auto route = engine.QueryGsp(Figure1::s, Figure1::t,
                               {Figure1::MA, Figure1::RE, Figure1::CI});
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->cost, 20);
}

TEST(EngineTest, SaveAndLoadIndexes) {
  auto inst = testing::MakeRandomInstance(40, 200, 3, 91);
  KosrEngine built(inst.graph, inst.categories);
  built.BuildIndexes();
  std::stringstream snapshot;
  built.SaveIndexes(snapshot);

  KosrEngine loaded(inst.graph, inst.categories);
  loaded.LoadIndexes(snapshot);
  EXPECT_TRUE(loaded.indexes_built());

  KosrQuery query{0, 39, {0, 1, 2}, 4};
  auto a = built.Query(query);
  auto b = loaded.Query(query);
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (size_t i = 0; i < a.routes.size(); ++i) {
    EXPECT_EQ(a.routes[i].cost, b.routes[i].cost);
    EXPECT_EQ(a.routes[i].witness, b.routes[i].witness);
  }
}

TEST(EngineTest, ThreadedBuildAnswersIdentically) {
  auto inst = testing::MakeRandomInstance(40, 200, 3, 94);
  KosrEngine sequential(inst.graph, inst.categories);
  sequential.BuildIndexes(1);
  KosrEngine threaded(inst.graph, inst.categories);
  threaded.BuildIndexes(testing::TestThreads());

  // Identical snapshots is the strongest equivalence the engine can state:
  // it covers the labeling (order, every entry) and all inverted indexes.
  std::stringstream a, b;
  sequential.SaveIndexes(a);
  threaded.SaveIndexes(b);
  EXPECT_EQ(a.str(), b.str());

  KosrQuery query{0, 39, {0, 1, 2}, 4};
  auto ra = sequential.Query(query);
  auto rb = threaded.Query(query);
  ASSERT_EQ(ra.routes.size(), rb.routes.size());
  for (size_t i = 0; i < ra.routes.size(); ++i) {
    EXPECT_EQ(ra.routes[i].cost, rb.routes[i].cost);
    EXPECT_EQ(ra.routes[i].witness, rb.routes[i].witness);
  }
}

TEST(EngineTest, LoadIndexesRejectsCorruptSnapshot) {
  auto inst = testing::MakeRandomInstance(30, 140, 3, 95);
  KosrEngine built(inst.graph, inst.categories);
  built.BuildIndexes();
  std::stringstream snapshot;
  built.SaveIndexes(snapshot);
  std::string bytes = snapshot.str();

  {  // Absurd claimed vertex count: rejected before the O(n) allocations.
    std::string corrupt = bytes;
    uint32_t huge = 0x7fffffff;
    corrupt.replace(8, 4, reinterpret_cast<const char*>(&huge), 4);
    KosrEngine engine(inst.graph, inst.categories);
    std::stringstream in(corrupt);
    EXPECT_THROW(engine.LoadIndexes(in), std::runtime_error);
  }
  {  // Out-of-range hub order value: used to write rank_ out of bounds.
    std::string corrupt = bytes;
    uint32_t bogus = 4000000;
    corrupt.replace(12, 4, reinterpret_cast<const char*>(&bogus), 4);
    KosrEngine engine(inst.graph, inst.categories);
    std::stringstream in(corrupt);
    EXPECT_THROW(engine.LoadIndexes(in), std::runtime_error);
  }
  {  // Truncations anywhere in the stream.
    for (size_t len : {4ul, 40ul, bytes.size() / 2, bytes.size() - 3}) {
      KosrEngine engine(inst.graph, inst.categories);
      std::stringstream in(bytes.substr(0, len));
      EXPECT_THROW(engine.LoadIndexes(in), std::runtime_error) << len;
    }
  }
}

TEST(EngineTest, LoadIndexesRejectsMismatch) {
  auto inst = testing::MakeRandomInstance(40, 200, 3, 92);
  KosrEngine built(inst.graph, inst.categories);
  built.BuildIndexes();
  std::stringstream snapshot;
  built.SaveIndexes(snapshot);

  auto other = testing::MakeRandomInstance(50, 250, 3, 93);
  KosrEngine wrong(other.graph, other.categories);
  EXPECT_THROW(wrong.LoadIndexes(snapshot), std::runtime_error);

  KosrEngine unbuilt(inst.graph, inst.categories);
  std::stringstream empty;
  EXPECT_THROW(unbuilt.SaveIndexes(empty), std::logic_error);
}

TEST(EngineDynamicTest, CategoryAddChangesAnswers) {
  Figure1 fig = MakeFigure1();
  KosrEngine engine(fig.graph, fig.categories);
  engine.BuildIndexes();
  // Initially the best <RE> route s->b->t costs 13 + 7 = 20.
  KosrQuery query{Figure1::s, Figure1::t, {Figure1::RE}, 1};
  EXPECT_EQ(engine.Query(query).routes[0].cost, 20);
  // Promote a (dis(s,a)=8, dis(a,t)=12) into RE: cost still 20.
  engine.AddVertexCategory(Figure1::a, Figure1::RE);
  EXPECT_EQ(engine.Query(query).routes[0].cost, 20);
  // Promote d (13 + 4 = 17): better.
  engine.AddVertexCategory(Figure1::d, Figure1::RE);
  EXPECT_EQ(engine.Query(query).routes[0].cost, 17);
  // Remove d again.
  engine.RemoveVertexCategory(Figure1::d, Figure1::RE);
  EXPECT_EQ(engine.Query(query).routes[0].cost, 20);
}

TEST(EngineDynamicTest, CategoryUpdatesMatchRebuiltEngine) {
  auto inst = testing::MakeRandomInstance(40, 200, 3, 67);
  KosrEngine dynamic(inst.graph, inst.categories);
  dynamic.BuildIndexes();
  // Apply a batch of category mutations dynamically.
  std::vector<std::pair<VertexId, CategoryId>> added = {
      {5, 1}, {6, 1}, {7, 2}, {8, 0}};
  for (auto [v, c] : added) dynamic.AddVertexCategory(v, c);
  dynamic.RemoveVertexCategory(added[0].first, added[0].second);

  // Rebuild a fresh engine with the same final table.
  KosrEngine fresh(dynamic.graph(), dynamic.categories());
  fresh.BuildIndexes();

  KosrQuery query{0, 39, {0, 1, 2}, 4};
  auto a = dynamic.Query(query);
  auto b = fresh.Query(query);
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (size_t i = 0; i < a.routes.size(); ++i) {
    EXPECT_EQ(a.routes[i].cost, b.routes[i].cost);
  }
}

TEST(EngineDynamicTest, EdgeDecreaseMatchesRebuiltEngine) {
  auto inst = testing::MakeRandomInstance(35, 160, 3, 68);
  KosrEngine dynamic(inst.graph, inst.categories);
  dynamic.BuildIndexes();
  dynamic.AddOrDecreaseEdge(2, 31, 1);
  dynamic.AddOrDecreaseEdge(17, 4, 2);

  KosrEngine fresh(dynamic.graph(), dynamic.categories());
  fresh.BuildIndexes();
  KosrQuery query{0, 34, {0, 1}, 3};
  auto a = dynamic.Query(query);
  auto b = fresh.Query(query);
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (size_t i = 0; i < a.routes.size(); ++i) {
    EXPECT_EQ(a.routes[i].cost, b.routes[i].cost);
  }
}

// An engine built on several threads repairs on as many, and every update
// kind leaves indexes byte-identical to a 1-thread engine's.
TEST(EngineDynamicTest, ThreadedRepairMatchesSequentialEngine) {
  auto inst = testing::MakeRandomInstance(60, 240, 3, 69);
  KosrEngine sequential(inst.graph, inst.categories);
  sequential.BuildIndexes(1);
  KosrEngine threaded(inst.graph, inst.categories);
  threaded.BuildIndexes(testing::TestThreads());
  EXPECT_EQ(sequential.repair_threads(), 1u);
  EXPECT_EQ(threaded.repair_threads(), testing::TestThreads());
  auto [u, v, w] = inst.graph.ToEdges().front();
  for (KosrEngine* engine : {&sequential, &threaded}) {
    engine->SetEdgeWeight(u, v, w + 30);
    EXPECT_TRUE(engine->AddOrDecreaseEdge(2, 51, 1).labels_changed);
    engine->RemoveEdge(u, v);
  }
  auto bytes = [](const KosrEngine& engine) {
    std::stringstream out;
    engine.SaveIndexes(out);
    return out.str();
  };
  EXPECT_TRUE(bytes(threaded) == bytes(sequential));
}

}  // namespace
}  // namespace kosr
