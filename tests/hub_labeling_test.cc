#include "src/labeling/hub_labeling.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/obs/counters.h"
#include "tests/test_util.h"

namespace kosr {
namespace {

void ExpectAllPairsMatch(const Graph& graph, const HubLabeling& hl) {
  for (VertexId s = 0; s < graph.num_vertices(); ++s) {
    auto dist = DijkstraAllDistances(graph, s);
    for (VertexId t = 0; t < graph.num_vertices(); ++t) {
      EXPECT_EQ(hl.Query(s, t), dist[t]) << "s=" << s << " t=" << t;
    }
  }
}

TEST(HubLabelingTest, Figure1AllPairs) {
  Figure1 fig = MakeFigure1();
  HubLabeling hl;
  hl.Build(fig.graph);
  ExpectAllPairsMatch(fig.graph, hl);
}

TEST(HubLabelingTest, RandomGraphsAllPairs) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Graph g = MakeRandomGraph(60, 240, seed);
    HubLabeling hl;
    hl.Build(g);
    ExpectAllPairsMatch(g, hl);
  }
}

TEST(HubLabelingTest, GridAllPairsSample) {
  Graph g = MakeGridRoadNetwork(9, 9, /*seed=*/17);
  HubLabeling hl;
  hl.Build(g);
  for (VertexId s = 0; s < g.num_vertices(); s += 7) {
    auto dist = DijkstraAllDistances(g, s);
    for (VertexId t = 0; t < g.num_vertices(); t += 3) {
      EXPECT_EQ(hl.Query(s, t), dist[t]);
    }
  }
}

TEST(HubLabelingTest, SelfDistanceIsZero) {
  Graph g = MakeRandomGraph(30, 100, 9);
  HubLabeling hl;
  hl.Build(g);
  for (VertexId v = 0; v < 30; ++v) EXPECT_EQ(hl.Query(v, v), 0);
}

TEST(HubLabelingTest, UnreachableIsInf) {
  Graph g = Graph::FromEdges(4, {{0, 1, 1}, {2, 3, 1}});
  HubLabeling hl;
  hl.Build(g);
  EXPECT_EQ(hl.Query(0, 2), kInfCost);
  EXPECT_EQ(hl.Query(1, 3), kInfCost);
  EXPECT_EQ(hl.Query(0, 1), 1);
}

TEST(HubLabelingTest, UnpackPathIsValidShortestPath) {
  for (uint64_t seed : {11u, 12u}) {
    Graph g = MakeRandomGraph(50, 220, seed);
    HubLabeling hl;
    hl.Build(g);
    for (VertexId s = 0; s < 50; s += 5) {
      auto dist = DijkstraAllDistances(g, s);
      for (VertexId t = 0; t < 50; t += 3) {
        auto path = hl.UnpackPath(s, t);
        if (dist[t] == kInfCost) {
          EXPECT_TRUE(path.empty());
          continue;
        }
        ASSERT_FALSE(path.empty());
        EXPECT_EQ(path.front(), s);
        EXPECT_EQ(path.back(), t);
        Cost total = 0;
        for (size_t i = 0; i + 1 < path.size(); ++i) {
          Cost w = g.ArcWeight(path[i], path[i + 1]);
          ASSERT_LT(w, kInfCost)
              << "missing arc " << path[i] << "->" << path[i + 1];
          total += w;
        }
        EXPECT_EQ(total, dist[t]);
      }
    }
  }
}

TEST(HubLabelingTest, UnpackPathSelf) {
  Graph g = MakeRandomGraph(10, 30, 1);
  HubLabeling hl;
  hl.Build(g);
  EXPECT_EQ(hl.UnpackPath(4, 4), std::vector<VertexId>{4});
}

TEST(HubLabelingTest, SerializeRoundTrip) {
  Graph g = MakeRandomGraph(40, 160, 21);
  HubLabeling hl;
  hl.Build(g);
  std::stringstream buffer;
  hl.Serialize(buffer);
  HubLabeling copy = HubLabeling::Deserialize(buffer);
  EXPECT_EQ(copy.num_vertices(), hl.num_vertices());
  for (VertexId s = 0; s < 40; s += 3) {
    for (VertexId t = 0; t < 40; t += 2) {
      EXPECT_EQ(copy.Query(s, t), hl.Query(s, t));
    }
  }
}

TEST(HubLabelingTest, DeserializeRejectsGarbage) {
  std::stringstream buffer("not a labeling");
  EXPECT_THROW(HubLabeling::Deserialize(buffer), std::runtime_error);
}

TEST(HubLabelingTest, CustomOrderStillCorrect) {
  Graph g = MakeRandomGraph(40, 150, 33);
  // Worst-case-ish order: identity.
  std::vector<VertexId> order(40);
  for (VertexId v = 0; v < 40; ++v) order[v] = v;
  HubLabeling hl;
  hl.Build(g, order);
  ExpectAllPairsMatch(g, hl);
}

TEST(HubLabelingTest, RejectsBadOrder) {
  Graph g = MakeRandomGraph(10, 20, 1);
  HubLabeling hl;
  EXPECT_THROW(hl.Build(g, std::vector<VertexId>{0, 1}),
               std::invalid_argument);
}

TEST(HubLabelingTest, IntrospectionIsConsistent) {
  Graph g = MakeRandomGraph(50, 200, 2);
  HubLabeling hl;
  hl.Build(g);
  EXPECT_GT(hl.AvgInLabelSize(), 0.0);
  EXPECT_GT(hl.AvgOutLabelSize(), 0.0);
  EXPECT_GT(hl.IndexBytes(), 0u);
  EXPECT_EQ(hl.IndexBytes() % sizeof(LabelEntry), 0u);
  EXPECT_GE(hl.BuildSeconds(), 0.0);
}

TEST(HubLabelingTest, RepairAfterInsertionRepairsDistances) {
  for (uint64_t seed : {5u, 6u, 7u}) {
    Graph g = MakeRandomGraph(40, 140, seed);
    HubLabeling hl;
    hl.Build(g);
    // Insert a cheap new arc and repair incrementally.
    auto edges = g.ToEdges();
    VertexId u = 3, v = 29;
    Weight w = 1;
    edges.emplace_back(u, v, w);
    Graph g2 = Graph::FromEdges(40, edges);
    testing::RepairOneArc(hl, g2, u, v, std::nullopt, w);
    for (VertexId s = 0; s < 40; s += 3) {
      auto dist = DijkstraAllDistances(g2, s);
      for (VertexId t = 0; t < 40; t += 2) {
        EXPECT_EQ(hl.Query(s, t), dist[t])
            << "seed=" << seed << " s=" << s << " t=" << t;
      }
    }
  }
}

// --- Parallel build equivalence --------------------------------------------

// Byte-for-byte equality of every label entry (rank, dist, parent) — the
// parallel build's contract is identical output, not merely equal distances.
void ExpectIdenticalLabels(const HubLabeling& a, const HubLabeling& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  for (uint32_t r = 0; r < a.num_vertices(); ++r) {
    ASSERT_EQ(a.HubVertex(r), b.HubVertex(r)) << "rank " << r;
  }
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    auto ain = a.Lin(v), bin = b.Lin(v);
    ASSERT_EQ(ain.size(), bin.size()) << "Lin(" << v << ")";
    for (size_t i = 0; i < ain.size(); ++i) {
      ASSERT_EQ(ain[i], bin[i]) << "Lin(" << v << ")[" << i << "]";
    }
    auto aout = a.Lout(v), bout = b.Lout(v);
    ASSERT_EQ(aout.size(), bout.size()) << "Lout(" << v << ")";
    for (size_t i = 0; i < aout.size(); ++i) {
      ASSERT_EQ(aout[i], bout[i]) << "Lout(" << v << ")[" << i << "]";
    }
  }
}

TEST(HubLabelingTest, ParallelBuildIsByteIdenticalToSequential) {
  std::vector<Graph> graphs;
  for (uint64_t seed : {1u, 2u, 3u}) {
    graphs.push_back(MakeRandomGraph(60, 240, seed));
  }
  graphs.push_back(MakeGridRoadNetwork(9, 9, /*seed=*/17));
  for (const Graph& g : graphs) {
    HubLabeling sequential;
    sequential.Build(g, /*num_threads=*/1);
    for (uint32_t threads : {2u, 3u, 8u, testing::TestThreads()}) {
      HubLabeling parallel;
      parallel.Build(g, threads);
      ExpectIdenticalLabels(sequential, parallel);
    }
  }
}

TEST(HubLabelingTest, ParallelBuildCustomOrderMatchesAndIsCorrect) {
  Graph g = MakeRandomGraph(50, 200, 33);
  // Worst-case-ish order (identity): batches pack hubs that barely prune
  // each other, the stress case for the commit-phase re-check.
  std::vector<VertexId> order(50);
  for (VertexId v = 0; v < 50; ++v) order[v] = v;
  HubLabeling sequential;
  sequential.Build(g, order, /*num_threads=*/1);
  HubLabeling parallel;
  parallel.Build(g, order, testing::TestThreads());
  ExpectIdenticalLabels(sequential, parallel);
  ExpectAllPairsMatch(g, parallel);
}

// Builds with `order` at 1 thread and at 2, 3, 4 and TestThreads() threads
// and checks every parallel build against the sequential one, entry for
// entry.
void ExpectParallelBuildsMatch(const Graph& g,
                               const std::vector<VertexId>& order) {
  HubLabeling sequential;
  sequential.Build(g, order, /*num_threads=*/1);
  std::vector<uint32_t> counts{2, 3, 4};
  if (testing::TestThreads() > 4) counts.push_back(testing::TestThreads());
  for (uint32_t threads : counts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    HubLabeling parallel;
    parallel.Build(g, order, threads);
    ExpectIdenticalLabels(sequential, parallel);
  }
}

TEST(HubLabelingTest, ParallelBuildDissectionOrderIsByteIdentical) {
  // The production order on a grid with highway chords: the top separator
  // hubs' searches are large and their same-batch entries cover much of
  // each other's candidates.
  Graph g = MakeGridRoadNetwork(32, 32, /*seed=*/23, 10, 100,
                                /*highway_fraction=*/0.01);
  ExpectParallelBuildsMatch(g, GridDissectionOrder(32, 32));
}

TEST(HubLabelingTest, ParallelBuildIdentityOrderIsByteIdentical) {
  // Identity order on a random graph: hubs of one batch barely prune each
  // other, so many full-cap batches put candidates on the batch's own hub
  // vertices, the ones the commit takes first on one thread.
  constexpr uint32_t kN = 1000;
  Graph g = MakeRandomGraph(kN, 2 * kN, /*seed=*/41);
  std::vector<VertexId> order(kN);
  for (VertexId v = 0; v < kN; ++v) order[v] = v;
  ExpectParallelBuildsMatch(g, order);
}

TEST(HubLabelingTest, ParallelBuildCountsEveryThreadsRelaxations) {
  if (!obs::Enabled()) GTEST_SKIP() << "KOSR_OBS_OFF=1 in the environment";
  Graph g = MakeGridRoadNetwork(24, 24, /*seed=*/5);
  std::vector<VertexId> order = GridDissectionOrder(24, 24);
  auto relaxations = [&](uint32_t threads) {
    const auto& slots = obs::TlsCounters();
    uint64_t before = slots.Get(obs::Counter::kPrunedRelaxations);
    HubLabeling hl;
    hl.Build(g, order, threads);
    return slots.Get(obs::Counter::kPrunedRelaxations) - before;
  };
  // A batched search prunes against fewer ranks than the sequential one,
  // so it settles every vertex the sequential search settles, and the
  // calling thread must see at least the sequential count.
  uint64_t sequential = relaxations(1);
  EXPECT_GT(sequential, 0u);
  EXPECT_GE(relaxations(4), sequential);
}

// --- Parallel repair equivalence --------------------------------------------

std::string Serialized(const HubLabeling& hl) {
  std::stringstream out;
  hl.Serialize(out);
  return out.str();
}

uint64_t Researches() {
  return obs::TlsCounters().Get(obs::Counter::kRepairResearches);
}

// Repairs copies of `before` for `requests` (`graph` already carries them)
// at 1, 2, 4 and TestThreads() threads. Every repair must leave labels that
// serialize byte for byte like a 1-thread Build of `graph` with `order`,
// answer every pair like it, and report the 1-thread repair's delta.
// Returns the re-searches of the 1-thread repair (0 with counters off).
uint64_t ExpectParallelRepairsMatch(
    const HubLabeling& before, const Graph& graph,
    const std::vector<VertexId>& order,
    std::span<const HubLabeling::EdgeRepairRequest> requests) {
  HubLabeling rebuilt;
  rebuilt.Build(graph, order, /*num_threads=*/1);
  const std::string want = Serialized(rebuilt);
  HubLabeling sequential = before;
  const uint64_t researches_before = Researches();
  const LabelRepairDelta want_delta =
      sequential.RepairEdgeUpdates(graph, requests, /*num_threads=*/1);
  const uint64_t researches = Researches() - researches_before;
  EXPECT_FALSE(want_delta.Empty());
  EXPECT_TRUE(Serialized(sequential) == want);
  for (uint32_t threads : {2u, 4u, testing::TestThreads()}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    HubLabeling parallel = before;
    const LabelRepairDelta delta =
        parallel.RepairEdgeUpdates(graph, requests, threads);
    EXPECT_TRUE(Serialized(parallel) == want);
    EXPECT_EQ(delta.changed_in, want_delta.changed_in);
    EXPECT_EQ(delta.changed_out, want_delta.changed_out);
    EXPECT_EQ(delta.old_in, want_delta.old_in);
    uint64_t wrong_pairs = 0;
    for (VertexId s = 0; s < graph.num_vertices(); ++s) {
      for (VertexId t = 0; t < graph.num_vertices(); ++t) {
        wrong_pairs += parallel.Query(s, t) != rebuilt.Query(s, t);
      }
    }
    EXPECT_EQ(wrong_pairs, 0u);
  }
  return researches;
}

// One update re-searches a sparse, scattered set of ranks: the batches
// span unaffected ranks, whose entries stay in the vectors around the
// re-searched ones. Increase, decrease and deletion of one arc in the
// middle of a grid, each repaired from the same labels.
TEST(HubLabelingTest, ParallelRepairOfOneUpdateIsByteIdentical) {
  constexpr uint32_t kSide = 16;
  const Graph base = MakeGridRoadNetwork(kSide, kSide, /*seed=*/3);
  const std::vector<VertexId> order = GridDissectionOrder(kSide, kSide);
  HubLabeling before;
  before.Build(base, order, /*num_threads=*/1);
  // An arc that is its endpoints' shortest path, so every kind of change
  // to it changes labels.
  const VertexId u = (kSide / 2) * kSide + kSide / 3;
  VertexId v = kInvalidVertex;
  for (const Arc& a : base.OutArcs(u)) {
    if (before.Query(u, a.head) == a.weight) v = a.head;
  }
  ASSERT_NE(v, kInvalidVertex);
  const Cost w = base.ArcWeight(u, v);
  const uint64_t all = 2 * static_cast<uint64_t>(base.num_vertices());

  Graph raised = base;
  ASSERT_TRUE(raised.SetArcWeight(u, v, static_cast<Weight>(w + 25)));
  const HubLabeling::EdgeRepairRequest increase{u, v, w, std::nullopt};
  uint64_t researches =
      ExpectParallelRepairsMatch(before, raised, order, {&increase, 1});
  if (obs::Enabled()) {
    EXPECT_GT(researches, 0u);
    EXPECT_LT(researches, all / 2);
  }

  Graph lowered = base;
  ASSERT_TRUE(lowered.SetArcWeight(u, v, static_cast<Weight>(w / 2)));
  const HubLabeling::EdgeRepairRequest decrease{u, v, std::nullopt, w / 2};
  researches =
      ExpectParallelRepairsMatch(before, lowered, order, {&decrease, 1});
  if (obs::Enabled()) {
    EXPECT_LT(researches, all / 2);
  }

  Graph removed = base;
  ASSERT_TRUE(removed.RemoveArc(u, v).has_value());
  const HubLabeling::EdgeRepairRequest deletion{u, v, w, std::nullopt};
  researches =
      ExpectParallelRepairsMatch(before, removed, order, {&deletion, 1});
  if (obs::Enabled()) {
    EXPECT_LT(researches, all / 2);
  }
}

// An insertion that joins two components: the vertices of the far side
// hold no entry of any affected hub, so no scrub touched their vectors,
// yet the re-searches label them. The delta must still list them.
TEST(HubLabelingTest, ParallelRepairOfAJoiningInsertionIsByteIdentical) {
  constexpr uint32_t kRows = 8, kCols = 16;
  Graph graph = MakeGridRoadNetwork(kRows, kCols, /*seed=*/9);
  auto left = [&](VertexId x) { return x % kCols < kCols / 2; };
  for (auto [u, v, w] : graph.ToEdges()) {
    if (left(u) != left(v)) graph.RemoveArc(u, v);
  }
  const std::vector<VertexId> order = GridDissectionOrder(kRows, kCols);
  HubLabeling before;
  before.Build(graph, order, /*num_threads=*/1);
  const VertexId u = (kRows / 2) * kCols + kCols / 2 - 1;
  const VertexId v = u + 1;
  ASSERT_EQ(before.Query(u, v), kInfCost);
  ASSERT_TRUE(graph.SetArcWeight(u, v, 10).has_value());
  const HubLabeling::EdgeRepairRequest insertion{u, v, std::nullopt, 10};
  ExpectParallelRepairsMatch(before, graph, order, {&insertion, 1});
}

// The shape of a journal replay: one batch of many updates that affects
// every (rank, direction) pair, so the repair re-searches every rank in
// the batches of a build, starting from fully scrubbed labels. Mixes
// increases, decreases and deletions.
TEST(HubLabelingTest, ParallelRepairOfAReplayBatchIsByteIdentical) {
  constexpr uint32_t kSide = 16;
  const Graph base = MakeGridRoadNetwork(kSide, kSide, /*seed=*/5);
  const std::vector<VertexId> order = GridDissectionOrder(kSide, kSide);
  HubLabeling before;
  before.Build(base, order, /*num_threads=*/1);
  Graph after = base;
  std::mt19937_64 rng(21);
  std::map<std::pair<VertexId, VertexId>, Cost> first_old;
  for (uint32_t i = 0; i < 40; ++i) {
    VertexId u = static_cast<VertexId>(rng() % after.num_vertices());
    auto arcs = after.OutArcs(u);
    if (arcs.empty()) continue;
    const Arc arc = arcs[rng() % arcs.size()];
    first_old.try_emplace({u, arc.head}, after.ArcWeight(u, arc.head));
    if (i % 8 == 0) {
      after.RemoveArc(u, arc.head);
    } else {
      // Alternately raised and lowered by a quarter.
      const Weight w = arc.weight * (i % 2 == 0 ? 5 : 3) / 4;
      after.SetArcWeight(u, arc.head, std::max<Weight>(1, w));
    }
  }
  std::vector<HubLabeling::EdgeRepairRequest> requests;
  bool increased = false, decreased = false, deleted = false;
  for (const auto& [arc, old] : first_old) {
    const Cost now = after.ArcWeight(arc.first, arc.second);
    if (now == old) continue;
    HubLabeling::EdgeRepairRequest request{arc.first, arc.second, {}, {}};
    if (now < old) {
      request.tight_new = now;
      decreased = true;
    } else {
      request.tight_old = old;
      (now == kInfCost ? deleted : increased) = true;
    }
    requests.push_back(request);
  }
  ASSERT_TRUE(increased && decreased && deleted);
  const uint64_t researches =
      ExpectParallelRepairsMatch(before, after, order, requests);
  if (obs::Enabled()) {
    EXPECT_EQ(researches, 2 * static_cast<uint64_t>(base.num_vertices()));
  }
}

TEST(HubLabelingTest, ParallelDegreeOrderMatchesSequential) {
  // ParallelSort must reproduce std::sort exactly (ties broken by id), even
  // on inputs large enough to take the parallel path.
  Graph g = MakeGridRoadNetwork(150, 150, /*seed=*/3);
  std::vector<VertexId> seq = HubLabeling::DegreeOrder(g, 1);
  std::vector<VertexId> par = HubLabeling::DegreeOrder(g, 5);
  EXPECT_EQ(seq, par);
}

TEST(HubLabelingTest, BuildRejectsNonPermutationOrder) {
  Graph g = MakeRandomGraph(10, 20, 1);
  HubLabeling hl;
  std::vector<VertexId> dup(10, 0);
  EXPECT_THROW(hl.Build(g, dup), std::invalid_argument);
  std::vector<VertexId> oob{0, 1, 2, 3, 4, 5, 6, 7, 8, 42};
  EXPECT_THROW(hl.Build(g, oob), std::invalid_argument);
}

// --- Corrupt snapshot rejection --------------------------------------------

// Hand-crafted snapshot bytes (the Serialize wire format): magic, n, order,
// then 2n length-prefixed label vectors. Lets each test corrupt exactly one
// field.
class SnapshotBuilder {
 public:
  SnapshotBuilder& U32(uint32_t v) { return Append(&v, sizeof(v)); }
  SnapshotBuilder& U64(uint64_t v) { return Append(&v, sizeof(v)); }
  SnapshotBuilder& Magic() { return U64(0x4b4f53524c424c31ull); }
  SnapshotBuilder& Entry(uint32_t rank, uint32_t dist, uint32_t parent) {
    return U32(rank).U32(dist).U32(parent);
  }
  std::string str() const { return bytes_; }

 private:
  SnapshotBuilder& Append(const void* p, size_t len) {
    bytes_.append(static_cast<const char*>(p), len);
    return *this;
  }
  std::string bytes_;
};

HubLabeling DeserializeBytes(const std::string& bytes) {
  std::stringstream in(bytes);
  return HubLabeling::Deserialize(in);
}

// n=2 snapshot with one self-entry per vector — the valid base the corrupt
// variants below mutate.
SnapshotBuilder ValidTinySnapshot() {
  SnapshotBuilder b;
  b.Magic().U32(2).U32(0).U32(1);
  for (int vec = 0; vec < 4; ++vec) {
    b.U64(1).Entry(static_cast<uint32_t>(vec % 2), 0, kInvalidVertex);
  }
  return b;
}

TEST(HubLabelingTest, DeserializeAcceptsValidTinySnapshot) {
  HubLabeling hl = DeserializeBytes(ValidTinySnapshot().str());
  EXPECT_EQ(hl.num_vertices(), 2u);
  EXPECT_EQ(hl.Query(0, 0), 0);
}

TEST(HubLabelingTest, DeserializeRejectsTruncation) {
  std::string valid = ValidTinySnapshot().str();
  // Every proper prefix must be rejected, never read out of bounds (ASan
  // guards the buffers) or loop forever.
  for (size_t len = 0; len < valid.size(); len += 3) {
    EXPECT_THROW(DeserializeBytes(valid.substr(0, len)), std::runtime_error)
        << "prefix length " << len;
  }
}

TEST(HubLabelingTest, DeserializeRejectsBadMagic) {
  std::string bytes = ValidTinySnapshot().str();
  bytes[0] ^= 0x5a;
  EXPECT_THROW(DeserializeBytes(bytes), std::runtime_error);
}

TEST(HubLabelingTest, DeserializeRejectsNonPermutationOrder) {
  // Duplicate rank: order = {1, 1}.
  SnapshotBuilder dup;
  dup.Magic().U32(2).U32(1).U32(1);
  EXPECT_THROW(DeserializeBytes(dup.str()), std::runtime_error);
  // Out of range: order = {0, 7} — would write rank_[7] out of bounds.
  SnapshotBuilder oob;
  oob.Magic().U32(2).U32(0).U32(7);
  EXPECT_THROW(DeserializeBytes(oob.str()), std::runtime_error);
}

TEST(HubLabelingTest, DeserializeRejectsOversizedLabelCount) {
  // Claims 2^60 label entries; must throw before allocating, not after.
  SnapshotBuilder b;
  b.Magic().U32(2).U32(0).U32(1).U64(1ull << 60);
  EXPECT_THROW(DeserializeBytes(b.str()), std::runtime_error);
}

TEST(HubLabelingTest, DeserializeRejectsEntryFieldsOutOfRange) {
  // hub_rank >= n.
  SnapshotBuilder bad_rank;
  bad_rank.Magic().U32(2).U32(0).U32(1).U64(1).Entry(9, 0, kInvalidVertex);
  EXPECT_THROW(DeserializeBytes(bad_rank.str()), std::runtime_error);
  // parent >= n (and not the kInvalidVertex sentinel).
  SnapshotBuilder bad_parent;
  bad_parent.Magic().U32(2).U32(0).U32(1).U64(1).Entry(0, 0, 9);
  EXPECT_THROW(DeserializeBytes(bad_parent.str()), std::runtime_error);
  // Duplicate rank within a vector (not strictly sorted).
  SnapshotBuilder bad_sort;
  bad_sort.Magic().U32(2).U32(0).U32(1).U64(2).Entry(0, 0, kInvalidVertex)
      .Entry(0, 1, 1);
  EXPECT_THROW(DeserializeBytes(bad_sort.str()), std::runtime_error);
}

TEST(HubLabelingTest, DeserializeRejectsBrokenParentChains) {
  // Field-wise valid snapshots whose parent pointers cannot be walked: these
  // used to pass validation and then crash (dangling) or hang (cycle)
  // UnpackPath inside a serve worker.
  auto base = [](SnapshotBuilder& b) { b.Magic().U32(2).U32(0).U32(1); };
  {  // Dangling: vertex 1's parent 0 has no Lin entry for hub rank 0.
    SnapshotBuilder b;
    base(b);
    b.U64(0);                                 // Lin(0) empty
    b.U64(1).Entry(0, 3, 0);                  // Lin(1): parent 0, no entry
    b.U64(1).Entry(0, 0, kInvalidVertex);     // Lout(0)
    b.U64(1).Entry(1, 0, kInvalidVertex);     // Lout(1)
    EXPECT_THROW(DeserializeBytes(b.str()), std::runtime_error);
  }
  {  // Non-decreasing chain (the 2-cycle shape): both claim dist 5.
    SnapshotBuilder b;
    base(b);
    b.U64(2).Entry(0, 0, kInvalidVertex).Entry(1, 5, 1);  // Lin(0)
    b.U64(2).Entry(0, 5, 0).Entry(1, 0, kInvalidVertex);  // Lin(1)
    // Lin(0)'s rank-1 entry points at 1 whose rank-1 dist is 0 < 5 (fine),
    // but Lin(1)'s rank-0 entry points at 0 whose rank-0 dist is 0 < 5 too —
    // make it circular instead: 0's rank-1 parent 1 (dist 5) and 1's rank-1
    // is the hub self-entry, so craft the cycle on rank 0 of a 3rd vertex.
    b.U64(1).Entry(0, 0, kInvalidVertex);     // Lout(0)
    b.U64(1).Entry(1, 0, kInvalidVertex);     // Lout(1)
    EXPECT_NO_THROW(DeserializeBytes(b.str()));  // this one is walkable
    SnapshotBuilder cyc;
    cyc.Magic().U32(3).U32(0).U32(1).U32(2);
    cyc.U64(1).Entry(0, 0, kInvalidVertex);          // Lin(0) hub self
    cyc.U64(1).Entry(0, 5, 2);                       // Lin(1) -> 2
    cyc.U64(1).Entry(0, 5, 1);                       // Lin(2) -> 1 (cycle)
    cyc.U64(1).Entry(0, 0, kInvalidVertex);          // Lout(0)
    cyc.U64(1).Entry(1, 0, kInvalidVertex);          // Lout(1)
    cyc.U64(1).Entry(2, 0, kInvalidVertex);          // Lout(2)
    EXPECT_THROW(DeserializeBytes(cyc.str()), std::runtime_error);
  }
  {  // Parentless entry that is not the hub's self-entry.
    SnapshotBuilder b;
    base(b);
    b.U64(1).Entry(0, 0, kInvalidVertex);            // Lin(0)
    b.U64(1).Entry(0, 4, kInvalidVertex);            // Lin(1): not hub 0
    b.U64(1).Entry(0, 0, kInvalidVertex);            // Lout(0)
    b.U64(1).Entry(1, 0, kInvalidVertex);            // Lout(1)
    EXPECT_THROW(DeserializeBytes(b.str()), std::runtime_error);
  }
}

TEST(HubLabelingTest, UnpackPathSurvivesBrokenParentsFromParts) {
  // FromParts intentionally skips the parent-chain closure check (partial
  // disk-resident working sets lack the chain links), so UnpackPath must
  // stay defensive: a broken or circular chain yields an empty path instead
  // of a null dereference or an unbounded walk.
  std::vector<std::vector<LabelEntry>> in(2), out(2);
  out[0] = {{1, 5, 0}};                 // 0's parent toward hub 1 is... 0.
  in[1] = {{1, 0, kInvalidVertex}};     // hub 1 self-entry
  HubLabeling hl = HubLabeling::FromParts({0, 1}, in, out);
  EXPECT_EQ(hl.Query(0, 1), 5);         // the labels still answer queries
  EXPECT_TRUE(hl.UnpackPath(0, 1).empty());
}

TEST(HubLabelingTest, SerializeRoundTripSurvivesValidation) {
  // A real labeling must of course still round-trip through the hardened
  // deserializer, including after a parallel build.
  Graph g = MakeGridRoadNetwork(8, 8, 5);
  HubLabeling hl;
  hl.Build(g, testing::TestThreads());
  std::stringstream buffer;
  hl.Serialize(buffer);
  HubLabeling copy = HubLabeling::Deserialize(buffer);
  ExpectIdenticalLabels(hl, copy);
}

TEST(HubLabelingTest, FromPartsRejectsMalformedInput) {
  std::vector<VertexId> order{0, 1, 2};
  std::vector<std::vector<LabelEntry>> empty3(3);
  // Non-permutation order.
  EXPECT_THROW(HubLabeling::FromParts({0, 0, 2}, empty3, empty3),
               std::runtime_error);
  // Label table sized differently from the order.
  EXPECT_THROW(
      HubLabeling::FromParts(order, empty3,
                             std::vector<std::vector<LabelEntry>>(2)),
      std::runtime_error);
  // Entry with out-of-range rank.
  auto bad = empty3;
  bad[1].push_back({7, 1, kInvalidVertex});
  EXPECT_THROW(HubLabeling::FromParts(order, bad, empty3),
               std::runtime_error);
}

TEST(HubLabelingTest, FromPartsPartialAnswersLoadedPairs) {
  Graph g = MakeRandomGraph(30, 120, 44);
  HubLabeling full;
  full.Build(g);
  std::vector<VertexId> order;
  for (uint32_t r = 0; r < 30; ++r) order.push_back(full.HubVertex(r));
  std::vector<std::vector<LabelEntry>> in(30), out(30);
  // Load only vertex 5's out-label and vertex 9's in-label.
  out[5].assign(full.Lout(5).begin(), full.Lout(5).end());
  in[9].assign(full.Lin(9).begin(), full.Lin(9).end());
  HubLabeling partial = HubLabeling::FromParts(order, in, out);
  EXPECT_EQ(partial.Query(5, 9), full.Query(5, 9));
  EXPECT_EQ(partial.Query(9, 5), kInfCost);  // not loaded
}

}  // namespace
}  // namespace kosr
