#include "src/durability/recovery.h"

#include <chrono>
#include <stdexcept>
#include <vector>

#include "src/durability/checkpoint.h"

namespace kosr::durability {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

EdgeUpdate::Kind EdgeKindFor(JournalRecord::Type type) {
  switch (type) {
    case JournalRecord::Type::kAddOrDecreaseEdge:
      return EdgeUpdate::Kind::kAddOrDecrease;
    case JournalRecord::Type::kSetEdge:
      return EdgeUpdate::Kind::kSet;
    case JournalRecord::Type::kRemoveEdge:
      return EdgeUpdate::Kind::kRemove;
    default:
      throw std::logic_error("not an edge record");
  }
}

}  // namespace

RecoveredState Recover(
    const RecoveryOptions& options,
    const std::function<std::unique_ptr<KosrEngine>()>& seed_engine) {
  RecoveredState state;

  auto start = std::chrono::steady_clock::now();
  std::optional<LoadedCheckpoint> checkpoint = LoadCheckpoint(options.dir);
  uint64_t base_seq = 0;
  if (checkpoint) {
    state.engine = std::move(checkpoint->engine);
    base_seq = checkpoint->seq;
    state.stats.checkpoint_loaded = true;
    state.stats.checkpoint_seq = base_seq;
  } else {
    state.engine = seed_engine();
  }
  state.engine->set_repair_threads(options.num_threads);
  state.stats.checkpoint_load_s = SecondsSince(start);

  start = std::chrono::steady_clock::now();
  const std::string journal_path = UpdateJournal::PathFor(options.dir);
  JournalScan scan = UpdateJournal::Scan(journal_path);  // throws on
                                                         // corruption
  state.stats.tail_truncated = scan.tail_truncated;

  // Replay in sequence order through the normal repair entry points.
  // Consecutive edge records coalesce into one ApplyEdgeUpdates call (the
  // batched canonical repair — byte-identical to one-at-a-time); category
  // records flush the pending batch first so relative order is preserved.
  std::vector<EdgeUpdate> pending;
  auto flush_pending = [&] {
    if (pending.empty()) return;
    state.engine->ApplyEdgeUpdates(pending);
    pending.clear();
  };
  uint64_t last_seq = base_seq;
  for (const JournalRecord& record : scan.records) {
    if (record.seq <= base_seq) {
      // Checkpointed before the journal was truncated; replay would be
      // redundant (and for SET/REMOVE, harmlessly idempotent anyway).
      ++state.stats.skipped_records;
      continue;
    }
    if (record.seq != last_seq + 1) {
      throw std::runtime_error(
          "journal " + journal_path + ": sequence gap after checkpoint (" +
          std::to_string(last_seq) + " -> " + std::to_string(record.seq) +
          "); updates are missing, refusing to recover");
    }
    last_seq = record.seq;
    switch (record.type) {
      case JournalRecord::Type::kAddOrDecreaseEdge:
      case JournalRecord::Type::kSetEdge:
      case JournalRecord::Type::kRemoveEdge:
        pending.push_back(EdgeUpdate{EdgeKindFor(record.type), record.a,
                                     record.b, record.w});
        break;
      case JournalRecord::Type::kAddCategory:
        flush_pending();
        state.engine->AddVertexCategory(record.a, record.b);
        break;
      case JournalRecord::Type::kRemoveCategory:
        flush_pending();
        state.engine->RemoveVertexCategory(record.a, record.b);
        break;
    }
    ++state.stats.replayed_records;
  }
  flush_pending();
  state.stats.replay_s = SecondsSince(start);

  // Opening the journal truncates the torn tail (if any) on disk and
  // continues sequence numbers after everything replayed.
  state.journal = std::make_unique<UpdateJournal>(
      options.dir, options.fsync_policy, options.fsync_interval_s, last_seq);
  return state;
}

}  // namespace kosr::durability
