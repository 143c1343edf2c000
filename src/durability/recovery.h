#ifndef KOSR_DURABILITY_RECOVERY_H_
#define KOSR_DURABILITY_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/core/engine.h"
#include "src/durability/journal.h"

namespace kosr::durability {

struct RecoveryOptions {
  std::string dir;  ///< The --journal directory.
  FsyncPolicy fsync_policy = FsyncPolicy::kAlways;
  /// Group-commit interval for FsyncPolicy::kInterval.
  double fsync_interval_s = 0.05;
  /// Threads of the replayed label repairs and of every later update's
  /// repair: Recover sets the recovered engine's repair_threads() to it
  /// (0 = hardware concurrency). The result does not depend on it.
  uint32_t num_threads = 1;
};

struct RecoveryStats {
  bool checkpoint_loaded = false;
  uint64_t checkpoint_seq = 0;
  uint64_t replayed_records = 0;
  /// Records skipped because the checkpoint already contained them (a
  /// crash between checkpoint publication and journal truncation).
  uint64_t skipped_records = 0;
  bool tail_truncated = false;
  double checkpoint_load_s = 0;
  double replay_s = 0;
};

struct RecoveredState {
  std::unique_ptr<KosrEngine> engine;  ///< Caught up through the journal.
  std::unique_ptr<UpdateJournal> journal;  ///< Open; sequences continue.
  RecoveryStats stats;
};

/// Brings a serving engine back after a crash or restart (ISSUE 9):
///
///   1. Load the newest complete checkpoint under `options.dir`, if any
///      (a corrupt one throws — see LoadCheckpoint). Without one,
///      `seed_engine` supplies the starting engine (the CLI's normal
///      build-or-load path) at sequence 0.
///   2. Scan the journal, drop a torn tail, and replay every record past
///      the checkpoint sequence through the engine's normal repair entry
///      points (consecutive edge records replay as one batched canonical
///      repair), so recovered labels are byte-identical to having applied
///      the updates live. Interior journal corruption or a sequence gap
///      between checkpoint and journal throws std::runtime_error.
///   3. Open the journal for appending, sequences continuing after the
///      last replayed record.
///
/// `seed_engine` is only invoked when no checkpoint exists, so steady-state
/// restarts skip the expensive index build entirely.
RecoveredState Recover(
    const RecoveryOptions& options,
    const std::function<std::unique_ptr<KosrEngine>()>& seed_engine);

}  // namespace kosr::durability

#endif  // KOSR_DURABILITY_RECOVERY_H_
