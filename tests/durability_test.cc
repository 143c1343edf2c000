// Unit tests for the ISSUE 9 durability subsystem: CRC32C, the durable-file
// primitives, the write-ahead journal (round trip, torn tail, interior
// corruption), checkpoints (round trip, validation, fallback), recovery
// replay equivalence, and the failpoint registry.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/durability/checkpoint.h"
#include "src/durability/crc32c.h"
#include "src/durability/journal.h"
#include "src/durability/recovery.h"
#include "src/util/durable_file.h"
#include "src/util/failpoint.h"
#include "tests/test_util.h"

namespace kosr {
namespace {

namespace fs = std::filesystem;
using durability::FsyncPolicy;
using durability::JournalRecord;
using durability::JournalScan;
using durability::UpdateJournal;

/// A scratch directory removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("kosr_durability_" + tag + "_" +
                std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string IndexBytes(const KosrEngine& engine) {
  std::ostringstream os;
  engine.SaveIndexes(os);
  return os.str();
}

// ---------------------------------------------------------------------------
// CRC32C

TEST(Crc32cTest, KnownVectors) {
  // The CRC-32C (Castagnoli) check value for "123456789" — RFC 3720 App. B.
  EXPECT_EQ(durability::Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(durability::Crc32c("", 0), 0u);
  // 32 zero bytes, per the iSCSI test vectors.
  std::string zeros(32, '\0');
  EXPECT_EQ(durability::Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, ChainingMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t one_shot = durability::Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t first = durability::Crc32c(data.data(), split);
    uint32_t chained =
        durability::Crc32c(data.data() + split, data.size() - split, first);
    EXPECT_EQ(chained, one_shot) << "split at " << split;
  }
}

// ---------------------------------------------------------------------------
// AtomicFileWriter

TEST(AtomicFileWriterTest, CommitPublishesAtomically) {
  ScratchDir dir("afw");
  std::string path = dir.path() + "/file.bin";
  WriteFile(path, "old contents");
  {
    AtomicFileWriter writer(path);
    writer.stream() << "new contents";
    // Not yet committed: the old file is untouched.
    EXPECT_EQ(ReadFile(path), "old contents");
    writer.Commit();
  }
  EXPECT_EQ(ReadFile(path), "new contents");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(AtomicFileWriterTest, UncommittedWriterLeavesTargetAlone) {
  ScratchDir dir("afw2");
  std::string path = dir.path() + "/file.bin";
  WriteFile(path, "old contents");
  {
    AtomicFileWriter writer(path);
    writer.stream() << "half-written garbage";
    // Destructor without Commit: discard.
  }
  EXPECT_EQ(ReadFile(path), "old contents");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// ---------------------------------------------------------------------------
// UpdateJournal

JournalRecord EdgeRec(JournalRecord::Type type, uint32_t a, uint32_t b,
                      uint32_t w) {
  JournalRecord r;
  r.type = type;
  r.a = a;
  r.b = b;
  r.w = w;
  return r;
}

TEST(JournalTest, RoundTripAndContiguousSequences) {
  ScratchDir dir("journal_rt");
  {
    UpdateJournal journal(dir.path(), FsyncPolicy::kNever, 0, 0);
    EXPECT_EQ(journal.Append(EdgeRec(JournalRecord::Type::kSetEdge, 1, 2, 3)),
              1u);
    EXPECT_EQ(
        journal.Append(EdgeRec(JournalRecord::Type::kRemoveEdge, 4, 5, 0)),
        2u);
    EXPECT_EQ(
        journal.Append(EdgeRec(JournalRecord::Type::kAddCategory, 6, 7, 0)),
        3u);
    EXPECT_EQ(journal.last_sequence(), 3u);
    EXPECT_EQ(journal.appends(), 3u);
  }
  JournalScan scan = UpdateJournal::Scan(UpdateJournal::PathFor(dir.path()));
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_FALSE(scan.tail_truncated);
  EXPECT_EQ(scan.records[0].seq, 1u);
  EXPECT_EQ(scan.records[0].type, JournalRecord::Type::kSetEdge);
  EXPECT_EQ(scan.records[0].a, 1u);
  EXPECT_EQ(scan.records[0].b, 2u);
  EXPECT_EQ(scan.records[0].w, 3u);
  EXPECT_EQ(scan.records[1].type, JournalRecord::Type::kRemoveEdge);
  EXPECT_EQ(scan.records[2].seq, 3u);
  EXPECT_EQ(scan.records[2].type, JournalRecord::Type::kAddCategory);

  // Reopen: sequences continue from the last record on disk.
  UpdateJournal journal(dir.path(), FsyncPolicy::kNever, 0, 0);
  EXPECT_EQ(journal.Append(EdgeRec(JournalRecord::Type::kSetEdge, 9, 9, 9)),
            4u);
}

TEST(JournalTest, BaseSeqFloorsTheSequenceCounter) {
  ScratchDir dir("journal_base");
  UpdateJournal journal(dir.path(), FsyncPolicy::kNever, 0, 41);
  EXPECT_EQ(journal.Append(EdgeRec(JournalRecord::Type::kSetEdge, 0, 1, 2)),
            42u);
}

TEST(JournalTest, MissingFileScansEmpty) {
  ScratchDir dir("journal_missing");
  JournalScan scan = UpdateJournal::Scan(dir.path() + "/journal.log");
  EXPECT_TRUE(scan.records.empty());
  EXPECT_FALSE(scan.tail_truncated);
}

TEST(JournalTest, TornTailIsTruncatedOnOpen) {
  ScratchDir dir("journal_torn");
  std::string path = UpdateJournal::PathFor(dir.path());
  {
    UpdateJournal journal(dir.path(), FsyncPolicy::kNever, 0, 0);
    journal.Append(EdgeRec(JournalRecord::Type::kSetEdge, 1, 1, 1));
    journal.Append(EdgeRec(JournalRecord::Type::kSetEdge, 2, 2, 2));
  }
  std::string bytes = ReadFile(path);
  // Chop the final record mid-body: crash between the two write pages.
  WriteFile(path, bytes.substr(0, bytes.size() - 5));
  JournalScan scan = UpdateJournal::Scan(path);
  EXPECT_TRUE(scan.tail_truncated);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].seq, 1u);

  // Opening repairs the file in place and appends continue after seq 1.
  UpdateJournal journal(dir.path(), FsyncPolicy::kNever, 0, 0);
  EXPECT_EQ(journal.Append(EdgeRec(JournalRecord::Type::kSetEdge, 3, 3, 3)),
            2u);
  JournalScan rescan = UpdateJournal::Scan(path);
  EXPECT_FALSE(rescan.tail_truncated);
  ASSERT_EQ(rescan.records.size(), 2u);
  EXPECT_EQ(rescan.records[1].a, 3u);
}

TEST(JournalTest, CorruptFinalRecordCountsAsTornTail) {
  // The very last complete frame failing its CRC is indistinguishable from
  // a torn write (length page persisted, body page lost) — tolerated.
  ScratchDir dir("journal_lastcrc");
  std::string path = UpdateJournal::PathFor(dir.path());
  {
    UpdateJournal journal(dir.path(), FsyncPolicy::kNever, 0, 0);
    journal.Append(EdgeRec(JournalRecord::Type::kSetEdge, 1, 1, 1));
    journal.Append(EdgeRec(JournalRecord::Type::kSetEdge, 2, 2, 2));
  }
  std::string bytes = ReadFile(path);
  bytes.back() ^= 0x01;  // Flip a bit in the FINAL record's body.
  WriteFile(path, bytes);
  JournalScan scan = UpdateJournal::Scan(path);
  EXPECT_TRUE(scan.tail_truncated);
  EXPECT_EQ(scan.records.size(), 1u);
}

TEST(JournalTest, InteriorBitFlipRefusesToOpen) {
  ScratchDir dir("journal_flip");
  std::string path = UpdateJournal::PathFor(dir.path());
  {
    UpdateJournal journal(dir.path(), FsyncPolicy::kNever, 0, 0);
    journal.Append(EdgeRec(JournalRecord::Type::kSetEdge, 1, 1, 1));
    journal.Append(EdgeRec(JournalRecord::Type::kSetEdge, 2, 2, 2));
  }
  std::string bytes = ReadFile(path);
  // Flip a bit inside the FIRST record's body (header is 8 bytes, frame
  // header 8 more; byte 20 is mid-body) — corruption with valid data after
  // it, which replay must refuse rather than skip.
  bytes[20] ^= 0x40;
  WriteFile(path, bytes);
  EXPECT_THROW(UpdateJournal::Scan(path), std::runtime_error);
  EXPECT_THROW(UpdateJournal(dir.path(), FsyncPolicy::kNever, 0, 0),
               std::runtime_error);
}

TEST(JournalTest, BadMagicRefusesToOpen) {
  ScratchDir dir("journal_magic");
  std::string path = UpdateJournal::PathFor(dir.path());
  WriteFile(path, "NOTAWAL1 some bytes beyond the header");
  EXPECT_THROW(UpdateJournal::Scan(path), std::runtime_error);
}

TEST(JournalTest, TruncateThroughKeepsNewerRecords) {
  ScratchDir dir("journal_trunc");
  UpdateJournal journal(dir.path(), FsyncPolicy::kNever, 0, 0);
  for (uint32_t i = 1; i <= 5; ++i) {
    journal.Append(EdgeRec(JournalRecord::Type::kSetEdge, i, i, i));
  }
  journal.TruncateThrough(3);
  EXPECT_EQ(journal.truncations(), 1u);
  JournalScan scan = UpdateJournal::Scan(journal.path());
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].seq, 4u);
  EXPECT_EQ(scan.records[1].seq, 5u);
  // Sequences keep counting from the pre-truncation high-water mark.
  EXPECT_EQ(journal.Append(EdgeRec(JournalRecord::Type::kSetEdge, 6, 6, 6)),
            6u);
}

TEST(JournalTest, SyncHonorsPolicy) {
  ScratchDir dir("journal_sync");
  {
    UpdateJournal journal(dir.path(), FsyncPolicy::kAlways, 0, 0);
    journal.Append(EdgeRec(JournalRecord::Type::kSetEdge, 1, 1, 1));
    journal.SyncIfAlways();
    EXPECT_GE(journal.fsyncs(), 1u);
    // Clean (not dirty): a second SyncIfAlways is a no-op.
    uint64_t before = journal.fsyncs();
    journal.SyncIfAlways();
    EXPECT_EQ(journal.fsyncs(), before);
  }
  UpdateJournal never(dir.path(), FsyncPolicy::kNever, 0, 0);
  never.Append(EdgeRec(JournalRecord::Type::kSetEdge, 2, 2, 2));
  never.SyncIfAlways();
  EXPECT_EQ(never.fsyncs(), 0u);
}

// ---------------------------------------------------------------------------
// Checkpoints

TEST(CheckpointTest, RoundTripRestoresEngineByteIdentically) {
  ScratchDir dir("ckpt_rt");
  auto inst = testing::MakeRandomInstance(60, 240, 4, 11);
  KosrEngine engine(inst.graph, inst.categories);
  engine.BuildIndexes();
  std::string want = IndexBytes(engine);

  durability::WriteCheckpoint(dir.path(), engine, 17);
  auto loaded = durability::LoadCheckpoint(dir.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seq, 17u);
  EXPECT_EQ(IndexBytes(*loaded->engine), want);
  EXPECT_EQ(loaded->engine->graph().num_vertices(),
            engine.graph().num_vertices());
}

TEST(CheckpointTest, MissingDirectoryIsColdStart) {
  ScratchDir dir("ckpt_cold");
  EXPECT_FALSE(durability::LoadCheckpoint(dir.path()).has_value());
}

TEST(CheckpointTest, CorruptIndexBytesRefuseToLoad) {
  ScratchDir dir("ckpt_flip");
  auto inst = testing::MakeRandomInstance(40, 160, 3, 5);
  KosrEngine engine(inst.graph, inst.categories);
  engine.BuildIndexes();
  durability::WriteCheckpoint(dir.path(), engine, 1);

  std::string index_path = dir.path() + "/checkpoint/indexes.bin";
  std::string bytes = ReadFile(index_path);
  bytes[bytes.size() / 2] ^= 0x10;
  WriteFile(index_path, bytes);
  EXPECT_THROW(durability::LoadCheckpoint(dir.path()), std::runtime_error);
}

TEST(CheckpointTest, TruncatedFileRefusesToLoad) {
  ScratchDir dir("ckpt_trunc");
  auto inst = testing::MakeRandomInstance(40, 160, 3, 6);
  KosrEngine engine(inst.graph, inst.categories);
  engine.BuildIndexes();
  durability::WriteCheckpoint(dir.path(), engine, 1);

  std::string graph_path = dir.path() + "/checkpoint/graph.gr";
  std::string bytes = ReadFile(graph_path);
  WriteFile(graph_path, bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(durability::LoadCheckpoint(dir.path()), std::runtime_error);
}

TEST(CheckpointTest, MissingManifestRefusesToLoad) {
  ScratchDir dir("ckpt_nomanifest");
  auto inst = testing::MakeRandomInstance(40, 160, 3, 7);
  KosrEngine engine(inst.graph, inst.categories);
  engine.BuildIndexes();
  durability::WriteCheckpoint(dir.path(), engine, 1);
  fs::remove(dir.path() + "/checkpoint/MANIFEST");
  EXPECT_THROW(durability::LoadCheckpoint(dir.path()), std::runtime_error);
}

TEST(CheckpointTest, FallsBackToParkedCheckpoint) {
  // A crash between parking checkpoint/ at checkpoint.old/ and renaming the
  // temp dir into place leaves only the parked copy — it must load.
  ScratchDir dir("ckpt_old");
  auto inst = testing::MakeRandomInstance(40, 160, 3, 8);
  KosrEngine engine(inst.graph, inst.categories);
  engine.BuildIndexes();
  durability::WriteCheckpoint(dir.path(), engine, 9);
  fs::rename(dir.path() + "/checkpoint", dir.path() + "/checkpoint.old");
  auto loaded = durability::LoadCheckpoint(dir.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seq, 9u);
}

TEST(CheckpointTest, SecondCheckpointReplacesFirst) {
  ScratchDir dir("ckpt_twice");
  auto inst = testing::MakeRandomInstance(40, 160, 3, 9);
  KosrEngine engine(inst.graph, inst.categories);
  engine.BuildIndexes();
  durability::WriteCheckpoint(dir.path(), engine, 1);

  EdgeUpdate update{EdgeUpdate::Kind::kSet, 0, 1, 5};
  engine.ApplyEdgeUpdates({&update, 1});
  durability::WriteCheckpoint(dir.path(), engine, 2);

  auto loaded = durability::LoadCheckpoint(dir.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seq, 2u);
  EXPECT_EQ(IndexBytes(*loaded->engine), IndexBytes(engine));
  EXPECT_FALSE(fs::exists(dir.path() + "/checkpoint.old"));
  EXPECT_FALSE(fs::exists(dir.path() + "/checkpoint.tmp"));
}

// ---------------------------------------------------------------------------
// Recovery

TEST(RecoveryTest, ReplayMatchesLiveApplicationByteForByte) {
  ScratchDir dir("recover_replay");
  auto inst = testing::MakeRandomInstance(60, 240, 4, 21);

  // Live engine: apply updates directly.
  KosrEngine live(inst.graph, inst.categories);
  live.BuildIndexes();
  std::vector<EdgeUpdate> updates = {
      {EdgeUpdate::Kind::kAddOrDecrease, 3, 40, 2},
      {EdgeUpdate::Kind::kSet, 10, 20, 7},
      {EdgeUpdate::Kind::kRemove, 5, 6, 0},
  };
  live.ApplyEdgeUpdates(updates);
  live.AddVertexCategory(12, 1);
  live.RemoveVertexCategory(12, 1);

  // Journal the same mutations (no checkpoint: cold start + full replay).
  {
    UpdateJournal journal(dir.path(), FsyncPolicy::kNever, 0, 0);
    journal.Append(EdgeRec(JournalRecord::Type::kAddOrDecreaseEdge, 3, 40, 2));
    journal.Append(EdgeRec(JournalRecord::Type::kSetEdge, 10, 20, 7));
    journal.Append(EdgeRec(JournalRecord::Type::kRemoveEdge, 5, 6, 0));
    journal.Append(EdgeRec(JournalRecord::Type::kAddCategory, 12, 1, 0));
    journal.Append(EdgeRec(JournalRecord::Type::kRemoveCategory, 12, 1, 0));
  }

  durability::RecoveryOptions options;
  options.dir = dir.path();
  options.fsync_policy = FsyncPolicy::kNever;
  bool seeded = false;
  auto recovered = durability::Recover(options, [&] {
    seeded = true;
    auto engine = std::make_unique<KosrEngine>(inst.graph, inst.categories);
    engine->BuildIndexes();
    return engine;
  });
  EXPECT_TRUE(seeded);
  EXPECT_FALSE(recovered.stats.checkpoint_loaded);
  EXPECT_EQ(recovered.stats.replayed_records, 5u);
  EXPECT_EQ(recovered.journal->last_sequence(), 5u);
  EXPECT_EQ(IndexBytes(*recovered.engine), IndexBytes(live));
}

TEST(RecoveryTest, CheckpointSkipsSeedAndReplaysOnlyNewerRecords) {
  ScratchDir dir("recover_ckpt");
  auto inst = testing::MakeRandomInstance(60, 240, 4, 22);
  KosrEngine live(inst.graph, inst.categories);
  live.BuildIndexes();

  // Records 1-2 are folded into the checkpoint; 3 is journal-only. Record 2
  // also stays in the journal (crash before truncation): replay must skip
  // it, not double-apply.
  std::vector<EdgeUpdate> first = {{EdgeUpdate::Kind::kSet, 1, 2, 9},
                                   {EdgeUpdate::Kind::kSet, 3, 4, 9}};
  live.ApplyEdgeUpdates(first);
  durability::WriteCheckpoint(dir.path(), live, 2);
  {
    UpdateJournal journal(dir.path(), FsyncPolicy::kNever, 0, 1);
    journal.Append(EdgeRec(JournalRecord::Type::kSetEdge, 3, 4, 9));   // seq 2
    journal.Append(EdgeRec(JournalRecord::Type::kSetEdge, 7, 8, 11));  // seq 3
  }
  EdgeUpdate third{EdgeUpdate::Kind::kSet, 7, 8, 11};
  live.ApplyEdgeUpdates({&third, 1});

  // The replay repairs on several threads; the live engine repaired on one.
  durability::RecoveryOptions options;
  options.dir = dir.path();
  options.fsync_policy = FsyncPolicy::kNever;
  options.num_threads = testing::TestThreads();
  auto recovered = durability::Recover(options, [&]() ->
                                       std::unique_ptr<KosrEngine> {
    ADD_FAILURE() << "seed_engine must not run when a checkpoint exists";
    return nullptr;
  });
  EXPECT_TRUE(recovered.stats.checkpoint_loaded);
  EXPECT_EQ(recovered.stats.checkpoint_seq, 2u);
  EXPECT_EQ(recovered.stats.skipped_records, 1u);
  EXPECT_EQ(recovered.stats.replayed_records, 1u);
  EXPECT_EQ(recovered.engine->repair_threads(), testing::TestThreads());
  EXPECT_EQ(IndexBytes(*recovered.engine), IndexBytes(live));
}

TEST(RecoveryTest, SequenceGapAfterCheckpointRefuses) {
  ScratchDir dir("recover_gap");
  auto inst = testing::MakeRandomInstance(40, 160, 3, 23);
  KosrEngine engine(inst.graph, inst.categories);
  engine.BuildIndexes();
  durability::WriteCheckpoint(dir.path(), engine, 2);
  {
    // First journal record is seq 4: record 3 is missing — refusing beats
    // silently skipping an acked update.
    UpdateJournal journal(dir.path(), FsyncPolicy::kNever, 0, 3);
    journal.Append(EdgeRec(JournalRecord::Type::kSetEdge, 1, 2, 3));
  }
  durability::RecoveryOptions options;
  options.dir = dir.path();
  options.fsync_policy = FsyncPolicy::kNever;
  EXPECT_THROW(durability::Recover(
                   options, [&]() -> std::unique_ptr<KosrEngine> {
                     return nullptr;
                   }),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Failpoints

TEST(FailpointTest, UnarmedPointIsANoOp) {
  failpoint::DisarmAll();
  KOSR_FAILPOINT("durability-test-point");
  EXPECT_EQ(failpoint::HitCount("durability-test-point"), 0u);
}

TEST(FailpointTest, ErrorActionThrowsAndCounts) {
  failpoint::Arm("durability-test-point", failpoint::Action::kError);
  EXPECT_THROW(KOSR_FAILPOINT("durability-test-point"), std::runtime_error);
  EXPECT_THROW(KOSR_FAILPOINT("durability-test-point"), std::runtime_error);
  EXPECT_EQ(failpoint::HitCount("durability-test-point"), 2u);
  // Other points stay unarmed.
  KOSR_FAILPOINT("durability-other-point");
  failpoint::DisarmAll();
  KOSR_FAILPOINT("durability-test-point");
  EXPECT_EQ(failpoint::HitCount("durability-test-point"), 2u);
}

TEST(FailpointTest, EnvSpecParses) {
  ::setenv("KOSR_FAILPOINTS", "durability-env-point=error", 1);
  failpoint::ReloadFromEnv();
  EXPECT_THROW(KOSR_FAILPOINT("durability-env-point"), std::runtime_error);
  ::setenv("KOSR_FAILPOINTS", "durability-env-point=off", 1);
  failpoint::ReloadFromEnv();
  KOSR_FAILPOINT("durability-env-point");
  ::setenv("KOSR_FAILPOINTS", "bogus-spec-without-equals", 1);
  EXPECT_THROW(failpoint::ReloadFromEnv(), std::invalid_argument);
  ::unsetenv("KOSR_FAILPOINTS");
  failpoint::DisarmAll();
}

TEST(FailpointDeathTest, CrashActionExitsWithCrashCode) {
  EXPECT_EXIT(
      {
        failpoint::Arm("durability-crash-point", failpoint::Action::kCrash);
        KOSR_FAILPOINT("durability-crash-point");
      },
      ::testing::ExitedWithCode(failpoint::kCrashExitCode), "failpoint");
}

// Armed failpoints on the real durability paths fire (the crash-recovery
// harness depends on them); kError is used here so the test process
// survives.
TEST(FailpointTest, JournalAppendFailpointFires) {
  ScratchDir dir("fp_journal");
  UpdateJournal journal(dir.path(), FsyncPolicy::kNever, 0, 0);
  failpoint::Arm(durability::kFailpointAfterAppend, failpoint::Action::kError);
  EXPECT_THROW(
      journal.Append(EdgeRec(JournalRecord::Type::kSetEdge, 1, 2, 3)),
      std::runtime_error);
  failpoint::DisarmAll();
  EXPECT_GE(failpoint::HitCount(durability::kFailpointAfterAppend), 1u);
  // The record was written before the failpoint: it is on disk.
  JournalScan scan = UpdateJournal::Scan(journal.path());
  EXPECT_EQ(scan.records.size(), 1u);
}

TEST(FailpointTest, MidCheckpointFailpointLeavesPreviousCheckpoint) {
  ScratchDir dir("fp_ckpt");
  auto inst = testing::MakeRandomInstance(40, 160, 3, 31);
  KosrEngine engine(inst.graph, inst.categories);
  engine.BuildIndexes();
  durability::WriteCheckpoint(dir.path(), engine, 1);

  failpoint::Arm(durability::kFailpointMidCheckpoint,
                 failpoint::Action::kError);
  EXPECT_THROW(durability::WriteCheckpoint(dir.path(), engine, 2),
               std::runtime_error);
  failpoint::DisarmAll();

  auto loaded = durability::LoadCheckpoint(dir.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seq, 1u);
}

}  // namespace
}  // namespace kosr
