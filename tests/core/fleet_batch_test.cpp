// Lockstep batch mode of the fleet (FleetConfig::batch_width).
//
// The contract under test: a fleet running with batch_width = 4 or 8
// emits per-session beat streams byte-identical to the scalar fleet
// (and therefore to a directly-fed StreamingBeatPipeline), whether its
// groups run to a lockstep finish or dissolve mid-stream — on
// migration, when lanes receive mismatched chunk lengths, or when the
// pilot waits on one lane without feeding the others. Sessions that
// don't fill a whole group must silently run scalar.
#include "core/fleet.h"

#include "core/batch.h"
#include "core/beat_serializer.h"
#include "dsp/simd.h"
#include "synth/recording.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace {

using namespace icgkit;
using core::FleetBeat;
using core::FleetConfig;
using core::SessionHandle;
using core::SessionManager;
using core::serialize_beat;

constexpr std::size_t kChunk = 64;

std::vector<synth::Recording> test_workload(std::size_t distinct, double duration_s) {
  synth::RecordingConfig cfg;
  cfg.duration_s = duration_s;
  cfg.session_seed = 21;
  return synth::make_fleet_workload(distinct, cfg);
}

// Feeds `sessions` copies of the workload through a fleet and returns
// each session's serialized beat stream plus its terminal summary (so
// callers can assert the quality aggregate survived batching), and the
// fleet's group dissolve count.
struct FleetRun {
  std::vector<std::vector<unsigned char>> streams;
  std::vector<core::QualitySummary> summaries;
  std::uint64_t dissolves = 0;
};

FleetRun run_fleet(const std::vector<synth::Recording>& workload, std::size_t sessions,
                   std::size_t workers, std::size_t batch_width) {
  FleetConfig cfg;
  cfg.workers = workers;
  cfg.max_chunk = kChunk;
  cfg.batch_width = batch_width;
  SessionManager fleet(workload[0].fs, cfg);
  std::vector<core::SessionHandle> handles;
  handles.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) handles.push_back(fleet.open());
  fleet.start();

  std::vector<FleetBeat> sink;
  sink.reserve(1024);
  const std::size_t n = workload[0].ecg_mv.size();
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t len = std::min(kChunk, n - i);
    for (std::size_t s = 0; s < sessions; ++s) {
      const synth::Recording& rec = workload[s % workload.size()];
      handles[s].push(dsp::SignalView(rec.ecg_mv.data() + i, len),
                      dsp::SignalView(rec.z_ohm.data() + i, len), sink);
    }
  }
  fleet.run_to_completion(sink);

  FleetRun out;
  out.streams.resize(sessions);
  out.summaries.resize(sessions);
  for (const FleetBeat& fb : sink) {
    if (fb.end_of_session) {
      out.summaries[fb.session] = fb.session_summary;
      continue;
    }
    serialize_beat(fb.beat, out.streams[fb.session]);
  }
  for (const core::FleetWorkerStats& w : fleet.worker_stats()) out.dissolves += w.group_dissolves;
  return out;
}

std::vector<std::vector<unsigned char>> streams_of(const std::vector<FleetBeat>& sink,
                                                   std::size_t sessions) {
  std::vector<std::vector<unsigned char>> streams(sessions);
  for (const FleetBeat& fb : sink)
    if (!fb.end_of_session) serialize_beat(fb.beat, streams[fb.session]);
  return streams;
}

std::uint64_t dissolves_of(const SessionManager& fleet) {
  std::uint64_t n = 0;
  for (const core::FleetWorkerStats& w : fleet.worker_stats()) n += w.group_dissolves;
  return n;
}

void expect_same_summary(const core::QualitySummary& a, const core::QualitySummary& b,
                         std::size_t s) {
  EXPECT_EQ(a.beats, b.beats) << "session " << s;
  EXPECT_EQ(a.usable, b.usable) << "session " << s;
  for (std::size_t f = 0; f < std::size(a.flaw_counts); ++f)
    EXPECT_EQ(a.flaw_counts[f], b.flaw_counts[f]) << "session " << s << " flaw " << f;
  EXPECT_EQ(a.ecg_dropouts, b.ecg_dropouts) << "session " << s;
  EXPECT_EQ(a.z_dropouts, b.z_dropouts) << "session " << s;
  EXPECT_EQ(a.detector_resets, b.detector_resets) << "session " << s;
  EXPECT_EQ(a.ensemble_folds_skipped, b.ensemble_folds_skipped) << "session " << s;
  EXPECT_EQ(a.snr_beats, b.snr_beats) << "session " << s;
  EXPECT_EQ(a.sum_snr_db, b.sum_snr_db) << "session " << s;
  EXPECT_EQ(a.min_snr_db, b.min_snr_db) << "session " << s;
}

void expect_same_run(const FleetRun& scalar, const FleetRun& batched) {
  ASSERT_EQ(scalar.streams.size(), batched.streams.size());
  for (std::size_t s = 0; s < scalar.streams.size(); ++s) {
    EXPECT_FALSE(scalar.streams[s].empty()) << "session " << s << " produced no beats";
    EXPECT_EQ(scalar.streams[s], batched.streams[s])
        << "session " << s << ": scalar vs batched fleet mismatch";
    EXPECT_EQ(scalar.summaries[s].beats, batched.summaries[s].beats)
        << "session " << s << ": quality summary diverged";
  }
}

TEST(FleetBatchTest, WidthFourMatchesScalarFleet) {
  const auto workload = test_workload(3, 8.0);
  constexpr std::size_t kSessions = 8;
  expect_same_run(run_fleet(workload, kSessions, 2, /*batch_width=*/1),
                  run_fleet(workload, kSessions, 2, /*batch_width=*/4));
}

TEST(FleetBatchTest, WidthEightMatchesScalarFleet) {
  const auto workload = test_workload(2, 8.0);
  constexpr std::size_t kSessions = 8;
  expect_same_run(run_fleet(workload, kSessions, 1, /*batch_width=*/1),
                  run_fleet(workload, kSessions, 1, /*batch_width=*/8));
}

// Equal chunks and a finish on every session: each group runs from its
// first chunk to a lockstep finish without ever dissolving, and every
// terminal QualitySummary equals the scalar fleet's.
TEST(FleetBatchTest, LockstepFinishNeedsNoDissolve) {
  const auto workload = test_workload(3, 8.0);
  constexpr std::size_t kSessions = 16;  // one group of 8 per worker
  const FleetRun scalar = run_fleet(workload, kSessions, 2, /*batch_width=*/1);
  const FleetRun batched = run_fleet(workload, kSessions, 2, /*batch_width=*/8);
  expect_same_run(scalar, batched);
  EXPECT_EQ(batched.dissolves, 0u) << "a group dissolved although every lane stayed in step";
  for (std::size_t s = 0; s < kSessions; ++s)
    expect_same_summary(batched.summaries[s], scalar.summaries[s], s);
}

// A blocking push that runs one lane chunk_slots_per_session chunks
// ahead of its group fills that session's window with held chunks. The
// push must not deadlock: once the pilot stalls, the group dissolves and
// the lane runs on, scalar and byte-identical.
TEST(FleetBatchTest, BlockingPushAheadOfTheGroupCompletes) {
  const auto workload = test_workload(2, 6.0);
  constexpr std::size_t kSessions = 8;
  const FleetRun scalar = run_fleet(workload, kSessions, 1, /*batch_width=*/1);

  FleetConfig cfg;
  cfg.workers = 1;
  cfg.max_chunk = kChunk;
  cfg.batch_width = 8;
  SessionManager fleet(workload[0].fs, cfg);
  std::vector<SessionHandle> handles;
  for (std::size_t s = 0; s < kSessions; ++s) handles.push_back(fleet.open());
  fleet.start();

  std::vector<FleetBeat> sink;
  const std::size_t n = workload[0].ecg_mv.size();
  // Session 0 alone, far past its window of held chunks.
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t len = std::min(kChunk, n - i);
    handles[0].push(dsp::SignalView(workload[0].ecg_mv.data() + i, len),
                    dsp::SignalView(workload[0].z_ohm.data() + i, len), sink);
  }
  for (std::size_t s = 1; s < kSessions; ++s) {
    const synth::Recording& rec = workload[s % workload.size()];
    for (std::size_t i = 0; i < n; i += kChunk) {
      const std::size_t len = std::min(kChunk, n - i);
      handles[s].push(dsp::SignalView(rec.ecg_mv.data() + i, len),
                      dsp::SignalView(rec.z_ohm.data() + i, len), sink);
    }
  }
  fleet.run_to_completion(sink);
  EXPECT_EQ(dissolves_of(fleet), 1u);
  const auto streams = streams_of(sink, kSessions);
  for (std::size_t s = 0; s < kSessions; ++s)
    EXPECT_EQ(streams[s], scalar.streams[s]) << "session " << s;
}

// A pilot that finishes one lane and then waits for that lane's
// terminal record, without finishing the others, must get it: the held
// finish cannot run in lockstep, so the stalled group dissolves.
TEST(FleetBatchTest, WaitingOnOneFinishedLaneCompletes) {
  const auto workload = test_workload(2, 6.0);
  constexpr std::size_t kSessions = 8;
  const FleetRun scalar = run_fleet(workload, kSessions, 1, /*batch_width=*/1);

  FleetConfig cfg;
  cfg.workers = 1;
  cfg.max_chunk = kChunk;
  cfg.batch_width = 8;
  SessionManager fleet(workload[0].fs, cfg);
  std::vector<SessionHandle> handles;
  for (std::size_t s = 0; s < kSessions; ++s) handles.push_back(fleet.open());
  fleet.start();

  std::vector<FleetBeat> sink;
  const std::size_t n = workload[0].ecg_mv.size();
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t len = std::min(kChunk, n - i);
    for (std::size_t s = 0; s < kSessions; ++s) {
      const synth::Recording& rec = workload[s % workload.size()];
      handles[s].push(dsp::SignalView(rec.ecg_mv.data() + i, len),
                      dsp::SignalView(rec.z_ohm.data() + i, len), sink);
    }
  }
  handles[0].finish(sink);
  const auto lane0_ended = [&] {
    return std::any_of(sink.begin(), sink.end(), [&](const FleetBeat& fb) {
      return fb.end_of_session && fb.session == handles[0].id();
    });
  };
  while (!lane0_ended()) fleet.poll(sink);
  fleet.run_to_completion(sink);
  EXPECT_EQ(dissolves_of(fleet), 1u);
  const auto streams = streams_of(sink, kSessions);
  for (std::size_t s = 0; s < kSessions; ++s)
    EXPECT_EQ(streams[s], scalar.streams[s]) << "session " << s;
}

TEST(FleetBatchTest, RemainderSessionsRunScalar) {
  // 6 sessions on one worker with batch_width 4: one packed group of 4
  // plus 2 scalar stragglers. All six must match the scalar fleet.
  const auto workload = test_workload(2, 6.0);
  expect_same_run(run_fleet(workload, 6, 1, /*batch_width=*/1),
                  run_fleet(workload, 6, 1, /*batch_width=*/4));
}

// Placement is id % workers, so with 2 workers and 8 sessions the ids
// {0,2,4,6} pack into a width-4 group on worker 0 (and {1,3,5,7} on
// worker 1). Migrating session 2 mid-stream forces a CheckpointOut
// through the packed group, which must dissolve it and keep every
// stream — migrated and stay-behind lanes alike — byte-identical.
TEST(FleetBatchTest, MigrationDissolvesPackedGroupMidStream) {
  const auto workload = test_workload(3, 8.0);
  constexpr std::size_t kSessions = 8;  // ids {0,2,4,6} pack on worker 0
  const auto scalar = run_fleet(workload, kSessions, 2, /*batch_width=*/1);

  FleetConfig cfg;
  cfg.workers = 2;
  cfg.max_chunk = kChunk;
  cfg.batch_width = 4;
  SessionManager fleet(workload[0].fs, cfg);
  std::vector<core::SessionHandle> handles;
  handles.reserve(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) handles.push_back(fleet.open());
  fleet.start();

  std::vector<FleetBeat> sink;
  sink.reserve(1024);
  const std::size_t n = workload[0].ecg_mv.size();
  bool migrated = false;
  for (std::size_t i = 0; i < n; i += kChunk) {
    if (!migrated && i >= n / 2) {
      // Rip session 2 out of worker 0's packed group mid-stream. The
      // CheckpointOut dissolves the group; the remaining three lanes
      // (and the migrated one, now scalar on worker 1) must still
      // produce byte-identical streams.
      handles[2].migrate_to(1, sink);
      migrated = true;
    }
    const std::size_t len = std::min(kChunk, n - i);
    for (std::size_t s = 0; s < kSessions; ++s) {
      const synth::Recording& rec = workload[s % workload.size()];
      handles[s].push(dsp::SignalView(rec.ecg_mv.data() + i, len),
                      dsp::SignalView(rec.z_ohm.data() + i, len), sink);
    }
  }
  ASSERT_TRUE(migrated);
  fleet.run_to_completion(sink);

  std::vector<std::vector<unsigned char>> streams(kSessions);
  for (const FleetBeat& fb : sink) {
    if (fb.end_of_session) continue;
    serialize_beat(fb.beat, streams[fb.session]);
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_FALSE(scalar.streams[s].empty());
    EXPECT_EQ(scalar.streams[s], streams[s])
        << "session " << s << " diverged after mid-stream migration";
  }
}

TEST(FleetBatchTest, MismatchedChunkLengthsDissolveCleanly) {
  // Lane 0 gets its mid-stream chunk split 64 -> 32+32 while the other
  // lanes stay on 64. The group cannot tick in lockstep past that point
  // and must dissolve; chunking is semantically invisible, so the
  // streams still match the scalar fleet fed uniform chunks.
  const auto workload = test_workload(2, 6.0);
  constexpr std::size_t kSessions = 4;
  const auto scalar = run_fleet(workload, kSessions, 1, /*batch_width=*/1);

  FleetConfig cfg;
  cfg.workers = 1;
  cfg.max_chunk = kChunk;
  cfg.batch_width = 4;
  SessionManager fleet(workload[0].fs, cfg);
  std::vector<core::SessionHandle> handles;
  handles.reserve(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) handles.push_back(fleet.open());
  fleet.start();

  std::vector<FleetBeat> sink;
  sink.reserve(1024);
  const std::size_t n = workload[0].ecg_mv.size();
  bool split_done = false;
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t len = std::min(kChunk, n - i);
    for (std::size_t s = 0; s < kSessions; ++s) {
      const synth::Recording& rec = workload[s % workload.size()];
      if (s == 0 && !split_done && i >= n / 2 && len == kChunk) {
        const std::size_t half = kChunk / 2;
        handles[0].push(dsp::SignalView(rec.ecg_mv.data() + i, half),
                        dsp::SignalView(rec.z_ohm.data() + i, half), sink);
        handles[0].push(dsp::SignalView(rec.ecg_mv.data() + i + half, half),
                        dsp::SignalView(rec.z_ohm.data() + i + half, half), sink);
        split_done = true;
        continue;
      }
      handles[s].push(dsp::SignalView(rec.ecg_mv.data() + i, len),
                      dsp::SignalView(rec.z_ohm.data() + i, len), sink);
    }
  }
  ASSERT_TRUE(split_done);
  fleet.run_to_completion(sink);

  std::vector<std::vector<unsigned char>> streams(kSessions);
  for (const FleetBeat& fb : sink) {
    if (fb.end_of_session) continue;
    serialize_beat(fb.beat, streams[fb.session]);
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_FALSE(scalar.streams[s].empty());
    EXPECT_EQ(scalar.streams[s], streams[s])
        << "session " << s << " diverged after chunk-length dissolve";
  }
}

TEST(FleetBatchTest, ValidatesBatchWidth) {
  FleetConfig cfg;
  cfg.batch_width = 3;
  EXPECT_THROW(SessionManager fleet(250.0, cfg), std::invalid_argument);
  cfg.batch_width = 1;  // explicit scalar is fine
  EXPECT_NO_THROW(SessionManager fleet(250.0, cfg));
}

// The auto width: batch_width = 0 resolves to W=8 wherever the lane
// vector is a native vector type — AVX-512, AVX2 (two-half
// PairLanes64), baseline SSE2 and NEON alike — and only the plain-array
// fallback stays scalar. dsp::lane_isa() reports the runtime choice:
// the dispatched per-ISA build when the CPU runs one, the build's own
// ISA otherwise.
TEST(FleetBatchTest, DefaultBatchWidthMatchesIsa) {
  const std::string isa = dsp::lane_isa();
  const std::size_t width = dsp::default_batch_width();
  switch (dsp::lane_target()) {
    case dsp::LaneTarget::X86_64_V4:
      EXPECT_EQ(isa, "avx512");
      break;
    case dsp::LaneTarget::X86_64_V3:
      EXPECT_EQ(isa, "avx2");
      break;
    case dsp::LaneTarget::Build:
      EXPECT_EQ(isa, dsp::compiled_lane_isa());
      break;
  }
  if (isa == "scalar") {
    EXPECT_EQ(width, 1u) << "the plain-array lane fallback should not auto-batch";
  } else {
    EXPECT_EQ(width, 8u) << "ISA " << isa;
    EXPECT_TRUE(core::session_batch_width_supported(width));
  }

  FleetConfig cfg;
  ASSERT_EQ(cfg.batch_width, 0u) << "auto must stay the FleetConfig default";
  SessionManager fleet(250.0, cfg);
  EXPECT_EQ(fleet.resolved_batch_width(), width);

  cfg.batch_width = 1;
  SessionManager scalar_fleet(250.0, cfg);
  EXPECT_EQ(scalar_fleet.resolved_batch_width(), 1u);
}

} // namespace
