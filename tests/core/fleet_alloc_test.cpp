// Verifies the fleet memory-pool invariant: pushing chunks does ZERO
// heap allocation — in the bare pipeline once warm, and through the
// whole fleet path (slab copy, SPSC handoff, lockstep batch, result
// drain) from the first chunk of a freshly opened session to its
// terminal record.
//
// This binary replaces the global operator new/delete with counting
// versions that bump core::allocation_counter() (the library-side test
// hook); AllocationProbe reads the delta around the measured region. The
// allocator also tracks the live heap in bytes, for the memory
// comparison between scalar and lockstep sessions.
#include "core/alloc_probe.h"
#include "core/batch.h"
#include "core/fleet.h"
#include "core/pipeline.h"
#include "synth/recording.h"

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <new>
#include <vector>

// ---------------------------------------------------------------------------
// Counting global allocator. Covers the plain, nothrow, and over-aligned
// forms so nothing escapes the count.
// ---------------------------------------------------------------------------

namespace {

// The helpers stay out of line: once g++ inlines a replacement operator
// delete into a new-expression's caller, it sees std::free() applied to
// an operator-new pointer and reports -Wmismatched-new-delete, although
// every operator here pairs malloc with free.
std::atomic<std::int64_t> g_live_bytes{0};

[[gnu::noinline]] void* counted_alloc(std::size_t n) {
  icgkit::core::allocation_counter().fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (p != nullptr)
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  return p;
}

[[gnu::noinline]] void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  icgkit::core::allocation_counter().fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n ? n : align) != 0)
    return nullptr;
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

[[gnu::noinline]] void counted_free(void* p) noexcept {
  if (p != nullptr)
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  std::free(p);
}

} // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, static_cast<std::size_t>(al))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }

namespace {

using namespace icgkit;
using core::AllocationProbe;
using core::FleetBeat;

constexpr std::size_t kChunk = 64;

synth::Recording make_recording(double duration_s) {
  synth::RecordingConfig cfg;
  cfg.duration_s = duration_s;
  cfg.session_seed = 11;
  return std::move(synth::make_fleet_workload(1, cfg)[0]);
}

TEST(FleetAllocTest, HookCountsAllocations) {
  AllocationProbe probe;
  auto* p = new int(42);
  EXPECT_GE(probe.delta(), 1u);
  delete p;
}

TEST(FleetAllocTest, WarmPipelinePushesAreAllocationFree) {
  const synth::Recording rec = make_recording(40.0);
  core::StreamingBeatPipeline engine(rec.fs, {});
  std::vector<core::BeatRecord> out;
  out.reserve(256);

  const std::size_t n = rec.ecg_mv.size();
  const std::size_t warmup_end = (n / 2 / kChunk) * kChunk;

  for (std::size_t i = 0; i < warmup_end; i += kChunk) {
    out.clear();
    engine.push_into(dsp::SignalView(rec.ecg_mv.data() + i, kChunk),
                     dsp::SignalView(rec.z_ohm.data() + i, kChunk), out);
  }

  AllocationProbe probe;
  std::size_t beats = 0;
  for (std::size_t i = warmup_end; i + kChunk <= n; i += kChunk) {
    out.clear();
    engine.push_into(dsp::SignalView(rec.ecg_mv.data() + i, kChunk),
                     dsp::SignalView(rec.z_ohm.data() + i, kChunk), out);
    beats += out.size();
  }
  EXPECT_GT(beats, 10u) << "measured region should emit beats (delineation exercised)";
  EXPECT_EQ(probe.delta(), 0u)
      << "warmed-up StreamingBeatPipeline::push_into must not allocate";
}

TEST(FleetAllocTest, WarmFixedPipelinePushesAreAllocationFree) {
  // The Q31 engine converts each beat window to double exactly once per
  // R-R (the shared beat-window fill in make_beat); the conversion must
  // land in the warmed scratch arena, not a fresh buffer per beat.
  const synth::Recording rec = make_recording(40.0);
  core::FixedStreamingBeatPipeline engine(rec.fs, {});
  std::vector<core::BeatRecord> out;
  out.reserve(256);

  const std::size_t n = rec.ecg_mv.size();
  const std::size_t warmup_end = (n / 2 / kChunk) * kChunk;

  for (std::size_t i = 0; i < warmup_end; i += kChunk) {
    out.clear();
    engine.push_into(dsp::SignalView(rec.ecg_mv.data() + i, kChunk),
                     dsp::SignalView(rec.z_ohm.data() + i, kChunk), out);
  }

  AllocationProbe probe;
  std::size_t beats = 0;
  for (std::size_t i = warmup_end; i + kChunk <= n; i += kChunk) {
    out.clear();
    engine.push_into(dsp::SignalView(rec.ecg_mv.data() + i, kChunk),
                     dsp::SignalView(rec.z_ohm.data() + i, kChunk), out);
    beats += out.size();
  }
  EXPECT_GT(beats, 10u) << "measured region should emit beats (conversion exercised)";
  EXPECT_EQ(probe.delta(), 0u)
      << "warmed-up FixedStreamingBeatPipeline::push_into must not allocate";
}

TEST(FleetAllocTest, WarmSessionBatchPushesAreAllocationFree) {
  // The deferred beat tail queues per-lane pending ranges in scratch
  // arenas; once those have grown to steady state, a batched push (front
  // phase + per-lane tail drain) must be allocation-free like the scalar
  // engine it mirrors.
  constexpr std::size_t W = 4;
  const synth::Recording rec = make_recording(40.0);
  core::SessionBatch<W> batch(rec.fs);
  {
    std::vector<std::vector<std::uint8_t>> blobs;
    for (std::size_t l = 0; l < W; ++l)
      blobs.push_back(core::StreamingBeatPipeline(rec.fs).checkpoint());
    batch.pack(blobs);
  }
  std::array<std::vector<core::BeatRecord>, W> out;
  for (auto& o : out) o.reserve(256);
  std::array<const double*, W> ecg{}, z{};

  const std::size_t n = rec.ecg_mv.size();
  const std::size_t warmup_end = (n / 2 / kChunk) * kChunk;
  const auto feed = [&](std::size_t lo, std::size_t hi) {
    std::size_t beats = 0;
    for (std::size_t i = lo; i + kChunk <= hi; i += kChunk) {
      for (std::size_t l = 0; l < W; ++l) {
        ecg[l] = rec.ecg_mv.data() + i;
        z[l] = rec.z_ohm.data() + i;
        out[l].clear();
      }
      batch.push(ecg.data(), z.data(), kChunk, out.data());
      for (const auto& o : out) beats += o.size();
    }
    return beats;
  };

  feed(0, warmup_end);
  AllocationProbe probe;
  const std::size_t beats = feed(warmup_end, n);
  EXPECT_GT(beats, 40u) << "measured region should emit beats on every lane";
  EXPECT_EQ(probe.delta(), 0u)
      << "warmed-up SessionBatch::push must not allocate";
}

TEST(FleetAllocTest, WarmFleetPathIsAllocationFree) {
  const synth::Recording rec = make_recording(40.0);
  core::FleetConfig cfg;
  cfg.workers = 2;
  cfg.max_chunk = kChunk;
  core::SessionManager fleet(rec.fs, cfg);
  core::SessionHandle a = fleet.open();
  core::SessionHandle b = fleet.open();
  fleet.start();

  std::vector<FleetBeat> sink;
  sink.reserve(1024);
  const std::size_t n = rec.ecg_mv.size();
  const std::size_t warmup_end = (n / 2 / kChunk) * kChunk;

  auto feed = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i + kChunk <= hi; i += kChunk) {
      for (core::SessionHandle* s : {&a, &b})
        s->push(dsp::SignalView(rec.ecg_mv.data() + i, kChunk),
                dsp::SignalView(rec.z_ohm.data() + i, kChunk), sink);
    }
    while (!fleet.idle()) fleet.poll(sink);
  };

  feed(0, warmup_end);
  sink.clear();

  AllocationProbe probe;
  feed(warmup_end, n);
  EXPECT_GT(sink.size(), 20u) << "measured region should deliver beats";
  EXPECT_EQ(probe.delta(), 0u)
      << "warmed-up fleet submit/process/poll cycle must not allocate";

  fleet.close();
  fleet.join();
}

// Fresh sessions, scalar and grouped alike, allocate nothing from their
// first chunk to their terminal record: open() and start() size every
// engine, batch and arena for FleetConfig::max_chunk up front.
void expect_fresh_fleet_allocation_free(std::size_t batch_width) {
  const synth::Recording rec = make_recording(20.0);
  constexpr std::size_t kSessions = 16;  // one lockstep group per worker at width 8
  core::FleetConfig cfg;
  cfg.workers = 2;
  cfg.batch_width = batch_width;  // max_chunk stays at its default, 256
  core::SessionManager fleet(rec.fs, cfg);
  std::vector<core::SessionHandle> handles;
  for (std::size_t s = 0; s < kSessions; ++s) handles.push_back(fleet.open());
  fleet.start();
  std::vector<FleetBeat> sink;
  sink.reserve(8192);

  AllocationProbe probe;
  const std::size_t n = rec.ecg_mv.size();
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t len = std::min(kChunk, n - i);
    for (core::SessionHandle& h : handles)
      h.push(dsp::SignalView(rec.ecg_mv.data() + i, len),
             dsp::SignalView(rec.z_ohm.data() + i, len), sink);
  }
  for (core::SessionHandle& h : handles) h.finish(sink);
  // Terminal records may already have arrived while the blocking verbs
  // above drained into the sink.
  std::size_t ended = 0, scanned = 0;
  while (ended < kSessions) {
    fleet.poll(sink);
    for (; scanned < sink.size(); ++scanned)
      if (sink[scanned].end_of_session) ++ended;
  }
  const std::uint64_t allocations = probe.delta();
  ASSERT_LE(sink.size(), sink.capacity());
  EXPECT_GT(sink.size(), 100u) << "the sessions should deliver beats";
  EXPECT_EQ(allocations, 0u) << "batch_width " << batch_width
                             << ": fresh sessions allocated while streaming";

  fleet.close();
  fleet.join();
  std::uint64_t dissolves = 0;
  for (const core::FleetWorkerStats& w : fleet.worker_stats()) dissolves += w.group_dissolves;
  EXPECT_EQ(dissolves, 0u);
}

TEST(FleetAllocTest, FreshScalarSessionsAreAllocationFreeFromTheFirstChunk) {
  expect_fresh_fleet_allocation_free(1);
}

TEST(FleetAllocTest, FreshGroupedSessionsAreAllocationFreeFromTheFirstChunk) {
  expect_fresh_fleet_allocation_free(8);
}

// A grouped session carries no scalar engine of its own and no extra
// stash: 16 sessions opened and started at width 8 hold no more heap than
// the same sessions at width 1.
TEST(FleetAllocTest, GroupedSessionsHoldNoMoreHeapThanScalar) {
  const auto heap_after_start = [](std::size_t batch_width) {
    core::FleetConfig cfg;
    cfg.workers = 2;
    cfg.batch_width = batch_width;
    const std::int64_t before = g_live_bytes.load();
    core::SessionManager fleet(250.0, cfg);
    std::vector<core::SessionHandle> handles;
    for (std::size_t s = 0; s < 16; ++s) handles.push_back(fleet.open());
    fleet.start();
    const std::int64_t held = g_live_bytes.load() - before;
    fleet.close();
    fleet.join();
    return held;
  };
  const std::int64_t scalar = heap_after_start(1);
  const std::int64_t grouped = heap_after_start(8);
  EXPECT_GT(scalar, 0);
  EXPECT_LE(grouped, scalar) << "grouped " << grouped << " B vs scalar " << scalar << " B";
}

} // namespace
