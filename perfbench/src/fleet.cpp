// fleet_bulk: 120 concurrent moderately corrupted double sessions on an
// in-process SessionManager (2 workers, default FleetConfig otherwise),
// fed 64-sample chunks in a closed loop as fast as backpressure allows.
// One operation is one session streamed end to end: every chunk pushed,
// finished, every beat and the terminal quality record received.
#include "common.h"
#include "core/fleet.h"
#include "workload.h"

namespace pb {

using namespace icgkit;

namespace {

struct Round {
  double wall_s = 0.0, setup_s = 0.0, mem_kb = 0.0;
  double lag_p50_ms = 0.0;
  std::uint64_t samples = 0, chunks = 0, beats = 0, refusals = 0, allocs = 0;
  double idle_s = 0.0, depth_mean = 0.0, worker_p50_us = 0.0, skew = 0.0;
  std::size_t batch_width = 0;
};

class FleetBench {
 public:
  explicit FleetBench(const SessionMix& mix) : mix_(mix), streams_(mix.sessions()) {
    std::size_t chunks = 0, beats = 0;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      streams_[i].chunks = static_cast<std::uint32_t>(mix_.chunks(i));
      streams_[i].handoff_ns.assign(mix_.chunks(i) + 1, 0);
      chunks += mix_.chunks(i) + 1;
      beats += mix_.ref(i).beats();
    }
    lags_.reserve(beats);
    polled_.reserve(8192);
    scratch_.reserve(beat_bytes());
  }

  /// One round: a fresh SessionManager carries every session to its end.
  void run(Tracer& tr, Round& out, Result& res) {
    for (Stream& s : streams_) s.reset();
    lags_.clear();
    heap::reset_peak();
    const std::size_t base = heap::live_bytes();

    const std::uint64_t t0 = now_ns();
    const std::uint64_t deadline = t0 + kRoundDeadlineNs;
    core::FleetConfig cfg;
    cfg.workers = kWorkers;
    core::SessionManager mgr(mix_.fs(), cfg);
    std::vector<core::SessionHandle> handles;
    handles.reserve(streams_.size());
    std::vector<std::uint32_t> index_of;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      handles.push_back(mgr.open());
      if (index_of.size() <= handles.back().id()) index_of.resize(handles.back().id() + 1);
      index_of[handles.back().id()] = static_cast<std::uint32_t>(i);
    }
    mgr.start();
    out.setup_s = ns_to_s(now_ns() - t0);
    out.batch_width = mgr.resolved_batch_width();

    const std::uint64_t allocs0 = heap::allocations();
    const std::uint64_t start = now_ns();
    std::size_t done = 0;
    double depth_sum = 0.0;
    std::uint64_t depth_samples = 0, idle_ns = 0;
    while (done < streams_.size() && now_ns() < deadline) {
      const std::uint64_t it0 = tr.begin();
      bool progressed = false;
      for (std::size_t i = 0; i < streams_.size(); ++i) {
        Stream& s = streams_[i];
        core::SessionHandle& h = handles[i];
        const Input& in = mix_.input(i);
        while (s.next < s.chunks) {
          const std::size_t off = static_cast<std::size_t>(s.next) * kChunk;
          const std::size_t len = std::min(kChunk, in.samples() - off);
          const std::uint64_t a = tr.begin();
          const bool ok = h.try_push(dsp::SignalView(in.rec.ecg_mv.data() + off, len),
                                     dsp::SignalView(in.rec.z_ohm.data() + off, len));
          tr.end(SpanKind::FleetTryPush, s.next, a);
          if (!ok) {
            ++out.refusals;
            break;
          }
          s.handoff_ns[s.next++] = now_ns();
          out.samples += len;
          ++out.chunks;
          progressed = true;
        }
        if (s.next == s.chunks && !s.finish_sent) {
          if (h.try_finish()) {
            s.finish_sent = true;
            s.handoff_ns[s.chunks] = now_ns();
            progressed = true;
          } else {
            ++out.refusals;
          }
        }
      }
      const std::uint64_t q0 = tr.begin();
      polled_.clear();
      const std::size_t got = mgr.poll(polled_);
      tr.end(SpanKind::FleetPoll, static_cast<std::uint32_t>(got), q0);
      const std::uint64_t now = now_ns();
      for (const core::FleetBeat& fb : polled_) {
        const std::uint32_t i = index_of[fb.session];
        Stream& s = streams_[i];
        const MixRef& ref = mix_.ref(i);
        if (fb.end_of_session) {
          if (fb.session_summary.beats != s.beats) s.ok = false;
          s.done = true;
          ++done;
          continue;
        }
        if (!same_beat(fb.beat, ref.bytes, s.beats, scratch_)) {
          s.ok = false;
        } else {
          const std::uint32_t c = ref.emitted_by[s.beats];
          lags_.push_back(mix_.signal_lag_ms(i, s.beats) +
                          ns_to_ms(now - s.handoff_ns[c]));
        }
        ++s.beats;
        ++out.beats;
      }
      if (tr.on) {
        mgr.worker_queue_depths(depths_);
        for (const std::size_t d : depths_) depth_sum += static_cast<double>(d);
        depth_samples += depths_.size();
        if (!progressed && got == 0) idle_ns += now_ns() - it0;
      }
    }
    out.wall_s = ns_to_s(now_ns() - start);
    out.allocs = heap::allocations() - allocs0;
    out.mem_kb = static_cast<double>(heap::peak_bytes() - base) / 1024.0 /
                 static_cast<double>(streams_.size());
    out.idle_s = ns_to_s(idle_ns);
    out.depth_mean = depth_samples > 0 ? depth_sum / static_cast<double>(depth_samples) : 0.0;

    mgr.close();
    mgr.join();
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      const Stream& s = streams_[i];
      ++res.attempted;
      if (!s.ok || !s.done || s.beats != mix_.ref(i).beats() ||
          handles[i].processed() != s.chunks)
        res.fail_op("fleet session " + std::to_string(i) +
                    " diverged from the direct feed (lost, unfinished or changed output)");
    }
    // A cut round's unfinished sessions have failed above.
    if (done == streams_.size() && mgr.total_samples() != out.samples)
      res.fail("fleet processed " + std::to_string(mgr.total_samples()) + " samples of " +
               std::to_string(out.samples) + " sent");
    out.lag_p50_ms = median(lags_);

    const std::vector<core::FleetWorkerStats>& ws = mgr.worker_stats();
    std::vector<double> lat;
    std::uint64_t cmin = ~0ull, cmax = 0;
    for (const core::FleetWorkerStats& w : ws) {
      lat.insert(lat.end(), w.push_latency_us.begin(), w.push_latency_us.end());
      cmin = std::min(cmin, w.chunks);
      cmax = std::max(cmax, w.chunks);
    }
    out.worker_p50_us = median(lat);
    out.skew = cmin > 0 ? static_cast<double>(cmax) / static_cast<double>(cmin) : 0.0;
  }

 private:
  struct Stream {
    std::uint32_t chunks = 0, next = 0;
    std::size_t beats = 0;
    bool finish_sent = false, done = false, ok = true;
    std::vector<std::uint64_t> handoff_ns;
    void reset() {
      next = 0;
      beats = 0;
      finish_sent = done = false;
      ok = true;
    }
  };

  const SessionMix& mix_;
  std::vector<Stream> streams_;
  std::vector<core::FleetBeat> polled_;
  std::vector<std::size_t> depths_;
  std::vector<unsigned char> scratch_;
  std::vector<double> lags_;
};

} // namespace

Result run_fleet(const Options& opt) {
  Result res;
  const SessionMix mix(opt.seed, res);
  FleetBench bench(mix);

  Tracer tr;
  if (opt.trace) tr.reserve();
  std::vector<Round> plain, traced;
  run_rounds(opt, tr, [&](Round& r) { bench.run(tr, r, res); }, plain, traced);
  note("rounds: " + std::to_string(plain.size()) + " untraced, " +
       std::to_string(traced.size()) + " traced; " + std::to_string(plain[0].chunks) +
       " chunks and " + std::to_string(plain[0].beats) + " beats per round");

  const double plain_wall = median_of(plain, &Round::wall_s);
  if (!opt.trace) {
    res.add("samples_per_s", median_of(plain, [](const Round& r) {
              return static_cast<double>(r.samples) / r.wall_s;
            }),
            "samples/s");
    res.add("setup_s", median_of(plain, &Round::setup_s), "s");
    res.add("beat_lag_p50_ms", median_of(plain, &Round::lag_p50_ms), "ms");
    res.add("mem_kb_per_session", median_of(plain, &Round::mem_kb), "KiB");
    return res;
  }

  add_engine_layers(mix, res);
  double chunks = 0.0, beats = 0.0, refusals = 0.0, allocs = 0.0, wall = 0.0, idle = 0.0;
  for (const Round& r : traced) {
    chunks += static_cast<double>(r.chunks);
    beats += static_cast<double>(r.beats);
    refusals += static_cast<double>(r.refusals);
    allocs += static_cast<double>(r.allocs);
    wall += r.wall_s;
    idle += r.idle_s;
  }
  const double push_us = static_cast<double>(tr.total_ns(SpanKind::FleetTryPush)) * 1e-3;
  const double poll_us = static_cast<double>(tr.total_ns(SpanKind::FleetPoll)) * 1e-3;
  res.add("core.batch_width", static_cast<double>(traced[0].batch_width), "lanes");
  res.add("fleet.try_push_us_per_chunk", push_us / chunks, "us");
  res.add("fleet.push_refusals_per_chunk", refusals / chunks, "count");
  res.add("fleet.poll_us_per_beat", poll_us / beats, "us");
  res.add("fleet.pilot_wait_fraction", idle / wall, "fraction");
  res.add("fleet.worker_push_p50_us", median_of(traced, &Round::worker_p50_us), "us");
  res.add("fleet.worker_chunk_skew", median_of(traced, &Round::skew), "ratio");
  res.add("fleet.queue_depth_mean", median_of(traced, &Round::depth_mean), "items");
  res.add("allocs_per_chunk", allocs / chunks, "count");
  const double traced_wall = median_of(traced, &Round::wall_s);
  res.add("trace_overhead_pct", (traced_wall / plain_wall - 1.0) * 100.0, "%");

  note("reconcile: pilot wall " + fmt(wall * 1e6 / chunks, 3) + " us/chunk = try_push " +
       fmt(push_us / chunks, 3) + " + poll " + fmt(poll_us / chunks, 3) + " + loop/checks " +
       fmt((wall * 1e6 - push_us - poll_us) / chunks, 3) + " (idle share " +
       fmt(idle / wall, 3) + ")");
  tr.write(opt.trace_out);
  return res;
}

} // namespace pb
