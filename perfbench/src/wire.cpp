// wire_bulk: the fleet_bulk session mix through a loopback FleetServer
// (2 workers, rebalancing off, defaults otherwise) and one CACK-windowed
// FleetClient on the calling thread, in a closed loop: every stream keeps
// the server's advertised max_inflight chunks outstanding, so the fleet
// runs as fast as the wire codec and the poll(2) IO loop let it. One
// operation is one stream carried from OPEN to its terminal QUAL.
#include "common.h"
#include "dsp/simd.h"
#include "net/client.h"
#include "net/server.h"
#include "workload.h"

#include <stdexcept>

namespace pb {

using namespace icgkit;
using net::ClientEvent;

namespace {

struct Round {
  double wall_s = 0.0, setup_s = 0.0, mem_kb = 0.0;
  double lag_p50_ms = 0.0;
  std::uint64_t samples = 0, chunks = 0, beats = 0, events = 0, allocs = 0;
  std::uint64_t up_bytes = 0, down_bytes = 0;
  double wait_s = 0.0, inflight_mean = 0.0;
};

/// Framed record sizes, from the wire.h codec itself.
struct RecordSizes {
  std::size_t beat = 0, cack = 0, qual = 0, close = 0;
  std::size_t chunk_base = 0;  ///< CHNK framing + header; samples add 16 B each
  [[nodiscard]] std::size_t chunk(std::size_t n) const { return chunk_base + 16 * n; }
  RecordSizes() {
    net::RecordBuilder rb;
    std::vector<std::uint8_t> out;
    const auto size = [&](const char(&tag)[5], auto body) {
      out.clear();
      core::StateWriter& w = rb.begin(tag);
      body(w);
      rb.finish(out);
      return out.size();
    };
    beat = size(net::kTagBeat, [](core::StateWriter& w) {
      w.u32(1);
      net::encode_beat(w, core::BeatRecord{});
    });
    cack = size(net::kTagChunkAck, [](core::StateWriter& w) {
      w.u32(1);
      w.u64(1);
    });
    qual = size(net::kTagQuality, [](core::StateWriter& w) {
      w.u32(1);
      net::encode_quality(w, core::QualitySummary{});
    });
    close = size(net::kTagClose, [](core::StateWriter& w) { w.u32(1); });
    chunk_base = size(net::kTagChunk, [](core::StateWriter& w) {
      w.u32(1);
      w.u32(0);
    });
  }
};

class WireBench {
 public:
  explicit WireBench(const SessionMix& mix) : mix_(mix), streams_(mix.sessions()) {
    std::size_t chunks = 0, beats = 0;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      streams_[i].chunks = static_cast<std::uint32_t>(mix_.chunks(i));
      streams_[i].handoff_ns.assign(mix_.chunks(i) + 1, 0);
      chunks += mix_.chunks(i) + 1;
      beats += mix_.ref(i).beats();
    }
    lags_.reserve(beats);
    events_.reserve(8192);
    scratch_.reserve(beat_bytes());
  }

  void run(Tracer& tr, Round& out, Result& res) {
    for (Stream& s : streams_) s.reset();
    lags_.clear();
    heap::reset_peak();
    const std::size_t base = heap::live_bytes();

    const std::uint64_t t0 = now_ns();
    const std::uint64_t deadline = t0 + kRoundDeadlineNs;
    net::ServerConfig cfg;
    cfg.fleet.workers = kWorkers;
    cfg.rebalance_period_chunks = 0;
    net::FleetServer server(cfg);
    if (server.bind() != net::ServerStatus::Ok) throw std::runtime_error("server bind failed");
    server.start();
    net::FleetClient client;
    if (!client.connect_loopback(server.port(), /*want_acks=*/true))
      throw std::runtime_error("loopback connect failed");
    window_ = client.server_hello().max_inflight;
    for (std::size_t i = 0; i < streams_.size(); ++i)
      client.open_stream(static_cast<std::uint32_t>(i + 1));
    std::size_t opened = 0;
    while (opened < streams_.size() && client.connected() && now_ns() < deadline) {
      events_.clear();
      client.poll_events(events_, 100);
      for (const ClientEvent& ev : events_)
        if (ev.type == ClientEvent::Type::OpenAck && ev.status == 0) ++opened;
    }
    out.setup_s = ns_to_s(now_ns() - t0);
    if (opened < streams_.size()) throw std::runtime_error("server refused an OPEN");

    const std::uint64_t allocs0 = heap::allocations();
    const std::uint64_t start = now_ns();
    const bool complete = loop(client, tr, out, deadline);
    out.wall_s = ns_to_s(now_ns() - start);
    out.allocs = heap::allocations() - allocs0;
    out.mem_kb = static_cast<double>(heap::peak_bytes() - base) / 1024.0 /
                 static_cast<double>(streams_.size());

    client.request_stats();
    net::ServerStats stats;
    bool have_stats = false;
    const std::uint64_t stats_by = now_ns() + kRoundDeadlineNs;
    while (!have_stats && client.connected() && now_ns() < stats_by) {
      events_.clear();
      client.poll_events(events_, 100);
      for (const ClientEvent& ev : events_)
        if (ev.type == ClientEvent::Type::Stats) {
          stats = ev.stats;
          have_stats = true;
        }
    }
    client.bye();
    server.stop();

    for (std::size_t i = 0; i < streams_.size(); ++i) {
      const Stream& s = streams_[i];
      ++res.attempted;
      if (!s.ok || !s.done || s.beats != mix_.ref(i).beats() || s.next != s.chunks)
        res.fail_op("wire stream " + std::to_string(i + 1) +
                    " diverged from the direct feed (shed, lost or changed output)");
    }
    // A cut round's unfinished streams have failed above; its sample count
    // is then short by design.
    if (complete &&
        (!have_stats || stats.total_samples != out.samples || stats.shed_chunks != 0))
      res.fail("server processed " + std::to_string(stats.total_samples) + " samples of " +
               std::to_string(out.samples) + " sent, shed " +
               std::to_string(stats.shed_chunks));
    out.lag_p50_ms = median(lags_);
  }

 private:
  struct Stream {
    std::uint32_t chunks = 0, next = 0;
    std::uint64_t acked = 0;
    std::size_t beats = 0;
    bool closed = false, done = false, ok = true;
    std::vector<std::uint64_t> handoff_ns;
    void reset() {
      next = 0;
      acked = 0;
      beats = 0;
      closed = done = false;
      ok = true;
    }
  };

  void send(net::FleetClient& client, Tracer& tr, Round& out, std::size_t i) {
    Stream& s = streams_[i];
    const Input& in = mix_.input(i);
    const std::size_t off = static_cast<std::size_t>(s.next) * kChunk;
    const std::size_t len = std::min(kChunk, in.samples() - off);
    const std::uint64_t a = now_ns();
    client.send_chunk(static_cast<std::uint32_t>(i + 1),
                      std::span<const double>(in.rec.ecg_mv.data() + off, len),
                      std::span<const double>(in.rec.z_ohm.data() + off, len));
    tr.record(SpanKind::NetSend, s.next, a, tr.on ? now_ns() : 0);
    s.handoff_ns[s.next++] = a;
    out.samples += len;
    ++out.chunks;
    out.up_bytes += sizes_.chunk(len);
    if (s.next == s.chunks) {
      client.close_stream(static_cast<std::uint32_t>(i + 1));
      s.closed = true;
      s.handoff_ns[s.chunks] = now_ns();
      out.up_bytes += sizes_.close;
    }
  }

  /// Polls once (non-blocking); when that finds nothing and this loop
  /// iteration sent nothing, blocks up to 1 ms for the socket, traced as
  /// a wait span: the client is waiting for the server.
  void poll(net::FleetClient& client, Tracer& tr, Round& out, bool progressed,
            std::size_t& done) {
    events_.clear();
    const std::uint64_t p0 = tr.begin();
    std::size_t got = client.poll_events(events_, 0);
    tr.end(SpanKind::NetPoll, static_cast<std::uint32_t>(got), p0);
    if (got == 0 && !progressed) {
      const std::uint64_t w0 = tr.begin();
      got = client.poll_events(events_, 1);
      if (tr.on) {
        const std::uint64_t w1 = now_ns();
        tr.record(SpanKind::NetWait, 0, w0, w1);
        out.wait_s += ns_to_s(w1 - w0);
      }
    }
    if (!client.connected()) throw std::runtime_error("server closed the connection");
    const std::uint64_t now = now_ns();
    for (const ClientEvent& ev : events_) {
      if (ev.stream == 0 || ev.stream > streams_.size()) {
        if (ev.type == ClientEvent::Type::Error) throw std::runtime_error(ev.error.message);
        continue;
      }
      const std::size_t i = ev.stream - 1;
      Stream& s = streams_[i];
      ++out.events;
      switch (ev.type) {
        case ClientEvent::Type::ChunkAck:
          s.acked = std::max(s.acked, ev.count);
          out.down_bytes += sizes_.cack;
          break;
        case ClientEvent::Type::Beat: {
          const MixRef& ref = mix_.ref(i);
          if (!same_beat(ev.beat, ref.bytes, s.beats, scratch_)) {
            s.ok = false;
          } else {
            const std::uint32_t c = ref.emitted_by[s.beats];
            lags_.push_back(mix_.signal_lag_ms(i, s.beats) +
                            ns_to_ms(now - s.handoff_ns[c]));
          }
          ++s.beats;
          ++out.beats;
          out.down_bytes += sizes_.beat;
          break;
        }
        case ClientEvent::Type::Quality:
          if (ev.quality.beats != s.beats) s.ok = false;
          if (!s.done) ++done;
          s.done = true;
          out.down_bytes += sizes_.qual;
          break;
        case ClientEvent::Type::Shed:
        case ClientEvent::Type::Error:
          s.ok = false;
          break;
        default:
          break;
      }
    }
  }

  /// Returns false if the round was cut at `deadline`.
  bool loop(net::FleetClient& client, Tracer& tr, Round& out, std::uint64_t deadline) {
    double inflight_sum = 0.0;
    std::uint64_t inflight_n = 0;
    std::size_t done = 0;
    while (done < streams_.size() && now_ns() < deadline) {
      bool progressed = false;
      for (std::size_t i = 0; i < streams_.size(); ++i) {
        Stream& s = streams_[i];
        while (s.next < s.chunks && s.next - s.acked < window_) {
          send(client, tr, out, i);
          progressed = true;
        }
      }
      if (tr.on) {
        for (const Stream& s : streams_)
          inflight_sum += static_cast<double>(s.next - std::min<std::uint64_t>(s.acked, s.next));
        ++inflight_n;
      }
      poll(client, tr, out, progressed, done);
    }
    out.inflight_mean = inflight_n > 0 ? inflight_sum / static_cast<double>(inflight_n) : 0.0;
    return done == streams_.size();
  }

  const SessionMix& mix_;
  std::vector<Stream> streams_;
  std::uint64_t window_ = 1;
  RecordSizes sizes_;
  std::vector<ClientEvent> events_;
  std::vector<unsigned char> scratch_;
  std::vector<double> lags_;
};

} // namespace

Result run_wire(const Options& opt) {
  Result res;
  const SessionMix mix(opt.seed, res);
  WireBench bench(mix);

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
  double chunks = 0.0, samples = 0.0, events = 0.0, allocs = 0.0, wall = 0.0, wait = 0.0;
  double up = 0.0, down = 0.0;
  for (const Round& r : traced) {
    chunks += static_cast<double>(r.chunks);
    samples += static_cast<double>(r.samples);
    events += static_cast<double>(r.events);
    allocs += static_cast<double>(r.allocs);
    up += static_cast<double>(r.up_bytes);
    down += static_cast<double>(r.down_bytes);
    wall += r.wall_s;
    wait += r.wait_s;
  }
  const double send_us = static_cast<double>(tr.total_ns(SpanKind::NetSend)) * 1e-3;
  const double poll_us = static_cast<double>(tr.total_ns(SpanKind::NetPoll)) * 1e-3;
  res.add("core.batch_width", static_cast<double>(dsp::default_batch_width()), "lanes");
  res.add("net.send_us_per_chunk", send_us / chunks, "us");
  res.add("net.poll_us_per_event", poll_us / events, "us");
  res.add("net.client_wait_fraction", wait / wall, "fraction");
  res.add("net.inflight_chunks_mean", median_of(traced, &Round::inflight_mean), "chunks");
  res.add("net.up_bytes_per_sample", up / samples, "B");
  res.add("net.down_bytes_per_sample", down / samples, "B");
  res.add("allocs_per_chunk", allocs / chunks, "count");
  const double traced_wall = median_of(traced, &Round::wall_s);
  res.add("trace_overhead_pct", (traced_wall / plain_wall - 1.0) * 100.0, "%");

  const double other_us = wall * 1e6 - send_us - poll_us - wait * 1e6;
  note("reconcile: client wall " + fmt(wall * 1e6 / chunks, 3) + " us/chunk = send " +
       fmt(send_us / chunks, 3) + " + poll " + fmt(poll_us / chunks, 3) + " + wait " +
       fmt(wait * 1e6 / chunks, 3) + " + loop/checks " + fmt(other_us / chunks, 3) +
       " (unattributed share " + fmt(other_us / (wall * 1e6), 3) + ")");
  tr.write(opt.trace_out);
  return res;
}

} // namespace pb
