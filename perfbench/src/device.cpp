// device_q31: the paper's firmware path. One Q31 session through the C
// ABI on a 10-minute severely corrupted recording in 25-sample (100 ms)
// pushes, polling after every push. Single-threaded; no fleet, no net.
// One operation is one whole pass: create, push every chunk, finish,
// drain, destroy.
#include "capi/icgkit.h"
#include "common.h"
#include "dsp/simd.h"
#include "inputs.h"
#include "layers.h"

#include <cstring>
#include <unordered_set>

namespace pb {

using namespace icgkit;

namespace {

constexpr double kDurationS = 600.0;
constexpr std::size_t kChunk = 25;

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// The C ABI beat against the direct engine's BeatRecord, field by field.
bool same_capi_beat(const icg_beat& a, const core::BeatRecord& b) {
  return a.r == b.points.r && a.b == b.points.b && a.c == b.points.c && a.x == b.points.x &&
         a.b0 == b.points.b0 && same_bits(a.c_amplitude, b.points.c_amplitude) &&
         same_bits(a.rr_s, b.rr_s) && same_bits(a.pep_s, b.hemo.pep_s) &&
         same_bits(a.lvet_s, b.hemo.lvet_s) && same_bits(a.hr_bpm, b.hemo.hr_bpm) &&
         same_bits(a.dzdt_max, b.hemo.dzdt_max) &&
         same_bits(a.sv_kubicek_ml, b.hemo.sv_kubicek_ml) &&
         same_bits(a.sv_sramek_ml, b.hemo.sv_sramek_ml) &&
         same_bits(a.co_kubicek_l_min, b.hemo.co_kubicek_l_min) &&
         same_bits(a.tfc_per_kohm, b.hemo.tfc_per_kohm) &&
         a.b_method == static_cast<std::uint32_t>(b.points.b_method) &&
         a.valid == (b.points.valid ? 1u : 0u) &&
         a.flaws == static_cast<std::uint32_t>(b.flaws);
}

struct Pass {
  double wall_s = 0.0, setup_s = 0.0, mem_kb = 0.0;
  double lag_p50_ms = 0.0;
  double push_ns_per_sample = 0.0;  ///< summed push + finish call time
  std::uint64_t allocs = 0;
  std::size_t beats = 0;
};

struct Device {
  const Input& in;
  const DirectFeed& ref;
  icg_config cfg{};
  std::vector<icg_beat> beats;
  std::vector<std::uint32_t> beat_chunk;
  std::vector<std::uint64_t> chunk_ns;
  std::vector<double> scratch;

  Device(const Input& input, const DirectFeed& reference) : in(input), ref(reference) {
    icg_config_init(&cfg);
    cfg.backend = ICG_BACKEND_Q31;
    cfg.sample_rate_hz = in.rec.fs;
    const std::size_t chunks = (in.samples() + kChunk - 1) / kChunk;
    beats.resize(ref.beats.size() + 256);
    beat_chunk.resize(beats.size());
    chunk_ns.resize(chunks + 1);
    scratch.reserve(beats.size() + chunks);
  }

  /// One whole pass; returns false (with `why`) when an output check fails.
  bool run(Tracer& tr, Pass& p, std::string& why) {
    const auto reject = [&why](std::string reason) {
      why = std::move(reason);
      return false;
    };
    const std::size_t n = in.samples();
    heap::reset_peak();
    const std::size_t base = heap::live_bytes();
    std::uint64_t t0 = now_ns();
    icg_session* s = icg_session_create(&cfg);
    p.setup_s = ns_to_s(now_ns() - t0);
    if (s == nullptr) return reject(std::string("icg_session_create: ") + icg_last_error());
    const std::uint64_t allocs0 = heap::allocations();
    std::size_t nb = 0, pushed = 0;
    bool ok = true;
    const auto drain = [&](std::uint32_t chunk) {
      for (;;) {
        if (nb == beats.size()) {
          ok = false;
          why = "more beats than the reference";
          return;
        }
        const std::uint64_t q0 = tr.begin();
        const int rc = icg_session_poll_beat(s, &beats[nb]);
        tr.end(SpanKind::CapiPoll, static_cast<std::uint32_t>(nb), q0);
        if (rc != 1) {
          if (rc < 0) {
            ok = false;
            why = std::string("poll: ") + icg_status_name(rc);
          }
          return;
        }
        beat_chunk[nb++] = chunk;
      }
    };
    const std::uint64_t start = now_ns();
    std::uint32_t c = 0;
    for (std::size_t i = 0; i < n && ok; i += kChunk, ++c) {
      const auto len = static_cast<std::uint32_t>(std::min(kChunk, n - i));
      const std::uint64_t a = now_ns();
      const int rc = icg_session_push(s, in.rec.ecg_mv.data() + i, in.rec.z_ohm.data() + i, len);
      const std::uint64_t b = now_ns();
      tr.record(SpanKind::CapiPush, c, a, b);
      chunk_ns[c] = b - a;
      if (rc < 0) {
        ok = false;
        why = std::string("push: ") + icg_status_name(rc);
        break;
      }
      pushed += len;
      if (rc > 0) drain(c);
    }
    if (ok) {
      const std::uint64_t a = now_ns();
      const int rc = icg_session_finish(s);
      const std::uint64_t b = now_ns();
      tr.record(SpanKind::CapiFinish, c, a, b);
      chunk_ns[c] = b - a;
      if (rc < 0) {
        ok = false;
        why = std::string("finish: ") + icg_status_name(rc);
      } else {
        drain(c);
      }
    }
    p.wall_s = ns_to_s(now_ns() - start);
    p.allocs = heap::allocations() - allocs0;
    icg_quality_summary q{};
    if (ok && icg_session_quality(s, &q) != ICG_OK) {
      ok = false;
      why = "quality query failed";
    }
    p.mem_kb = static_cast<double>(heap::peak_bytes() - base) / 1024.0;
    icg_session_destroy(s);
    if (!ok) return false;
    p.beats = nb;
    std::uint64_t push_ns = 0;
    for (std::uint32_t k = 0; k <= c; ++k) push_ns += chunk_ns[k];
    p.push_ns_per_sample = static_cast<double>(push_ns) / static_cast<double>(n);

    // Conservation and byte identity with the direct engine.
    if (pushed != n) return reject("samples pushed != samples sent");
    if (q.beats != nb) return reject("quality beat count != beats polled");
    if (nb != ref.beats.size()) return reject("beat count differs from the direct engine");
    for (std::size_t k = 0; k < nb; ++k)
      if (!same_capi_beat(beats[k], ref.beats[k]) || beat_chunk[k] != ref.emitted_by[k])
        return reject("beat " + std::to_string(k) + " differs from the direct engine");

    // Lag: R peak to the end of the returning push (signal time) plus
    // that push's wall time.
    const double fs = in.rec.fs;
    scratch.clear();
    for (std::size_t k = 0; k < nb; ++k) {
      const std::size_t end = std::min<std::size_t>(
          (static_cast<std::size_t>(beat_chunk[k]) + 1) * kChunk, n);
      scratch.push_back(static_cast<double>(end - beats[k].r) / fs * 1e3 +
                        ns_to_ms(chunk_ns[beat_chunk[k]]));
    }
    p.lag_p50_ms = median(scratch);
    return true;
  }
};

/// The same pushes straight into FixedStreamingBeatPipeline, each call
/// timed like the C ABI's: the comparator of capi.overhead_ns_per_sample.
double direct_ns_per_sample(const Input& in) {
  core::FixedStreamingBeatPipeline p(in.rec.fs);
  std::vector<core::BeatRecord> out;
  out.reserve(4096);
  const std::size_t n = in.samples();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t len = std::min(kChunk, n - i);
    const std::uint64_t a = now_ns();
    p.push_into(dsp::SignalView(in.rec.ecg_mv.data() + i, len),
                dsp::SignalView(in.rec.z_ohm.data() + i, len), out);
    const std::uint64_t b = now_ns();
    total += b - a;
    out.clear();
  }
  const std::uint64_t a = now_ns();
  p.finish_into(out);
  total += now_ns() - a;
  return static_cast<double>(total) / static_cast<double>(n);
}

std::vector<std::pair<std::size_t, double>> r_pairs(const std::vector<core::BeatRecord>& b) {
  std::vector<std::pair<std::size_t, double>> out;
  for (const core::BeatRecord& x : b) out.emplace_back(x.points.r, x.rr_s);
  return out;
}

/// Eight equal slices of one recording, the lanes of the batch timing.
std::vector<Input> slices(const Input& in, std::size_t count) {
  const std::size_t len = in.samples() / count;
  std::vector<Input> out(count);
  for (std::size_t l = 0; l < count; ++l) {
    out[l].rec.fs = in.rec.fs;
    const auto lo = static_cast<std::ptrdiff_t>(l * len);
    const auto hi = lo + static_cast<std::ptrdiff_t>(len);
    out[l].rec.ecg_mv.assign(in.rec.ecg_mv.begin() + lo, in.rec.ecg_mv.begin() + hi);
    out[l].rec.z_ohm.assign(in.rec.z_ohm.begin() + lo, in.rec.z_ohm.begin() + hi);
  }
  return out;
}

} // namespace

CapiLayers measure_capi(const std::vector<const Input*>& inputs, int reps, Result& res) {
  Tracer tr;
  std::vector<double> capi, direct;
  double samples = 0.0, beats = 0.0;
  for (const Input* in : inputs) {
    const DirectFeed ref = direct_feed<core::FixedStreamingBeatPipeline>(*in, kChunk);
    Device dev(*in, ref);
    for (int rep = 0; rep < reps; ++rep) {
      tr.on = true;
      Pass p;
      std::string why;
      if (!dev.run(tr, p, why)) res.fail("C ABI timing pass: " + why);
      tr.on = false;
      capi.push_back(p.push_ns_per_sample);
      direct.push_back(direct_ns_per_sample(*in));
      samples += static_cast<double>(in->samples());
      beats += static_cast<double>(p.beats);
    }
  }
  CapiLayers out;
  out.push_ns = static_cast<double>(tr.total_ns(SpanKind::CapiPush) +
                                    tr.total_ns(SpanKind::CapiFinish)) / samples;
  out.poll_ns = static_cast<double>(tr.total_ns(SpanKind::CapiPoll)) / beats;
  out.overhead_ns = median(capi) - median(direct);
  return out;
}

Result run_device(const Options& opt) {
  Result res;
  const std::vector<Input> inputs =
      make_inputs(1, kDurationS, Tier::Severe, opt.seed, /*one_subject=*/true);
  const Input& in = inputs[0];
  const std::size_t n = in.samples();
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  note("input: 1 recording of roster subject 1, " + fmt(kDurationS, 0) + " s, severe tier, " +
       std::to_string(n) + " samples, chunk " + std::to_string(kChunk));

  // References, built fresh before the timed phase.
  const DirectFeed q31 = direct_feed<core::FixedStreamingBeatPipeline>(in, kChunk);
  const DirectFeed dbl = direct_feed<core::StreamingBeatPipeline>(in, kChunk);
  const RScore score = score_r_peaks(in, r_pairs(q31.beats));
  note("truth: q31 sensitivity " + fmt(score.sensitivity()) + " ppv " + fmt(score.ppv()) +
       " (" + std::to_string(score.observable) + " observable beats)");
  if (score.sensitivity() < kTruthFloor || score.ppv() < kTruthFloor)
    res.fail("R-peak sensitivity/PPV below the floor");
  // Q31 R peaks must be among the double engine's. A Q31-only R peak in
  // the beats finish() flushes is counted and shown but does not fail:
  // on some seeds the Q31 flush confirms one last R that the double
  // flush does not, a parity gap of the engine, not of this input.
  std::unordered_set<std::size_t> dbl_r;
  for (const core::BeatRecord& b : dbl.beats) dbl_r.insert(b.points.r);
  std::size_t q31_only = 0, q31_only_at_finish = 0;
  for (std::size_t k = 0; k < q31.beats.size(); ++k) {
    if (dbl_r.count(q31.beats[k].points.r) != 0) continue;
    (q31.emitted_by[k] == q31.chunks ? q31_only_at_finish : q31_only) += 1;
  }
  const std::size_t double_only =
      dbl.beats.size() + q31_only + q31_only_at_finish - q31.beats.size();
  note("parity: q31 " + std::to_string(q31.beats.size()) + " beats, double " +
       std::to_string(dbl.beats.size()) + "; q31-only R peaks " + std::to_string(q31_only) +
       " (+" + std::to_string(q31_only_at_finish) + " flushed by finish), double-only R peaks " +
       std::to_string(double_only));
  if (q31_only != 0) res.fail("Q31 R peaks not contained in the double engine's");

  Device dev(in, q31);
  Tracer tr;
  if (opt.trace) tr.reserve();
  std::vector<Pass> plain, traced;
  std::vector<double> direct;
  std::vector<EngineLayers> layers;
  const std::uint64_t t_end = now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (std::size_t turn = 0;
       now_ns() < t_end || plain.size() < 3 || (opt.trace && layers.size() < 3); ++turn) {
    // Traced runs rotate untraced, traced, direct-engine and standalone
    // stage passes, so all four see the same host conditions: traced
    // against untraced is the tracing overhead, the C ABI against the
    // direct engine its cost, the stages the engine's decomposition.
    if (opt.trace && turn % 4 == 2) {
      direct.push_back(direct_ns_per_sample(in));
      continue;
    }
    if (opt.trace && turn % 4 == 3) {
      layers.push_back(measure_engine_layers<dsp::Q31Backend>({&in}, kChunk, 1));
      continue;
    }
    const bool trace_this = opt.trace && turn % 4 == 1;
    tr.on = trace_this;
    Pass p;
    std::string why;
    ++res.attempted;
    if (!dev.run(tr, p, why)) {
      res.fail_op(why);
      continue;
    }
    (trace_this ? traced : plain).push_back(p);
  }
  tr.on = false;
  if (plain.empty()) return res;

  note("passes: " + std::to_string(plain.size()) + " untraced, " +
       std::to_string(traced.size()) + " traced; " + std::to_string(chunks) +
       " pushes, a finish and " + std::to_string(plain[0].beats) + " beats per pass");
  const double plain_wall = median_of(plain, &Pass::wall_s);

  if (!opt.trace) {
    res.add("samples_per_s", static_cast<double>(n) / plain_wall, "samples/s");
    res.add("setup_s", median_of(plain, &Pass::setup_s), "s");
    res.add("beat_lag_p50_ms", median_of(plain, &Pass::lag_p50_ms), "ms");
    res.add("mem_kb_per_session", median_of(plain, &Pass::mem_kb), "KiB");
    return res;
  }

  // Per-layer figures: standalone stages on the same input and chunking.
  const EngineLayers L = median_layers(layers);
  const std::vector<Input> lanes = slices(in, 8);
  std::vector<const Input*> lane_ptrs;
  for (const Input& l : lanes) lane_ptrs.push_back(&l);
  const double batch_ns = measure_batch8(lane_ptrs, kChunk, 3);
  const CodecCosts codec = measure_codec(in, kChunk, 3);
  if (!codec.round_trip_ok) res.fail("wire codec round trip changed the samples");

  const double traced_samples = static_cast<double>(traced.size() * n);
  double traced_beats = 0.0, traced_allocs = 0.0;
  for (const Pass& p : traced) {
    traced_beats += static_cast<double>(p.beats);
    traced_allocs += static_cast<double>(p.allocs);
  }
  const double push_ns =
      static_cast<double>(tr.total_ns(SpanKind::CapiPush) + tr.total_ns(SpanKind::CapiFinish)) /
      traced_samples;
  const double poll_ns = static_cast<double>(tr.total_ns(SpanKind::CapiPoll)) / traced_beats;
  const double traced_wall = median_of(traced, &Pass::wall_s);
  res.add("dsp.ecg_clean_ns_per_sample", L.ecg_clean_ns, "ns");
  res.add("dsp.icg_condition_ns_per_sample", L.icg_condition_ns, "ns");
  res.add("ecg.qrs_front_ns_per_sample", L.qrs_front_ns, "ns");
  res.add("core.delineate_us_per_beat", L.delineate_us, "us");
  res.add("core.quality_us_per_beat", L.quality_us, "us");
  res.add("core.hemodynamics_us_per_beat", L.hemodynamics_us, "us");
  res.add("core.pipeline_ns_per_sample", L.pipeline_ns, "ns");
  res.add("core.glue_ns_per_sample", L.glue_ns, "ns");
  res.add("core.batch_width", static_cast<double>(dsp::default_batch_width()), "lanes");
  res.add("core.batch_ns_per_lane_sample", batch_ns, "ns");
  res.add("capi.push_ns_per_sample", push_ns, "ns");
  res.add("capi.poll_ns_per_beat", poll_ns, "ns");
  res.add("capi.overhead_ns_per_sample",
          median_of(plain, &Pass::push_ns_per_sample) - median(direct), "ns");
  res.add("net.encode_ns_per_chunk", codec.encode_ns, "ns");
  res.add("net.decode_ns_per_chunk", codec.decode_ns, "ns");
  res.add("allocs_per_chunk",
          traced_allocs / static_cast<double>(traced.size() * chunks), "count");
  res.add("trace_overhead_pct", (traced_wall / plain_wall - 1.0) * 100.0, "%");

  // Reconciliation: the ABI's in-path span time against the standalone
  // engine decomposition, and the untraced wall against the spans.
  const double tail_ns = (L.delineate_us + L.quality_us + L.hemodynamics_us) * 1e3 *
                         L.beats_per_sample;
  const double front_ns = L.ecg_clean_ns + L.icg_condition_ns + L.qrs_front_ns;
  const double abi_ns = push_ns + poll_ns * L.beats_per_sample;
  const double e2e_ns = plain_wall * 1e9 / static_cast<double>(n);
  note("reconcile: ABI push+poll " + fmt(abi_ns, 1) + " ns/sample vs front " +
       fmt(front_ns, 1) + " + tail " + fmt(tail_ns, 1) + " + glue " + fmt(L.glue_ns, 1) +
       " = " + fmt(front_ns + tail_ns + L.glue_ns, 1) + " ns/sample (ABI/engine " +
       fmt(abi_ns / (front_ns + tail_ns + L.glue_ns), 3) + ")");
  note("reconcile: untraced wall " + fmt(e2e_ns, 1) + " ns/sample vs traced ABI spans " +
       fmt(abi_ns, 1) + " ns/sample (spans/wall " + fmt(abi_ns / e2e_ns, 3) + ")");
  if (L.tail_mismatches != 0)
    note("tail: " + std::to_string(L.tail_mismatches) +
         " standalone delineations differ from the engine's");
  tr.write(opt.trace_out);
  return res;
}

} // namespace pb
