#include "layers.h"

#include "common.h"
#include "core/batch.h"
#include "core/delineator.h"
#include "core/hemodynamics.h"
#include "core/quality.h"
#include "core/stream.h"
#include "dsp/backend.h"
#include "ecg/pan_tompkins.h"
#include "net/wire.h"

#include <array>
#include <cstring>

namespace pb {

using namespace icgkit;

namespace {

/// Keeps a computed value observable so the timed loop is not elided.
volatile double g_sink = 0.0;

template <typename B>
std::vector<typename B::sample_t> quantize(const dsp::Signal& x, double fullscale) {
  std::vector<typename B::sample_t> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = B::kFixed ? B::from_real(x[i] / fullscale) : B::from_real(x[i]);
  return out;
}

struct FrontTimes {
  std::uint64_t ecg = 0, icg = 0, qrs = 0;
};

/// One pass of the three sample-rate stages over `in`, as the engine
/// constructs and drives them (pipeline.h, push_into phase 1).
template <typename B>
FrontTimes time_fronts(const Input& in, std::size_t chunk) {
  using S = typename B::sample_t;
  const dsp::Q31ScalingPolicy scaling{};
  const core::PipelineConfig cfg{};
  const double fs = in.rec.fs;
  const std::vector<S> e = quantize<B>(in.rec.ecg_mv, scaling.ecg_fullscale_mv);
  const std::vector<S> z = quantize<B>(in.rec.z_ohm, scaling.z_fullscale_ohm);
  core::BasicEcgCleanerStage<B> ecg_stage(fs, cfg.ecg_filter);
  core::BasicIcgConditionerStage<B> icg_stage(fs, cfg.icg_filter,
                                              B::kFixed ? scaling.icg_gain_log2 : 0);
  ecg::BasicOnlinePanTompkins<B> qrs(fs, cfg.qrs);
  std::vector<S> ecg_out, icg_out, feat;
  std::vector<std::uint32_t> ecg_cum, icg_cum, feat_cum;
  ecg_out.reserve(4 * chunk + 512);
  icg_out.reserve(4 * chunk + 512);
  feat.reserve(4 * chunk + 512);
  ecg_cum.reserve(chunk);
  icg_cum.reserve(chunk);
  feat_cum.reserve(4 * chunk + 512);
  FrontTimes t;
  const std::size_t n = e.size();
  for (std::size_t i = 0; i < n; i += chunk) {
    const std::size_t len = std::min(chunk, n - i);
    const std::uint64_t t0 = now_ns();
    icg_out.clear();
    icg_cum.clear();
    icg_stage.process_chunk(std::span<const S>(z.data() + i, len), icg_out, icg_cum);
    const std::uint64_t t1 = now_ns();
    ecg_out.clear();
    ecg_cum.clear();
    ecg_stage.process_chunk(std::span<const S>(e.data() + i, len), ecg_out, ecg_cum);
    const std::uint64_t t2 = now_ns();
    feat.clear();
    feat_cum.clear();
    qrs.front_chunk(ecg_out, feat, feat_cum);
    const std::uint64_t t3 = now_ns();
    t.icg += t1 - t0;
    t.ecg += t2 - t1;
    t.qrs += t3 - t2;
  }
  return t;
}

/// One beat's tail inputs, rebuilt from the engine's captured ICG.
struct TailCase {
  dsp::Signal window;
  core::BeatRecord engine_beat;
  double z0 = 0.0;
};

struct TailTimes {
  std::uint64_t delineate = 0, quality = 0, hemo = 0;
};

TailTimes time_tail(const std::vector<TailCase>& cases, double fs, std::size_t& mismatches) {
  const core::PipelineConfig cfg{};
  const core::IcgDelineator delineator(fs, cfg.delineation);
  core::DelineationScratch scratch;
  scratch.reserve(static_cast<std::size_t>(3.0 * fs));
  std::vector<core::BeatDelineation> points(cases.size());
  TailTimes t;
  std::uint64_t t0 = now_ns();
  for (std::size_t k = 0; k < cases.size(); ++k)
    points[k] = delineator.delineate(cases[k].window, 0, cases[k].window.size(), scratch);
  t.delineate = now_ns() - t0;

  mismatches = 0;
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const core::BeatDelineation& e = cases[k].engine_beat.points;
    if (points[k].c + e.r != e.c || points[k].b + e.r != e.b || points[k].x + e.r != e.x)
      ++mismatches;
    points[k].r += e.r;
    points[k].b += e.r;
    points[k].b0 += e.r;
    points[k].c += e.r;
    points[k].x += e.r;
  }

  std::uint32_t flaws = 0;
  t0 = now_ns();
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const core::BeatRecord& b = cases[k].engine_beat;
    const core::BeatFlaw f = core::assess_beat(points[k], b.rr_s, fs, cfg.quality) |
                             core::assess_signal(b.signal, cfg.quality);
    flaws += static_cast<std::uint32_t>(f);
  }
  t.quality = now_ns() - t0;

  double sv = 0.0;
  t0 = now_ns();
  for (std::size_t k = 0; k < cases.size(); ++k)
    sv += core::compute_beat_hemodynamics(points[k], cases[k].engine_beat.rr_s, cases[k].z0,
                                          fs, cfg.body)
              .sv_kubicek_ml;
  t.hemo = now_ns() - t0;
  g_sink = sv + flaws;
  return t;
}

template <typename B>
std::vector<TailCase> tail_cases(const Input& in) {
  core::BasicStreamingBeatPipeline<B> p(in.rec.fs);
  p.enable_capture();
  std::vector<core::BeatRecord> beats;
  p.push_into(in.rec.ecg_mv, in.rec.z_ohm, beats);
  p.finish_into(beats);
  const dsp::Signal& icg = p.captured_icg();
  std::vector<TailCase> out;
  for (const core::BeatRecord& b : beats) {
    const std::size_t r = b.points.r;
    const std::size_t r_next = r + static_cast<std::size_t>(std::lround(b.rr_s * in.rec.fs));
    if (r_next <= r || r_next > icg.size() || r_next > in.samples()) continue;
    TailCase c;
    c.window.assign(icg.begin() + static_cast<std::ptrdiff_t>(r),
                    icg.begin() + static_cast<std::ptrdiff_t>(r_next));
    double zs = 0.0;
    for (std::size_t i = r; i < r_next; ++i) zs += in.rec.z_ohm[i];
    c.z0 = zs / static_cast<double>(r_next - r);
    c.engine_beat = b;
    out.push_back(std::move(c));
  }
  return out;
}

/// Whole-engine push_into, timed per chunk exactly as the traced runs
/// time the C ABI and the fleet pushes.
template <typename B>
std::uint64_t time_pipeline(const Input& in, std::size_t chunk, std::size_t& beats) {
  core::BasicStreamingBeatPipeline<B> p(in.rec.fs);
  std::vector<core::BeatRecord> out;
  out.reserve(4096);
  const std::size_t n = in.samples();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; i += chunk) {
    const std::size_t len = std::min(chunk, n - i);
    const std::uint64_t t0 = now_ns();
    p.push_into(dsp::SignalView(in.rec.ecg_mv.data() + i, len),
                dsp::SignalView(in.rec.z_ohm.data() + i, len), out);
    total += now_ns() - t0;
  }
  const std::uint64_t t0 = now_ns();
  p.finish_into(out);
  total += now_ns() - t0;
  beats = out.size();
  return total;
}

/// Glue: the whole engine minus the front stages and the beat tail.
void set_glue(EngineLayers& l) {
  const double tail_ns =
      (l.delineate_us + l.quality_us + l.hemodynamics_us) * 1e3 * l.beats_per_sample;
  l.glue_ns = l.pipeline_ns - l.ecg_clean_ns - l.icg_condition_ns - l.qrs_front_ns - tail_ns;
}

} // namespace

template <typename B>
EngineLayers measure_engine_layers(const std::vector<const Input*>& inputs, std::size_t chunk,
                                   int reps) {
  std::size_t samples = 0;
  for (const Input* in : inputs) samples += in->samples();
  std::vector<std::vector<TailCase>> cases;
  for (const Input* in : inputs) cases.push_back(tail_cases<B>(*in));

  std::vector<double> ecg, icg, qrs, del, qual, hemo, pipe;
  std::size_t tail_beats = 0, engine_beats = 0, mismatches = 0;
  for (int rep = 0; rep < reps; ++rep) {
    FrontTimes f;
    TailTimes t;
    std::uint64_t p = 0;
    tail_beats = engine_beats = mismatches = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const FrontTimes fi = time_fronts<B>(*inputs[i], chunk);
      f.ecg += fi.ecg;
      f.icg += fi.icg;
      f.qrs += fi.qrs;
      std::size_t mm = 0;
      const TailTimes ti = time_tail(cases[i], inputs[i]->rec.fs, mm);
      t.delineate += ti.delineate;
      t.quality += ti.quality;
      t.hemo += ti.hemo;
      mismatches += mm;
      tail_beats += cases[i].size();
      std::size_t b = 0;
      p += time_pipeline<B>(*inputs[i], chunk, b);
      engine_beats += b;
    }
    const auto per_sample = [&](std::uint64_t ns) {
      return static_cast<double>(ns) / static_cast<double>(samples);
    };
    const auto per_beat_us = [&](std::uint64_t ns) {
      return tail_beats > 0 ? static_cast<double>(ns) * 1e-3 / static_cast<double>(tail_beats)
                            : 0.0;
    };
    ecg.push_back(per_sample(f.ecg));
    icg.push_back(per_sample(f.icg));
    qrs.push_back(per_sample(f.qrs));
    del.push_back(per_beat_us(t.delineate));
    qual.push_back(per_beat_us(t.quality));
    hemo.push_back(per_beat_us(t.hemo));
    pipe.push_back(per_sample(p));
  }
  EngineLayers out;
  out.ecg_clean_ns = median(ecg);
  out.icg_condition_ns = median(icg);
  out.qrs_front_ns = median(qrs);
  out.delineate_us = median(del);
  out.quality_us = median(qual);
  out.hemodynamics_us = median(hemo);
  out.pipeline_ns = median(pipe);
  out.beats_per_sample = static_cast<double>(engine_beats) / static_cast<double>(samples);
  out.tail_mismatches = mismatches;
  set_glue(out);
  return out;
}

EngineLayers median_layers(const std::vector<EngineLayers>& v) {
  const auto med = [&](double EngineLayers::*f) {
    std::vector<double> x;
    for (const EngineLayers& l : v) x.push_back(l.*f);
    return median(x);
  };
  EngineLayers out;
  out.ecg_clean_ns = med(&EngineLayers::ecg_clean_ns);
  out.icg_condition_ns = med(&EngineLayers::icg_condition_ns);
  out.qrs_front_ns = med(&EngineLayers::qrs_front_ns);
  out.delineate_us = med(&EngineLayers::delineate_us);
  out.quality_us = med(&EngineLayers::quality_us);
  out.hemodynamics_us = med(&EngineLayers::hemodynamics_us);
  out.pipeline_ns = med(&EngineLayers::pipeline_ns);
  out.beats_per_sample = v.empty() ? 0.0 : v[0].beats_per_sample;
  out.tail_mismatches = v.empty() ? 0 : v[0].tail_mismatches;
  set_glue(out);
  return out;
}

template EngineLayers measure_engine_layers<dsp::DoubleBackend>(
    const std::vector<const Input*>&, std::size_t, int);
template EngineLayers measure_engine_layers<dsp::Q31Backend>(const std::vector<const Input*>&,
                                                             std::size_t, int);

double measure_batch8(const std::vector<const Input*>& lanes, std::size_t chunk, int reps) {
  constexpr std::size_t W = 8;
  std::size_t n = lanes[0]->samples();
  for (const Input* in : lanes) n = std::min(n, in->samples());
  std::vector<double> per;
  for (int rep = 0; rep < reps; ++rep) {
    core::SessionBatch<W> batch(lanes[0]->rec.fs);
    std::array<std::vector<core::BeatRecord>, W> out;
    for (auto& o : out) o.reserve(4096);
    std::array<const double*, W> e{}, z{};
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; i += chunk) {
      const std::size_t len = std::min(chunk, n - i);
      for (std::size_t l = 0; l < W; ++l) {
        e[l] = lanes[l]->rec.ecg_mv.data() + i;
        z[l] = lanes[l]->rec.z_ohm.data() + i;
      }
      batch.push(e.data(), z.data(), len, out.data());
    }
    batch.finish(out.data());
    per.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(W * n));
    g_sink = static_cast<double>(out[0].size());
  }
  return median(per);
}

CodecCosts measure_codec(const Input& in, std::size_t chunk, int reps) {
  const std::size_t n = in.samples();
  net::RecordBuilder rb;
  std::vector<std::uint8_t> buf;
  buf.reserve(64 + 16 * chunk);
  std::vector<double> e_out(chunk), z_out(chunk);
  std::vector<double> enc, dec;
  CodecCosts c;
  for (int rep = 0; rep < reps; ++rep) {
    std::uint64_t t_enc = 0, t_dec = 0, records = 0;
    net::FrameDecoder decoder(1u << 20);
    std::vector<std::uint8_t> header;
    net::write_stream_header(header);
    decoder.feed(header.data(), header.size());
    for (std::size_t i = 0; i < n; i += chunk) {
      const std::size_t len = std::min(chunk, n - i);
      const std::uint64_t t0 = now_ns();
      buf.clear();
      core::StateWriter& w = rb.begin(net::kTagChunk);
      w.u32(1);
      w.u32(static_cast<std::uint32_t>(len));
      w.f64_array(in.rec.ecg_mv.data() + i, len);
      w.f64_array(in.rec.z_ohm.data() + i, len);
      rb.finish(buf);
      const std::uint64_t t1 = now_ns();
      decoder.feed(buf.data(), buf.size());
      net::Frame f;
      bool ok = decoder.next(f);
      if (ok) {
        net::PayloadReader r(f.payload);
        ok = r.u32() == 1 && r.u32() == len;
        if (ok) {
          r.f64_array(e_out.data(), len);
          r.f64_array(z_out.data(), len);
          r.expect_end();
        }
      }
      const std::uint64_t t2 = now_ns();
      t_enc += t1 - t0;
      t_dec += t2 - t1;
      ++records;
      if (!ok || std::memcmp(e_out.data(), in.rec.ecg_mv.data() + i, len * sizeof(double)) != 0 ||
          std::memcmp(z_out.data(), in.rec.z_ohm.data() + i, len * sizeof(double)) != 0)
        c.round_trip_ok = false;
    }
    enc.push_back(static_cast<double>(t_enc) / static_cast<double>(records));
    dec.push_back(static_cast<double>(t_dec) / static_cast<double>(records));
  }
  c.encode_ns = median(enc);
  c.decode_ns = median(dec);
  return c;
}

} // namespace pb
