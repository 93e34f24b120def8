// Shared plumbing of the icgkit end-to-end benchmark: run options, the
// result record printed as the last output line, order statistics, the
// live-heap tracker behind the counting global operator new, and the
// in-memory span tracer of traced runs.
#pragma once
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}
inline double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span dump path (traced runs), empty = none
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the correctness verdict, the operation counts
/// and the metrics of its mode (end-to-end untraced, per-layer traced).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// A check outside the counted operations failed (a reference or
  /// truth check made before the timed phase): the run is not correct.
  void fail(const std::string& why);
  /// One counted operation failed its output check.
  void fail_op(const std::string& why);
};

/// q-quantile (0..1) by linear interpolation; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Prints one informational line to stdout (never the last line).
void note(const std::string& line);
std::string fmt(double v, int prec = 4);

// ---------------------------------------------------------------- heap
// Live-heap accounting by the counting global operator new/delete in
// alloc.cpp. Always on: mem_kb_per_session needs it in untraced runs.
namespace heap {
/// Makes the allocator keep memory a round frees for the next round
/// (glibc: fixed trim and mmap thresholds). Left to its defaults, glibc
/// returned the freed session state to the kernel in some processes and
/// not in others, depending on the heap layout, so set-up time swung by
/// the page faults of refilling 35 MB (2 or about 2 800 faults per
/// wire_bulk round, by seed).
void keep_freed_memory();
std::size_t live_bytes();
std::size_t peak_bytes();
/// Restarts peak tracking at the current live byte count.
void reset_peak();
std::uint64_t allocations();
} // namespace heap

// --------------------------------------------------------------- trace
enum class SpanKind : std::uint8_t {
  CapiPush,
  CapiPoll,
  CapiFinish,
  FleetTryPush,
  FleetPoll,
  NetSend,
  NetPoll,
  NetWait,
  kCount
};
const char* span_name(SpanKind k);

/// In-memory span recorder. Aggregates every span's duration per kind
/// and keeps the first kKeep spans verbatim for the dump written when
/// the run ends. Disabled (the untraced rounds) it records nothing and
/// reads no clock.
class Tracer {
 public:
  static constexpr std::size_t kKeep = 1u << 16;
  bool on = false;

  std::uint64_t begin() const { return on ? now_ns() : 0; }
  void end(SpanKind k, std::uint32_t id, std::uint64_t t0) {
    if (on) record(k, id, t0, now_ns());
  }
  /// Records a span whose clock readings the caller already took.
  void record(SpanKind k, std::uint32_t id, std::uint64_t t0, std::uint64_t t1) {
    if (!on) return;
    const auto i = static_cast<std::size_t>(k);
    total_ns_[i] += t1 - t0;
    if (spans_.size() < kKeep) spans_.push_back({t0, t1, id, k});
  }
  [[nodiscard]] std::uint64_t total_ns(SpanKind k) const {
    return total_ns_[static_cast<std::size_t>(k)];
  }
  void reserve() { spans_.reserve(kKeep); }
  /// Writes the kept spans as CSV (kind,id,start_ns,end_ns).
  void write(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t t0, t1;
    std::uint32_t id;
    SpanKind kind;
  };
  std::uint64_t total_ns_[static_cast<std::size_t>(SpanKind::kCount)] = {};
  std::vector<Span> spans_;
};

// -------------------------------------------------------------- rounds
/// A multi-session round normally ends within a second. One still
/// running 20 s after its engine was built is cut short: a terminal
/// record was lost, and every operation not yet complete counts as
/// failed instead of the run hanging.
inline constexpr std::uint64_t kRoundDeadlineNs = 20'000'000'000ull;

/// Runs `round(r)` into fresh records until `opt.seconds` have passed and
/// each mode has at least three rounds. Traced runs alternate untraced
/// and traced rounds (`tr.on`), so both see the same host conditions and
/// their difference is the tracing overhead.
template <typename R, typename F>
void run_rounds(const Options& opt, Tracer& tr, F&& round, std::vector<R>& plain,
                std::vector<R>& traced) {
  const std::uint64_t t_end = now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  while (now_ns() < t_end || plain.size() < 3 || (opt.trace && traced.size() < 3)) {
    tr.on = opt.trace && (plain.size() + traced.size()) % 2 == 1;
    R r;
    round(r);
    (tr.on ? traced : plain).push_back(r);
  }
  tr.on = false;
}

/// Median over records of one figure: a member pointer or `f(record)`.
template <typename R, typename F>
double median_of(const std::vector<R>& v, F f) {
  std::vector<double> x;
  x.reserve(v.size());
  for (const R& r : v) x.push_back(std::invoke(f, r));
  return median(std::move(x));
}

// ----------------------------------------------------------- workloads
Result run_device(const Options& opt);
Result run_fleet(const Options& opt);
Result run_wire(const Options& opt);

} // namespace pb
