#include "harness.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <thread>
#include <utility>

#include "obs/export.hpp"
#include "obs/profile.hpp"

namespace pb {

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

volatile double g_sink = 0.0;

// Fixed host-speed reference: 256 distinct small floating-point stages,
// each its own code, called in PRNG order through a function table, each
// reading and writing a 256 KiB state array. This is the channel
// pipeline's shape (scheduler tasks dispatched over many blocks' state),
// so it slows with contention for the core's front end and caches as the
// workloads do; a compact math-only loop tracks them worse (README.md).
constexpr int kStages = 256;
constexpr std::size_t kStateWords = 32768;
using Stage = double (*)(double, double*, std::uint64_t);

template <int K>
double stage(double x, double* st, std::uint64_t r) {
  constexpr double a = 1.0 - 0.5 / (K + 2), b = 0.25 + 1e-3 * K, c = 1.5 + 1e-2 * (K % 17);
  double& w = st[(r >> 20) & (kStateWords - 1)];
  double y = a * w + b * x;
  y = y * c - std::floor(y * c);
  if (K % 3 == 0) y = std::sqrt(y + 1e-3);
  else if (K % 3 == 1) y = y * y * (3.0 - 2.0 * y);
  w = y + 1e-9 * K;
  return x * 0.999 + y * 1e-3;
}

template <int... K>
constexpr std::array<Stage, sizeof...(K)> stage_table(std::integer_sequence<int, K...>) {
  return {&stage<K>...};
}

constexpr long kCalibSteps = 200000;

double timed_kernel(std::uint64_t seed) {
  static constexpr auto table = stage_table(std::make_integer_sequence<int, kStages>{});
  std::vector<double> st(kStateWords, 0.5);
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull | 1u;
  double x = 0.5;
  const double c0 = thread_cpu_s();
  for (long i = 0; i < kCalibSteps; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    x = table[s & (kStages - 1)](x, st.data(), s);
  }
  const double ns = (thread_cpu_s() - c0) * 1e9 / static_cast<double>(kCalibSteps);
  g_sink = g_sink + x;
  return ns;
}

}  // namespace

double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mib() {
  // VmHWM, the high-water mark of this process image. ru_maxrss would do,
  // but Linux carries it across exec from the launching process, so under
  // run.py it reads at least the Python interpreter's size.
  std::ifstream f("/proc/self/status");
  std::string key;
  double kib = 0.0;
  while (f >> key) {
    if (key == "VmHWM:") {
      f >> kib;
      break;
    }
  }
  return kib / 1024.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double calibrate() {
  double other = 0.0;
  std::thread t([&other] { other = timed_kernel(2); });
  const double mine = timed_kernel(1);
  t.join();
  return 0.5 * (mine + other);
}

// ---- Tracer --------------------------------------------------------------------

Tracer::Tracer(bool enabled, std::uint64_t trace_id)
    : enabled_(enabled), origin_(wall_s()), log_(enabled ? (1u << 17) : 1) {
  log_.set_trace_id(trace_id);
}

Tracer::Scope::Scope(Tracer& t, const char* name, ascp::obs::SpanCategory cat)
    : t_(t), t0_(t.now()) {
  if (t_.enabled_ && t_.recording_) id_ = t_.log_.begin(name, cat, t0_);
}

double Tracer::Scope::close() {
  if (dur_ >= 0.0) return dur_;
  const double t1 = t_.now();
  dur_ = t1 - t0_;
  if (id_) t_.log_.end(id_, t1, dur_ * 1e6);
  return dur_;
}

std::vector<Tracer::SelfRow> Tracer::self_times() const {
  struct Rec {
    std::string name;
    std::uint64_t parent;
    double dur;
  };
  std::map<std::uint64_t, Rec> spans;
  log_.for_each([&](const ascp::obs::Span& s) {
    spans[s.span_id] = {s.name, s.parent_id, s.t_end - s.t_begin};
  });
  // Spans are recorded on one thread, so a parent's children never overlap
  // each other: the covered part is the sum of their durations.
  std::map<std::uint64_t, double> covered;
  for (const auto& [id, r] : spans)
    if (r.parent && spans.count(r.parent)) covered[r.parent] += r.dur;
  std::vector<SelfRow> rows;
  std::map<std::string, std::size_t> index;
  for (const auto& [id, r] : spans) {
    auto [it, fresh] = index.emplace(r.name, rows.size());
    if (fresh) rows.push_back({r.name, 0, 0.0, 0.0});
    SelfRow& row = rows[it->second];
    ++row.count;
    row.total_ms += r.dur * 1e3;
    row.self_ms += (r.dur - (covered.count(id) ? covered[id] : 0.0)) * 1e3;
  }
  return rows;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  const ascp::obs::TaskProfiler no_tasks;
  std::ofstream f(path);
  if (!f) return false;
  f << ascp::obs::chrome_trace_json(no_tasks, nullptr, &log_);
  return static_cast<bool>(f);
}

// ---- report --------------------------------------------------------------------

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.12g", v);
    if (i) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace pb
