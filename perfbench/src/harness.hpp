// harness.hpp — clocks, host-speed reference, statistics, span tracing and
// the metric report shared by every workload of the benchmark.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace pb {

// ---- clocks ------------------------------------------------------------------
double wall_s();        ///< steady clock [s]
double process_cpu_s(); ///< CPU time of every thread of the process [s]
double thread_cpu_s();  ///< CPU time of the calling thread [s]
double peak_rss_mib();  ///< peak resident set of this process image [MiB]

// ---- statistics ---------------------------------------------------------------
/// Quantile with linear interpolation between order statistics (q in [0,1]).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- host-speed reference ---------------------------------------------------
/// One reading of the fixed calibration kernel, run on two threads at once
/// (the workloads' worker count): mean CPU ns per kernel step.
double calibrate();

/// Reference kernel cost the normalised metrics are expressed at: a value
/// times `kRefCalibNs / calibrate()` reads as if the host ran the kernel at
/// exactly this speed (about this host's usual reading).
constexpr double kRefCalibNs = 31.5;

/// `raw` expressed at the reference host speed.
inline double normalise(double raw, double calib_ns) { return raw * kRefCalibNs / calib_ns; }

// ---- tracing -------------------------------------------------------------------
/// Spans around every benchmark → program call, kept in memory (obs::SpanLog,
/// one trace id per run) and written as Chrome-trace JSON at exit. Span times
/// are wall seconds since the run started. Disabled, a Scope still measures
/// its own duration (the untraced run needs the timings) but records nothing.
class Tracer {
 public:
  Tracer(bool enabled, std::uint64_t trace_id);

  class Scope {
   public:
    Scope(Tracer& t, const char* name, ascp::obs::SpanCategory cat);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }
    /// Ends the span; returns its duration [s]. Idempotent.
    double close();

   private:
    Tracer& t_;
    std::uint64_t id_ = 0;
    double t0_;
    double dur_ = -1.0;
  };

  /// Suspend or resume recording (the traced run's untraced blocks).
  void set_recording(bool on) { recording_ = on; }
  double now() const { return wall_s() - origin_; }

  struct SelfRow {
    std::string name;
    long count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< total minus the part its child spans cover
  };
  /// Per-name totals and self times, in first-seen order.
  std::vector<SelfRow> self_times() const;
  std::size_t spans() const { return log_.size(); }
  std::uint64_t dropped() const { return log_.dropped() + log_.open_dropped(); }
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  bool recording_ = true;
  double origin_;
  ascp::obs::SpanLog log_;
};

// ---- report ------------------------------------------------------------------
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — one line.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace pb
