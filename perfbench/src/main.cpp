// perfbench — per-fidelity channel cost benchmark of the conditioning
// platform. Usage:
//
//   perfbench --workload full_sweep|ideal_mix|fleet_stream --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints a human-readable report, then one JSON result line. With --trace 0
// the metrics are the end-to-end ones (untraced); with --trace 1 the
// per-layer ones, from a traced run plus outside-in layer replays. See
// README.md beside this file for the metric → layer → workload map.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace pb;
using ascp::obs::SpanCategory;

// Timing metrics are normalised by the two-thread host reference read
// before every set-up and block: on repeated runs that tightened
// ns_per_tick, the tick latencies and setup_s (README.md has the figures).
// The raw values are printed beside them.
constexpr int kSetups = 3;             ///< set-ups per run; setup_s is their median
constexpr double kBlockSeconds = 0.5;  ///< wall time between host-speed readings
constexpr std::size_t kSoloChecks = 2; ///< channels re-run solo per run
/// Share of the steady blocks, the least host-disturbed ones, whose ticks
/// give the latency percentiles (see where they are computed).
constexpr double kLatencyBlockShare = 0.6;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), &end, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), &end);
    else if (k == "--trace") a->trace = std::atoi(v.c_str());
    else if (k == "--trace-out") a->trace_out = v;
    else return false;
    if (end && *end) return false;
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0.0 &&
         (a->trace == 0 || a->trace == 1);
}

/// One measured stretch of ticks between two host-speed readings.
struct Block {
  long ticks = 0;
  double cpu_s = 0.0;      ///< process CPU over the block
  double in_tick_s = 0.0;  ///< wall time inside the tick calls
  double worker_cpu_s = 0.0;
  bool traced = false;
  std::size_t first_latency = 0;  ///< index into the latency series
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  WorkloadId id{};
  if (!parse_args(argc, argv, &args) || !parse_workload(args.workload, &id)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload full_sweep|ideal_mix|fleet_stream --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  const bool traced_run = args.trace == 1;
  const WorkloadSpec spec = make_workload(id, args.seed);
  const std::size_t n_ch = spec.channels.size();
  Tracer tracer(traced_run, args.seed);
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d channels=%zu workers=%u\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, n_ch, Rig::kWorkers);

  // ---- set-up: construct + boot, several times -------------------------------
  std::vector<double> setup_raw, setup_norm, boot_ms;
  std::unique_ptr<Rig> rig;
  const double rss_base = peak_rss_mib();  // before anything workload-sized
  for (int s = 0; s < kSetups; ++s) {
    rig.reset();
    const double cal = calibrate();
    Tracer::Scope span(tracer, "setup", SpanCategory::Channel);
    const double w0 = wall_s();
    rig = std::make_unique<Rig>(spec, /*flight_recorders=*/true, tracer);
    const double wb = wall_s();
    rig->boot();
    const double w1 = wall_s();
    span.close();
    setup_raw.push_back(w1 - w0);
    setup_norm.push_back(normalise(w1 - w0, cal));
    boot_ms.push_back((w1 - wb) * 1e3);
  }

  // ---- steady state: closed-loop 5 ms ticks, host reading between blocks ----
  std::uint64_t attempted = n_ch, failed = rig->check_tick();  // boot counts as one op
  std::vector<double> calib;
  std::vector<Block> blocks;
  std::vector<double> latency_s, drain_s;
  ascp::engine::FleetSupervisor* fleet = rig->fleet();
  const long ckpt0 = fleet ? fleet->stats().checkpoints : 0;
  std::uint64_t rec0 = 0;
  for (std::size_t i = 0; i < n_ch; ++i)
    if (auto* r = rig->channel(i).flight_recorder()) rec0 += r->total();
  const long steady_tick0 = rig->ticks();
  const double t_start = wall_s();
  while (wall_s() - t_start < args.seconds || rig->ticks() - steady_tick0 < kMinSteadyTicks) {
    {
      Tracer::Scope span(tracer, "host_reference", SpanCategory::Scheduler);
      calib.push_back(calibrate());
    }
    // One unmeasured tick after each reading: the workers slept through it,
    // and their wake-up is the reading's cost, not the program's.
    rig->tick();
    failed += rig->check_tick();
    attempted += n_ch;
    Block b;
    b.traced = traced_run && (blocks.size() % 2 == 0);
    b.first_latency = latency_s.size();
    tracer.set_recording(!traced_run || b.traced);
    const double c0 = process_cpu_s(), m0 = thread_cpu_s(), w0 = wall_s();
    while (wall_s() - w0 < kBlockSeconds) {
      const double t0 = wall_s();
      rig->tick();
      const double dt = wall_s() - t0;
      latency_s.push_back(dt);
      b.in_tick_s += dt;
      if (fleet) drain_s.push_back(rig->last_drain_s());
      failed += rig->check_tick();
      attempted += n_ch;
      ++b.ticks;
    }
    b.cpu_s = process_cpu_s() - c0;
    // The caller only waits during a tick: everything else is the pool's.
    b.worker_cpu_s = b.cpu_s - (thread_cpu_s() - m0);
    blocks.push_back(b);
    tracer.set_recording(true);
  }
  calib.push_back(calibrate());
  // Peak RSS of set-up plus steady state; the solo re-runs below add
  // thread arenas that have nothing to do with the workload.
  const double peak_rss = peak_rss_mib();
  const double steady_wall = wall_s() - t_start;
  const long steady_ticks = rig->ticks() - steady_tick0;

  // Per-block ns per base tick per channel, raw and normalised. CPU time
  // does not count time the hypervisor takes the vCPUs away; wall latency
  // does, and on this host such episodes come and go within and between
  // runs. The pool's busy share of a block's in-tick wall time (worker CPU
  // over wall × workers, serial supervisor work set aside) drops when the
  // host steals. The program does the same work in every steady block, so
  // the latency percentiles come from the blocks with the higher busy
  // shares (the top kLatencyBlockShare of them): the least disturbed ones.
  // A program change that idles the pool lowers every block alike and
  // still shows.
  std::vector<double> ns_norm, ns_traced, ns_untraced, lat_raw, lat_norm, busy;
  double in_tick = 0.0, worker_cpu = 0.0;
  const double workers = static_cast<double>(Rig::kWorkers);
  auto busy_share = [&](const Block& b) {
    const double caller_cpu = b.cpu_s - b.worker_cpu_s;  // supervisor work: workers wait
    return b.worker_cpu_s / ((b.in_tick_s - caller_cpu) * workers);
  };
  for (const Block& b : blocks)
    if (!b.traced) busy.push_back(busy_share(b));
  const double busy_floor = quantile(busy, 1.0 - kLatencyBlockShare);
  std::size_t latency_blocks = 0;
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    const Block& b = blocks[k];
    const double cal = 0.5 * (calib[k] + calib[k + 1]);
    const double raw = b.cpu_s * 1e9 / (static_cast<double>(b.ticks * kBaseTicksPerTick) *
                                        static_cast<double>(n_ch));
    (b.traced ? ns_traced : ns_untraced).push_back(raw);
    if (b.traced) continue;
    ns_norm.push_back(normalise(raw, cal));
    in_tick += b.in_tick_s;
    worker_cpu += b.worker_cpu_s;
    if (busy_share(b) < busy_floor) continue;
    ++latency_blocks;
    for (long j = 0; j < b.ticks; ++j) {
      const double l = latency_s[b.first_latency + static_cast<std::size_t>(j)] * 1e3;
      lat_raw.push_back(l);
      lat_norm.push_back(normalise(l, cal));
    }
  }

  // ---- output checks ---------------------------------------------------------
  bool correct = true;
  rig->collect_outputs();
  double err_sq = 0.0;
  std::uint64_t err_n = 0;
  for (std::size_t i = 0; i < n_ch; ++i) {
    const OutputStats& st = rig->output_stats()[i];
    const auto& ch = rig->channel(i);
    if (st.seen != ch.total_outputs() || st.err_n != kErrSamples) {
      std::printf("CHECK FAILED: channel %zu delivered %llu of %llu samples, %llu in the "
                  "rate-error window\n",
                  i, static_cast<unsigned long long>(st.seen),
                  static_cast<unsigned long long>(ch.total_outputs()),
                  static_cast<unsigned long long>(st.err_n));
      correct = false;
    }
    // Each channel's own mean error (its uncalibrated null and scale trim)
    // is removed; README.md explains why.
    if (st.err_n) err_sq += st.err_sq - st.err_sum * st.err_sum / static_cast<double>(st.err_n);
    err_n += st.err_n;
  }
  if (fleet) {
    const auto& s = fleet->stats();
    if (s.exceptions || s.restarts || s.quarantined || s.shed_channel_ticks ||
        s.stalls_detected) {
      std::printf("CHECK FAILED: fleet exceptions=%ld restarts=%ld quarantined=%ld shed=%ld "
                  "stalls=%ld\n",
                  s.exceptions, s.restarts, s.quarantined, s.shed_channel_ticks,
                  s.stalls_detected);
      correct = false;
    }
  }

  // Seeded subset re-run solo, one thread per channel, outside the timed region.
  {
    Tracer::Scope span(tracer, "solo_rerun", SpanCategory::Channel);
    ascp::Rng pick(args.seed ^ 0x5EEDC0DEull);
    std::vector<std::size_t> subset;
    while (subset.size() < kSoloChecks && subset.size() < n_ch) {
      const std::size_t i = static_cast<std::size_t>(pick.next_u64() % n_ch);
      if (std::find(subset.begin(), subset.end(), i) == subset.end()) subset.push_back(i);
    }
    std::vector<SoloResult> solo(subset.size());
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < subset.size(); ++k)
      threads.emplace_back([&, k] {
        try {
          solo[k] = run_solo(rig->channel(subset[k]).config(), rig->booted_in_one_call(),
                             rig->ticks());
        } catch (const std::exception& e) {
          std::printf("CHECK FAILED: solo re-run of channel %zu threw: %s\n", subset[k],
                      e.what());  // left as {0, 0}: counts as a mismatch below
        }
      });
    for (auto& t : threads) t.join();
    for (std::size_t k = 0; k < subset.size(); ++k) {
      const auto& ch = rig->channel(subset[k]);
      const bool ok = solo[k].hash == ch.output_hash() && solo[k].samples == ch.total_outputs();
      std::printf("output_hash channel %zu (%s): run %016llx solo %016llx samples %llu %s\n",
                  subset[k], spec.channels[subset[k]].cls.c_str(),
                  static_cast<unsigned long long>(ch.output_hash()),
                  static_cast<unsigned long long>(solo[k].hash),
                  static_cast<unsigned long long>(ch.total_outputs()), ok ? "match" : "MISMATCH");
      if (!ok) {
        correct = false;
        failed += static_cast<std::uint64_t>(rig->ticks() - kBootTicks + 1);
      }
    }
  }
  if (failed) correct = false;

  const double failed_pct = 100.0 * static_cast<double>(failed) / static_cast<double>(attempted);
  const double rate_err = err_n ? std::sqrt(err_sq / static_cast<double>(err_n)) : 0.0;
  std::printf("\nsteady: %ld ticks in %.2f s wall (%zu blocks), %.3f CPU-s per simulated "
              "channel-second\n",
              steady_ticks, steady_wall, blocks.size(),
              median(ns_untraced) * kBaseRateHz * 1e-9);
  std::printf("host reference: %.3f ns/op (IQR %.3f..%.3f, %zu readings)\n", median(calib),
              quantile(calib, 0.25), quantile(calib, 0.75), calib.size());
  std::printf("raw (not normalised): ns_per_tick %.3f  setup_s %.4f  tick_ms p50 %.3f p95 %.3f\n",
              median(ns_untraced), median(setup_raw), quantile(lat_raw, 0.5),
              quantile(lat_raw, 0.95));
  std::printf("setups [s]:");
  for (double s : setup_raw) std::printf(" %.4f", s);
  std::printf("\ntick latency: %zu ticks, %zu beyond p95, from the %zu of %zu blocks with pool "
              "busy share >= %.3f (run median %.3f)\n",
              lat_raw.size(), static_cast<std::size_t>(static_cast<double>(lat_raw.size()) * 0.05),
              latency_blocks, busy.size(), busy_floor, median(busy));
  std::printf("failed_ops_pct %.4f %% (%llu of %llu channel x advance operations)\n",
              failed_pct, static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::vector<Metric> metrics;
  if (!traced_run) {
    metrics = {
        {"ns_per_tick", median(ns_norm), "ns"},
        {"setup_s", median(setup_norm), "s"},
        {"tick_ms_p50", quantile(lat_norm, 0.5), "ms"},
        {"tick_ms_p95", quantile(lat_norm, 0.95), "ms"},
        {"peak_rss_mb", peak_rss, "MiB"},
        {"rate_err_dps", rate_err, "deg/s"},
    };
  } else {
    // Recorder cost on the fleet: the armed rig against an unarmed twin
    // fleet, alternating blocks of ticks so both see the same host.
    double recorder_overhead = 0.0;
    if (fleet) {
      Tracer::Scope span(tracer, "recorder_off_fleet", SpanCategory::Fleet);
      Rig off(spec, /*flight_recorders=*/false, tracer);
      off.boot();
      std::vector<double> on_ns, off_ns;
      for (int k = 0; k < 8; ++k) {
        Rig& r = (k % 2 == 0) ? *rig : off;
        const double c0 = process_cpu_s();
        for (int j = 0; j < 8; ++j) {
          r.tick();
          if (&r == rig.get()) {
            failed += rig->check_tick();
            attempted += n_ch;
          }
        }
        ((k % 2 == 0) ? on_ns : off_ns).push_back(process_cpu_s() - c0);
      }
      recorder_overhead = 100.0 * (median(on_ns) / median(off_ns) - 1.0);
    }

    LayerReport layers = replay_layers(spec, *rig, tracer);
    const double ns_tick = median(ns_untraced);
    std::uint64_t rec1 = 0;
    for (std::size_t i = 0; i < n_ch; ++i)
      if (auto* r = rig->channel(i).flight_recorder()) rec1 += r->total();
    metrics = layers.metrics;
    metrics.push_back({"platform.unattributed_ns", ns_tick - layers.layer_sum_ns, "ns"});
    metrics.push_back({"trace.ns_per_tick", ns_tick, "ns"});
    metrics.push_back(
        {"trace.overhead_pct", 100.0 * (median(ns_traced) / ns_tick - 1.0), "%"});
    metrics.push_back({"host.calib_ns", median(calib), "ns"});
    metrics.push_back(
        {"rss_per_channel_mb", (peak_rss - rss_base) / static_cast<double>(n_ch), "MiB"});
    metrics.push_back({"engine.boot_ms", median(boot_ms), "ms"});
    metrics.push_back(
        {"engine.checkpoints", fleet ? static_cast<double>(fleet->stats().checkpoints - ckpt0) : 0.0,
         "count"});
    metrics.push_back({"engine.drain_us", drain_s.empty() ? 0.0 : 1e6 * median(drain_s), "us"});
    metrics.push_back(
        {"engine.pool_idle_pct", 100.0 * (1.0 - worker_cpu / (in_tick * workers)), "%"});
    metrics.push_back({"obs.recorder_records",
                       static_cast<double>(rec1 - rec0) /
                           (static_cast<double>(n_ch) * static_cast<double>(rig->ticks() - steady_tick0) *
                            kTickSeconds),
                       "count/s"});
    metrics.push_back({"obs.recorder_overhead_pct", recorder_overhead, "%"});

    std::printf("\nreconciliation: layers %.2f + unattributed %.2f = %.2f ns/tick (traced run, "
                "raw)\n",
                layers.layer_sum_ns, ns_tick - layers.layer_sum_ns, ns_tick);
    std::printf("\nspan self times (%zu spans, %llu dropped)\n%-28s %7s %11s %11s\n",
                tracer.spans(), static_cast<unsigned long long>(tracer.dropped()), "span",
                "count", "total_ms", "self_ms");
    for (const auto& r : tracer.self_times())
      std::printf("%-28s %7ld %11.2f %11.2f\n", r.name.c_str(), r.count, r.total_ms, r.self_ms);
    if (!args.trace_out.empty()) {
      if (tracer.write_chrome_trace(args.trace_out))
        std::printf("chrome trace: %s\n", args.trace_out.c_str());
      else
        std::printf("chrome trace: could not write %s\n", args.trace_out.c_str());
    }
    if (failed) correct = false;
  }

  std::printf("\n%-32s %16s  %s\n", "metric", "value", "unit");
  for (const auto& m : metrics)
    std::printf("%-32s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  return 0;
}
