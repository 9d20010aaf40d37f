#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <utility>

#include "afe/dac.hpp"
#include "common/rng.hpp"
#include "common/state_archive.hpp"
#include "core/baselines.hpp"
#include "core/gyro_system.hpp"
#include "obs/mcu_profile.hpp"
#include "sensor/stimulus_source.hpp"

namespace pb {

namespace {

namespace eng = ascp::engine;
namespace core = ascp::core;
namespace sensor = ascp::sensor;
using ascp::obs::SpanCategory;
using sensor::ProbePoint;

constexpr long kCaptureTicks = 32768;  ///< 4096 DSP samples, 32 output samples
constexpr long kCountTicks = 4096;     ///< stretch the noise-draw counter replays
constexpr long kObsTicks = 48000;      ///< with-obs twin stretch (task / insn counts)
constexpr int kPasses = 5;             ///< timed replay passes, after one warm-up
constexpr int kMcuSlices = 2000;       ///< run_cpu() slices timed per firmware
volatile double g_sink = 0.0;

/// Records the chain taps of the twin once armed (after boot).
class Capture final : public sensor::Probe {
 public:
  bool armed = false;
  long t0 = 0;  ///< global tick the capture starts at
  std::vector<double> rate, temp, dcp, dcs, vp, vs, sp, ss;
  std::vector<long> adc_tick;  ///< capture-relative tick of each ADC sample

  bool wants(ProbePoint p) const override { return p != ProbePoint::DecimatedOutput; }
  void on_frame(const sensor::ProbeFrame& f) override {
    if (!armed) return;
    switch (f.point) {
      case ProbePoint::Stimulus: rate.push_back(f.a); temp.push_back(f.b); break;
      case ProbePoint::PostMems: dcp.push_back(f.a); dcs.push_back(f.b); break;
      case ProbePoint::PostAfe: vp.push_back(f.a); vs.push_back(f.b); break;
      case ProbePoint::PostAdc:
        sp.push_back(f.a);
        ss.push_back(f.b);
        adc_tick.push_back(f.tick - t0);
        break;
      case ProbePoint::DecimatedOutput: break;
    }
  }
};

/// Median thread-CPU ns of one `pass`, divided by `n` (warm-up pass first).
template <class F>
double ns_per(Tracer& tracer, const char* span, long n, F&& pass) {
  Tracer::Scope s(tracer, span, SpanCategory::Scheduler);
  pass();
  std::vector<double> t;
  for (int k = 0; k < kPasses; ++k) {
    const double c0 = thread_cpu_s();
    pass();
    t.push_back(thread_cpu_s() - c0);
  }
  return median(t) * 1e9 / static_cast<double>(n);
}

template <class F>
double median_wall_ms(int reps, F&& fn) {
  std::vector<double> t;
  for (int k = 0; k < reps; ++k) {
    const double w0 = wall_s();
    fn();
    t.push_back((wall_s() - w0) * 1e3);
  }
  return median(t);
}

template <class T>
std::vector<std::uint8_t> state_of(T& component) {
  ascp::StateArchive ar = ascp::StateArchive::saver();
  component.serialize_state(ar);
  return ar.take();
}

// Counts the xoshiro256++ steps every ascp::Rng stream inside a component
// took between two saved states. The streams are found, not assumed: any
// 32-byte window that changed and whose old value, stepped forward, becomes
// the new one is a generator state. Each Box–Muller pair takes two steps and
// yields two deviates, so steps count Gaussian draws.
std::uint64_t rng_steps(const std::vector<std::uint8_t>& a, const std::vector<std::uint8_t>& b,
                        std::uint64_t max_steps) {
  auto rotl = [](std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); };
  std::uint64_t total = 0;
  for (std::size_t o = 0; o + 32 <= a.size() && o + 32 <= b.size(); ++o) {
    if (std::memcmp(a.data() + o, b.data() + o, 32) == 0) continue;
    std::uint64_t s[4], t[4];
    std::memcpy(s, a.data() + o, 32);
    std::memcpy(t, b.data() + o, 32);
    for (std::uint64_t k = 1; k <= max_steps; ++k) {
      const std::uint64_t u = s[1] << 17;
      s[2] ^= s[0];
      s[3] ^= s[1];
      s[1] ^= s[2];
      s[0] ^= s[3];
      s[2] ^= u;
      s[3] = rotl(s[3], 45);
      if (std::memcmp(s, t, 32) == 0) {
        total += k;
        o += 31;
        break;
      }
    }
  }
  return total;
}

template <class T, class F>
double draws_per_tick(T& component, F&& pass) {
  const auto a = state_of(component);
  pass();
  const auto b = state_of(component);
  return static_cast<double>(rng_steps(a, b, 16 * kCountTicks)) / kCountTicks;
}

/// Cost of one attribution class, ns per base tick per channel unless noted.
struct ClassCost {
  std::string cls;
  eng::ChannelKind kind{};
  int count = 0;
  double stimulus = 0, mems = 0, champ = 0, acq = 0, dac = 0, drive = 0, sense = 0,
         supervisor = 0, mcu_slice = 0;
  double sense_block_per_sample = 0;  ///< 0 unless the batched sense path runs
  double ns_per_insn = 0, insns_per_tick = 0, draws_per_tick = 0;
  double task_calls_per_tick = 0, probe_frames_per_tick = 0;
  double construct_ms = 0, snapshot_us = 0, restore_us = 0, image_kib = 0;
  double checkpoint = 0;  ///< fleet checkpoint snapshots amortised per tick
};

sensor::SyntheticSource source_of(const eng::ChannelConfig& cfg) {
  return sensor::SyntheticSource(
      cfg.rate_profile ? *cfg.rate_profile : sensor::Profile::constant(cfg.rate_dps),
      cfg.temp_profile ? *cfg.temp_profile : sensor::Profile::constant(cfg.temp_c),
      kBaseRateHz);
}

core::GyroSystemConfig system_config(const eng::ChannelConfig& cfg) {
  core::GyroSystemConfig s = core::default_gyro_system(
      cfg.kind == eng::ChannelKind::GyroFull ? core::Fidelity::Full : core::Fidelity::Ideal);
  s.with_safety = cfg.with_safety || cfg.with_faults;
  if (cfg.configure) cfg.configure(s);
  s.stimulus_global_time = true;
  return s;
}

std::unique_ptr<core::GyroSystem> build_system(const eng::ChannelConfig& cfg) {
  auto sys = std::make_unique<core::GyroSystem>(system_config(cfg));
  if (cfg.customize) cfg.customize(*sys);
  sys->power_on(cfg.seed);
  return sys;
}

void replay_gyro(const eng::ChannelConfig& cfg, const ChannelPlan& plan, const Capture& cap,
                 Tracer& tr, ClassCost& c) {
  const bool full = cfg.kind == eng::ChannelKind::GyroFull;
  const core::GyroSystemConfig scfg = system_config(cfg);
  auto sys = build_system(cfg);
  const long n = static_cast<long>(cap.rate.size());
  const std::size_t m = cap.sp.size();

  // Drive loop first: its outputs (drive voltage, carriers, lock state) are
  // the inputs the sense chain, supervisor, DACs and MEMS replays need.
  std::vector<double> dv(m), ci(m), cq(m), cv(m, 0.0), agc(m), amp(m);
  std::vector<char> pll(m), settled(m);
  {
    core::DriveLoop& d = sys->drive();
    for (std::size_t k = 0; k < m; ++k) {
      dv[k] = d.step(cap.sp[k]);
      ci[k] = d.carrier_i();
      cq[k] = d.carrier_q();
      pll[k] = d.pll_locked();
      settled[k] = d.locked();
      agc[k] = d.amplitude_control();
      amp[k] = d.amplitude();
    }
    c.drive = ns_per(tr, "replay.DriveLoop", n, [&] {
      double acc = 0;
      for (std::size_t k = 0; k < m; ++k) acc += d.step(cap.sp[k]);
      g_sink = acc;
    });
  }

  const bool batched = plan.open_loop && !scfg.with_safety && !scfg.with_mcu;
  {
    core::SenseChain& s = sys->sense();
    auto temp_at = [&](std::size_t k) { return cap.temp[static_cast<std::size_t>(cap.adc_tick[k])]; };
    auto serial = [&](bool record) {
      double acc = 0;
      for (std::size_t k = 0; k < m; ++k) {
        const double ctl = s.step(cap.ss[k], ci[k], cq[k]).control_v;
        if (record) cv[k] = ctl;
        if (const auto slow = s.slow_output(temp_at(k))) acc += slow->rate;
      }
      g_sink = acc;
    };
    auto block = [&] {
      double acc = 0;
      for (std::size_t k = 0; k < m;) {
        const std::size_t len =
            std::min<std::size_t>(m - k, static_cast<std::size_t>(std::max(1L, s.samples_until_slow())));
        s.step_block(std::span(cap.ss).subspan(k, len), std::span(ci).subspan(k, len),
                     std::span(cq).subspan(k, len));
        for (std::size_t j = k; j < k + len; ++j)
          if (const auto slow = s.slow_output(temp_at(j))) acc += slow->rate;
        k += len;
      }
      g_sink = acc;
    };
    if (batched) {
      c.sense = ns_per(tr, "replay.SenseChain.block", n, block);
      c.sense_block_per_sample = c.sense * static_cast<double>(n) / static_cast<double>(m);
    } else {
      serial(true);
      c.sense = ns_per(tr, "replay.SenseChain", n, [&] { serial(false); });
    }
  }

  if (auto* sup = sys->supervisor()) {
    c.supervisor = ns_per(tr, "replay.Supervisor", n, [&] {
      for (std::size_t k = 0; k < m; ++k) {
        ascp::safety::FastSample f;
        f.primary_adc_v = cap.sp[k];
        f.sense_adc_v = cap.ss[k];
        f.pll_locked = pll[k];
        f.loop_settled = settled[k];
        f.agc_gain = agc[k];
        f.amplitude = amp[k];
        f.control_v = cv[k];
        sup->on_fast(f);
      }
    });
  }

  // Electrode voltages per tick: through the DACs at Full fidelity (DSP
  // writes on ADC ticks, the analog side reads every tick), latched DSP
  // outputs at Ideal.
  std::vector<double> vd(static_cast<std::size_t>(n)), vc(static_cast<std::size_t>(n));
  {
    const double dt = 1.0 / kBaseRateHz;
    ascp::Rng rng(cfg.seed);
    ascp::afe::Dac dd(scfg.dac, rng.fork(6)), dc(scfg.dac, rng.fork(7));
    auto dac_pass = [&](bool record) {
      std::size_t k = 0;
      double dvk = 0, cvk = 0;
      for (long t = 0; t < n; ++t) {
        if (k < m && cap.adc_tick[k] == t) {
          dvk = dv[k];
          cvk = cv[k];
          if (full) {
            dd.write_volts(dvk);
            dc.write_volts(cvk);
          }
          ++k;
        }
        const std::size_t ti = static_cast<std::size_t>(t);
        if (full) {
          const double a = dd.output(dt, cap.temp[ti]);
          const double b = dc.output(dt, cap.temp[ti]);
          if (record) vd[ti] = a, vc[ti] = b;
        } else if (record) {
          vd[ti] = dvk;
          vc[ti] = cvk;
        }
      }
    };
    dac_pass(true);
    if (full) c.dac = ns_per(tr, "replay.Dac", n, [&] { dac_pass(false); });
  }

  {
    sensor::GyroMems& mems = sys->mems();
    auto pass = [&](long len) {
      double acc = 0;
      for (long t = 0; t < len; ++t) {
        const std::size_t ti = static_cast<std::size_t>(t);
        sensor::GyroInputs in;
        in.v_drive = vd[ti];
        in.v_control = vc[ti];
        in.rate_dps = cap.rate[ti];
        in.temp_c = cap.temp[ti];
        acc += mems.step(in).dc_sense;
      }
      g_sink = acc;
    };
    c.mems = ns_per(tr, "replay.GyroMems", n, [&] { pass(n); });
    c.draws_per_tick += draws_per_tick(mems, [&] { pass(kCountTicks); });
  }

  {
    auto stim = source_of(cfg);
    c.stimulus = ns_per(tr, "replay.StimulusSource", n, [&] {
      double acc = 0;
      for (long t = 0; t < n; ++t) acc += stim.sample(cap.t0 + t).rate_dps;
      g_sink = acc;
    });
  }

  if (full) {
    ascp::afe::ChargeAmp& cp = *sys->champ_primary();
    ascp::afe::ChargeAmp& cs = *sys->champ_sense();
    auto champ = [&](long len) {
      double acc = 0;
      for (long t = 0; t < len; ++t) {
        const std::size_t ti = static_cast<std::size_t>(t);
        acc += cp.step(cap.dcp[ti], cap.temp[ti]) + cs.step(cap.dcs[ti], cap.temp[ti]);
      }
      g_sink = acc;
    };
    c.champ = ns_per(tr, "replay.ChargeAmp", n, [&] { champ(n); });
    // Both amplifiers step in one pass; count each one's streams separately.
    {
      const auto a0 = state_of(cp), b0 = state_of(cs);
      champ(kCountTicks);
      const auto a1 = state_of(cp), b1 = state_of(cs);
      c.draws_per_tick += static_cast<double>(rng_steps(a0, a1, 16 * kCountTicks) +
                                              rng_steps(b0, b1, 16 * kCountTicks)) /
                          kCountTicks;
    }
    ascp::afe::AcquisitionChannel& ap = *sys->acq_primary();
    ascp::afe::AcquisitionChannel& as = *sys->acq_sense();
    auto acq = [&](long len) {
      double acc = 0;
      for (long t = 0; t < len; ++t) {
        const std::size_t ti = static_cast<std::size_t>(t);
        if (const auto v = ap.step(cap.vp[ti], cap.temp[ti])) acc += *v;
        if (const auto v = as.step(cap.vs[ti], cap.temp[ti])) acc += *v;
      }
      g_sink = acc;
    };
    c.acq = ns_per(tr, "replay.AcquisitionChannel", n, [&] { acq(n); });
    const auto a0 = state_of(ap), b0 = state_of(as);
    acq(kCountTicks);
    const auto a1 = state_of(ap), b1 = state_of(as);
    c.draws_per_tick += static_cast<double>(rng_steps(a0, a1, 16 * kCountTicks) +
                                            rng_steps(b0, b1, 16 * kCountTicks)) /
                        kCountTicks;
  }

  if (scfg.with_mcu) {
    // Two identical systems: one counts retired instructions through the
    // McuProfiler, the other runs the same slices untimed-by-profiler.
    auto counted = build_system(cfg);
    ascp::obs::McuProfiler prof;
    counted->platform().cpu().set_profiler(&prof);
    const long cps = counted->platform().cycles_per_sample(counted->output_rate_hz());
    for (int k = 0; k < kMcuSlices; ++k) counted->platform().run_cpu(cps);
    auto timed = build_system(cfg);
    Tracer::Scope s(tr, "replay.Core8051", SpanCategory::Scheduler);
    const double c0 = thread_cpu_s();
    for (int k = 0; k < kMcuSlices; ++k) timed->platform().run_cpu(cps);
    const double cpu = thread_cpu_s() - c0;
    if (prof.instructions() > 0)
      c.ns_per_insn = cpu * 1e9 / static_cast<double>(prof.instructions());
  }
}

void replay_baseline(const eng::ChannelConfig& cfg, const Capture& cap, Tracer& tr,
                     ClassCost& c) {
  const core::BaselineConfig bl = cfg.kind == eng::ChannelKind::Adxrs300
                                      ? core::adxrs300_like()
                                      : core::gyrostar_like();
  sensor::GyroMemsConfig mc = bl.mems;
  mc.sim_fs = bl.analog_fs;
  ascp::Rng rng(cfg.seed);
  sensor::GyroMems mems(mc, rng.fork(1));
  core::DriveLoopConfig dcfg = bl.drive;
  dcfg.pll.fs = dcfg.agc.fs = bl.analog_fs / bl.loop_div;
  core::DriveLoop drive(dcfg);
  const double v_per_m = bl.sense_gain_v_per_m / bl.mems.cap_per_meter;
  const long n = static_cast<long>(cap.rate.size());

  std::vector<double> vdrive(static_cast<std::size_t>(n));
  auto drive_pass = [&](bool record) {
    double v = 0.0;
    for (long t = 0; t < n; ++t) {
      if (t % bl.loop_div == bl.loop_div - 1)
        v = drive.step(v_per_m * cap.dcp[static_cast<std::size_t>(t)]);
      if (record) vdrive[static_cast<std::size_t>(t)] = v;
    }
    g_sink = v;
  };
  drive_pass(true);
  c.drive = ns_per(tr, "replay.DriveLoop", n, [&] { drive_pass(false); });

  auto mems_pass = [&](long len) {
    double acc = 0;
    for (long t = 0; t < len; ++t) {
      const std::size_t ti = static_cast<std::size_t>(t);
      sensor::GyroInputs in;
      in.v_drive = vdrive[ti];
      in.rate_dps = cap.rate[ti];
      in.temp_c = cap.temp[ti];
      acc += mems.step(in).dc_sense;
    }
    g_sink = acc;
  };
  c.mems = ns_per(tr, "replay.GyroMems", n, [&] { mems_pass(n); });
  c.draws_per_tick = draws_per_tick(mems, [&] { mems_pass(kCountTicks); });

  auto stim = source_of(cfg);
  c.stimulus = ns_per(tr, "replay.StimulusSource", n, [&] {
    double acc = 0;
    for (long t = 0; t < n; ++t) acc += stim.sample(cap.t0 + t).rate_dps;
    g_sink = acc;
  });
}

/// Scheduler task invocations, probe-tap invocations and retired 8051
/// instructions per base tick, read from a with-obs twin's profilers.
void obs_counts(const eng::ChannelConfig& cfg, long boot_ticks, ClassCost& c) {
  eng::ChannelConfig ocfg = cfg;
  ocfg.with_obs = true;
  eng::ConditioningChannel twin(ocfg);
  twin.advance(boot_ticks);
  const ascp::obs::Observability& o = *twin.observability();
  std::map<std::string, std::uint64_t> before;
  for (const auto& t : o.tasks.stats()) before[t.name] += t.invocations;
  const std::uint64_t insn0 = o.mcu.instructions();
  twin.advance(kObsTicks);
  std::uint64_t calls = 0, probe = 0;
  for (const auto& t : o.tasks.stats()) {
    const std::uint64_t d = t.invocations - std::exchange(before[t.name], t.invocations);
    calls += d;
    if (t.name == "probe") probe += d;
  }
  c.task_calls_per_tick = static_cast<double>(calls) / kObsTicks;
  c.probe_frames_per_tick = static_cast<double>(probe) / kObsTicks;
  c.insns_per_tick = static_cast<double>(o.mcu.instructions() - insn0) / kObsTicks;
}

const char* kind_name(eng::ChannelKind k) {
  switch (k) {
    case eng::ChannelKind::GyroFull: return "GyroFull";
    case eng::ChannelKind::GyroIdeal: return "GyroIdeal";
    case eng::ChannelKind::Adxrs300: return "Adxrs300";
    case eng::ChannelKind::Gyrostar: return "Gyrostar";
  }
  return "?";
}

}  // namespace

LayerReport replay_layers(const WorkloadSpec& spec, Rig& rig, Tracer& tracer) {
  const long boot_ticks = kBootTicks * kBaseTicksPerTick;
  std::vector<ClassCost> classes;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spec.channels.size(); ++i) {
    const ChannelPlan& plan = spec.channels[i];
    auto [it, fresh] = index.emplace(plan.cls, classes.size());
    if (!fresh) {
      ++classes[it->second].count;
      continue;
    }
    ClassCost c;
    c.cls = plan.cls;
    c.kind = plan.cfg.kind;
    c.count = 1;
    eng::ChannelConfig cfg = rig.channel(i).config();  // derived seed, recorder flag
    cfg.probe = nullptr;

    {
      Tracer::Scope s(tracer, "ConditioningChannel()", SpanCategory::Channel);
      c.construct_ms = median_wall_ms(3, [&] { eng::ConditioningChannel ch(cfg); });
    }
    Capture cap;
    eng::ChannelConfig ccfg = cfg;
    ccfg.probe = &cap;
    eng::ConditioningChannel twin(ccfg);
    {
      Tracer::Scope s(tracer, "capture", SpanCategory::Channel);
      twin.advance(boot_ticks);
      cap.t0 = boot_ticks;
      cap.armed = true;
      twin.advance(kCaptureTicks);
      cap.armed = false;
    }
    {
      Tracer::Scope s(tracer, "snapshot/restore", SpanCategory::Channel);
      std::vector<std::uint8_t> image;
      c.snapshot_us = 1e3 * median_wall_ms(5, [&] { image = twin.snapshot(); });
      c.image_kib = static_cast<double>(image.size()) / 1024.0;
      eng::ConditioningChannel restored(cfg);
      c.restore_us = 1e3 * median_wall_ms(5, [&] { restored.restore(image); });
    }
    if (cfg.kind == eng::ChannelKind::GyroFull || cfg.kind == eng::ChannelKind::GyroIdeal)
      replay_gyro(cfg, plan, cap, tracer, c);
    else
      replay_baseline(cfg, cap, tracer, c);
    {
      Tracer::Scope s(tracer, "obs_twin", SpanCategory::Channel);
      obs_counts(cfg, boot_ticks, c);
    }
    c.mcu_slice = c.ns_per_insn * c.insns_per_tick;
    if (spec.fleet)
      c.checkpoint = c.snapshot_us * 1e3 / static_cast<double>(kCheckpointInterval * kBaseTicksPerTick);
    classes.push_back(std::move(c));
  }

  // Class-weighted means over the workload's channels.
  const double n_ch = static_cast<double>(spec.channels.size());
  auto mean = [&](double ClassCost::*f) {
    double s = 0;
    for (const auto& c : classes) s += c.count * (c.*f);
    return s / n_ch;
  };
  LayerReport r;
  auto add = [&](const char* name, double v, const char* unit) {
    r.metrics.push_back({name, v, unit});
  };
  const struct {
    const char* name;
    double ClassCost::*field;
  } summed[] = {
      {"sensor.mems_ns", &ClassCost::mems},       {"sensor.stimulus_ns", &ClassCost::stimulus},
      {"afe.champ_ns", &ClassCost::champ},        {"afe.acq_ns", &ClassCost::acq},
      {"afe.dac_ns", &ClassCost::dac},            {"dsp.drive_ns", &ClassCost::drive},
      {"dsp.sense_ns", &ClassCost::sense},        {"safety.supervisor_ns", &ClassCost::supervisor},
      {"mcu.slice_ns", &ClassCost::mcu_slice},    {"engine.checkpoint_ns", &ClassCost::checkpoint},
  };
  for (const auto& s : summed) {
    const double v = mean(s.field);
    add(s.name, v, "ns");
    r.layer_sum_ns += v;
  }

  // Per-call and count rows.
  double block_n = 0, block_sum = 0, insn_w = 0, insn_ns = 0;
  for (const auto& c : classes) {
    if (c.sense_block_per_sample > 0) block_sum += c.count * c.sense_block_per_sample, block_n += c.count;
    insn_w += c.count * c.insns_per_tick;
    insn_ns += c.count * c.insns_per_tick * c.ns_per_insn;
  }
  add("dsp.sense_block_ns", block_n > 0 ? block_sum / block_n : 0.0, "ns");
  add("mcu.ns_per_insn", insn_w > 0 ? insn_ns / insn_w : 0.0, "ns");
  add("mcu.insns_per_tick", mean(&ClassCost::insns_per_tick), "count");
  add("common.gauss_per_tick", mean(&ClassCost::draws_per_tick), "count");
  add("platform.task_calls_per_tick", mean(&ClassCost::task_calls_per_tick), "count");
  add("obs.probe_frames_per_tick", mean(&ClassCost::probe_frames_per_tick), "count");
  add("engine.snapshot_us", mean(&ClassCost::snapshot_us), "us");
  add("engine.restore_us", mean(&ClassCost::restore_us), "us");
  add("engine.image_kb", mean(&ClassCost::image_kib), "KiB");
  for (eng::ChannelKind k : {eng::ChannelKind::GyroFull, eng::ChannelKind::GyroIdeal,
                             eng::ChannelKind::Adxrs300, eng::ChannelKind::Gyrostar}) {
    double s = 0, cnt = 0;
    for (const auto& c : classes)
      if (c.kind == k) s += c.count * c.construct_ms, cnt += c.count;
    add((std::string("engine.construct_ms.") + kind_name(k)).c_str(), cnt > 0 ? s / cnt : 0.0,
        "ms");
  }

  {
    Tracer::Scope s(tracer, "replay.Rng::gaussian", SpanCategory::Scheduler);
    ascp::Rng rng(spec.root_seed);
    constexpr long kDraws = 1 << 20;
    std::vector<double> t;
    for (int k = 0; k < kPasses; ++k) {
      const double c0 = thread_cpu_s();
      double acc = 0;
      for (long j = 0; j < kDraws; ++j) acc += rng.gaussian();
      t.push_back(thread_cpu_s() - c0);
      g_sink = acc;
    }
    add("common.gauss_ns", median(t) * 1e9 / kDraws, "ns");
  }

  std::printf("\nlayer replay (ns per base tick per channel; per-call rows noted)\n");
  std::printf("%-30s %3s %7s %7s %7s %7s %7s %7s %7s %7s %7s %6s %8s\n", "class", "n", "stim",
              "mems", "champ", "acq", "dac", "drive", "sense", "superv", "mcu", "draws",
              "calls/tk");
  for (const auto& c : classes)
    std::printf("%-30s %3d %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f %6.2f %8.3f\n",
                c.cls.c_str(), c.count, c.stimulus, c.mems, c.champ, c.acq, c.dac, c.drive,
                c.sense, c.supervisor, c.mcu_slice, c.draws_per_tick, c.task_calls_per_tick);
  return r;
}

}  // namespace pb
