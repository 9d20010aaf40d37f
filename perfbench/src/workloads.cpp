#include "workloads.hpp"

#include "analysis/firmware_corpus.hpp"
#include "common/rng.hpp"
#include "core/baselines.hpp"
#include "core/gyro_system.hpp"

namespace pb {

namespace eng = ascp::engine;
namespace core = ascp::core;
using ascp::obs::SpanCategory;

bool parse_workload(const std::string& name, WorkloadId* out) {
  if (name == "full_sweep") *out = WorkloadId::FullSweep;
  else if (name == "ideal_mix") *out = WorkloadId::IdealMix;
  else if (name == "fleet_stream") *out = WorkloadId::FleetStream;
  else return false;
  return true;
}

namespace {

// Rates sit on a fixed grid of magnitudes with alternating signs per
// channel slot; the seed draws each one's offset within ±2 °/s. The rate
// error grows with |rate| and differs between signs (ripple and scale drift
// ride on the signal), so a fixed magnitude and sign mix keeps
// rate_err_dps comparable between seeds.
constexpr double kRateGrid[] = {0.0, 12.5, 25.0, 50.0, 100.0, 150.0, 200.0, 250.0};

double seeded_rate(ascp::Rng& rng, double magnitude, std::size_t slot) {
  if (magnitude == 0.0) return 0.0;
  const double sign = (slot % 2) ? -1.0 : 1.0;
  return sign * (magnitude + rng.uniform(-2.0, 2.0));
}

// Climatic characterisation staircase shared by every channel, as in one
// chamber: 25 °C through the boot window, then a −40…+85 °C triangle of
// 0.25 s dwells. It is not seeded, so rate_err_dps sees the same
// temperature history on every seed.
ascp::sensor::Profile climatic_staircase() {
  static const double kLevels[] = {-40.0, -15.0, 10.0, 35.0, 60.0, 85.0};
  constexpr int kN = 6;
  std::vector<double> levels{25.0};
  for (int k = 0; k < 400; ++k) {
    const int p = k % (2 * kN - 2);
    levels.push_back(kLevels[p < kN ? p : 2 * kN - 2 - p]);
  }
  return ascp::sensor::Profile::staircase(std::move(levels), 0.25);
}

/// Runs corpus firmware on the channel's 8051: 1 = DIAG monitor, 2 =
/// telemetry monitor, with the watchdog armed as the examples do.
void use_firmware(ChannelPlan& p, int which) {
  p.cfg.configure = [](core::GyroSystemConfig& c) { c.with_mcu = true; };
  p.cfg.customize = [which](core::GyroSystem& g) {
    const auto& map = g.platform().config().map;
    const auto fw = which == 1 ? ascp::analysis::corpus::assemble_diag_monitor(map)
                               : ascp::analysis::corpus::assemble_telemetry_monitor(map);
    g.platform().load_firmware(fw.image);
    if (auto* wd = g.platform().watchdog()) {
      wd->write_reg(1, 60000);  // PERIOD [machine cycles]
      wd->write_reg(2, 1);      // CTRL: enable
    }
  };
}

ChannelPlan plan(eng::ChannelKind kind, const char* cls) {
  ChannelPlan p;
  p.cfg.kind = kind;
  p.cls = cls;
  if (kind == eng::ChannelKind::Adxrs300 || kind == eng::ChannelKind::Gyrostar) {
    const core::BaselineConfig bl =
        kind == eng::ChannelKind::Adxrs300 ? core::adxrs300_like() : core::gyrostar_like();
    p.null_v = bl.null_v;
    p.sens_v_per_dps = bl.nominal_sensitivity;
  }
  return p;
}

}  // namespace

WorkloadSpec make_workload(WorkloadId id, std::uint64_t seed) {
  WorkloadSpec w;
  ascp::Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(id) + 1);
  w.root_seed = rng.next_u64();
  switch (id) {
    case WorkloadId::FullSweep: {
      w.name = "full_sweep";
      for (std::size_t i = 0; i < 8; ++i) {
        ChannelPlan p = plan(eng::ChannelKind::GyroFull, "GyroFull");
        p.cfg.rate_dps = seeded_rate(rng, kRateGrid[i], i);
        p.cfg.temp_profile = climatic_staircase();
        w.channels.push_back(std::move(p));
      }
      break;
    }
    case WorkloadId::IdealMix: {
      w.name = "ideal_mix";
      const struct {
        eng::ChannelKind kind;
        const char* cls;
        bool open_loop;
      } mix[] = {
          {eng::ChannelKind::GyroIdeal, "GyroIdeal.open", true},
          {eng::ChannelKind::GyroIdeal, "GyroIdeal", false},
          {eng::ChannelKind::Adxrs300, "Adxrs300", false},
          {eng::ChannelKind::Gyrostar, "Gyrostar", false},
      };
      // 16 channels, four per class, each class over four grid rates.
      for (std::size_t i = 0; i < 16; ++i) {
        const auto& m = mix[(i / 2) % 4];
        ChannelPlan p = plan(m.kind, m.cls);
        p.cfg.rate_dps = seeded_rate(rng, kRateGrid[(i * 3 + i / 8) % 8], i);
        // Spread over the automotive range by slot, seeded within ±8 °C.
        p.cfg.temp_c = -30.0 + 15.0 * static_cast<double>(i % 8) + rng.uniform(-8.0, 8.0);
        if (m.open_loop) {
          p.open_loop = true;
          p.cfg.configure = [](core::GyroSystemConfig& c) {
            c.sense.mode = core::SenseMode::OpenLoop;
          };
        }
        w.channels.push_back(std::move(p));
      }
      break;
    }
    case WorkloadId::FleetStream: {
      w.name = "fleet_stream";
      w.fleet = true;
      constexpr double kIdealRates[] = {0.0, 50.0, 150.0, 250.0};
      for (std::size_t i = 0; i < 12; ++i) {
        const bool full = i < 8;
        ChannelPlan p = plan(full ? eng::ChannelKind::GyroFull : eng::ChannelKind::GyroIdeal,
                             full ? "GyroFull.safety" : "GyroIdeal.safety");
        p.cfg.with_safety = true;
        p.cfg.with_faults = full;
        if (i == 0 || i == 1) {
          use_firmware(p, static_cast<int>(i) + 1);
          p.cls = i == 0 ? "GyroFull.safety.diag_fw" : "GyroFull.safety.telemetry_fw";
        }
        p.cfg.rate_dps = seeded_rate(rng, full ? kRateGrid[i] : kIdealRates[i - 8], i);
        // Continuous ramps, 2.5 °C/s, starting staggered across −40…0 °C.
        const double t0 = -40.0 + 40.0 * static_cast<double>(i % 4) / 3.0;
        p.cfg.temp_profile = ascp::sensor::Profile::ramp(t0, t0 + 100.0, 0.0, 40.0);
        p.cfg.queue_capacity = 64;
        p.cfg.queue_policy = eng::QueuePolicy::Block;
        w.channels.push_back(std::move(p));
      }
      break;
    }
  }
  return w;
}

// ---- Rig ------------------------------------------------------------------------

Rig::Rig(const WorkloadSpec& spec, bool flight_recorders, Tracer& tracer)
    : spec_(spec),
      tracer_(tracer),
      stats_(spec.channels.size()) {
  Tracer::Scope span(tracer_, spec.fleet ? "FleetSupervisor()" : "ChannelFarm()",
                     SpanCategory::Channel);
  if (spec.fleet) {
    std::vector<eng::FleetChannelSpec> specs;
    for (const auto& p : spec.channels) specs.push_back({p.cfg, 0, {}});
    eng::FleetConfig fc;
    fc.root_seed = spec.root_seed;
    fc.threads = kWorkers;
    fc.tick_seconds = kTickSeconds;
    fc.checkpoint_interval = kCheckpointInterval;
    fc.flight_recorders = flight_recorders;
    fleet_ = std::make_unique<eng::FleetSupervisor>(std::move(specs), fc);
    fleet_->set_consumer(
        [this](std::size_t i, std::vector<double>&& batch) { consume(i, batch); });
  } else {
    std::vector<eng::ChannelConfig> cfgs;
    for (const auto& p : spec.channels) cfgs.push_back(p.cfg);
    eng::FarmConfig fc;
    fc.root_seed = spec.root_seed;
    fc.threads = kWorkers;
    farm_ = std::make_unique<eng::ChannelFarm>(std::move(cfgs), fc);
  }
}

Rig::~Rig() = default;

std::size_t Rig::size() const { return spec_.channels.size(); }

eng::ConditioningChannel& Rig::channel(std::size_t i) {
  return fleet_ ? fleet_->channel(i) : farm_->channel(i);
}

void Rig::boot() {
  Tracer::Scope span(tracer_, "boot", SpanCategory::Channel);
  if (fleet_) {
    fleet_->run_ticks(kBootTicks);
  } else {
    farm_->advance(static_cast<double>(kBootTicks * kBaseTicksPerTick) / kBaseRateHz);
  }
  ticks_ += kBootTicks;
}

void Rig::tick() {
  if (fleet_) {
    Tracer::Scope span(tracer_, "fleet.run_ticks", SpanCategory::Fleet);
    drain_begin_ = -1.0;
    fleet_->run_ticks(1);
    last_drain_s_ = drain_begin_ < 0.0 ? 0.0 : drain_end_ - drain_begin_;
  } else {
    Tracer::Scope span(tracer_, "farm.advance", SpanCategory::Channel);
    farm_->advance(static_cast<double>(kBaseTicksPerTick) / kBaseRateHz);
  }
  ++ticks_;
}

void Rig::consume(std::size_t i, const std::vector<double>& batch) {
  Tracer::Scope span(tracer_, "consumer", SpanCategory::Fleet);
  const double t0 = wall_s();
  if (drain_begin_ < 0.0) drain_begin_ = t0;
  OutputStats& st = stats_[i];
  const ChannelPlan& p = spec_.channels[i];
  for (double v : batch) {
    const std::uint64_t k = st.seen++;
    if (k >= kErrFirstSample && k < kErrFirstSample + kErrSamples) {
      const double err = (v - p.null_v) / p.sens_v_per_dps - p.cfg.rate_dps;
      st.err_sum += err;
      st.err_sq += err * err;
      ++st.err_n;
    }
  }
  drain_end_ = wall_s();
}

void Rig::collect_outputs() {
  if (fleet_) return;
  for (std::size_t i = 0; i < size(); ++i) {
    const auto& out = farm_->channel(i).outputs();
    std::vector<double> fresh(out.begin() + static_cast<std::ptrdiff_t>(stats_[i].seen),
                              out.end());
    Tracer::Scope span(tracer_, "outputs()", SpanCategory::Channel);
    consume(i, fresh);
  }
}

std::uint64_t Rig::check_tick() {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    eng::ConditioningChannel& ch = channel(i);
    const long base_ticks = ticks_ * kBaseTicksPerTick;
    bool bad = ch.ticks_advanced() != base_ticks ||
               ch.total_outputs() != static_cast<std::uint64_t>(base_ticks / kBaseTicksPerSample) ||
               ch.dropped_outputs() != 0;
    if (fleet_) {
      bad = bad || fleet_->health(i) != eng::ChannelHealth::Running ||
            fleet_->restarts(i) != 0;
    } else {
      bad = bad || farm_->channel_failed(i);
    }
    if (bad) ++failed;
  }
  if (fleet_) {
    const auto& s = fleet_->stats();
    const long incidents = s.shed_channel_ticks + s.exceptions + s.stalls_detected;
    failed += static_cast<std::uint64_t>(incidents - fleet_incidents_);
    fleet_incidents_ = incidents;
  }
  return failed;
}

SoloResult run_solo(const eng::ChannelConfig& cfg, bool boot_in_one_call, long total_ticks) {
  eng::ConditioningChannel ch(cfg);
  long done = 0;
  if (boot_in_one_call) {
    ch.advance(kBootTicks * kBaseTicksPerTick);
    done = kBootTicks;
  }
  for (; done < total_ticks; ++done) ch.advance(kBaseTicksPerTick);
  return {ch.output_hash(), ch.total_outputs()};
}

}  // namespace pb
