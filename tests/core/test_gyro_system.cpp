// Full-system integration tests. Ideal fidelity is used where possible
// (≈20× faster); a few tests exercise the Full AFE path.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "common/math.hpp"
#include "common/spectrum.hpp"
#include "core/calibration.hpp"
#include "core/gyro_system.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace ascp::core {
namespace {

double tail(const std::vector<double>& v) {
  return mean(std::span(v).subspan(v.size() / 2));
}

TEST(GyroSystem, LocksAfterPowerOnIdeal) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(1);
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 1.0, nullptr);
  EXPECT_TRUE(sys.locked());
  EXPECT_NEAR(sys.drive().frequency(), 15e3, 20.0);
}

TEST(GyroSystem, LocksAfterPowerOnFull) {
  GyroSystem sys(default_gyro_system(Fidelity::Full));
  sys.power_on(1);
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 1.0, nullptr);
  EXPECT_TRUE(sys.locked());
  EXPECT_NEAR(sys.drive().amplitude(), 1.0, 0.05);
}

TEST(GyroSystem, RateOutputIsLinearInRate) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(1);
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 1.0, nullptr);
  std::vector<double> rates, outs;
  for (double r : {-200.0, -100.0, 0.0, 100.0, 200.0}) {
    std::vector<double> o;
    sys.run(sensor::Profile::constant(r), sensor::Profile::constant(25.0), 0.25, &o);
    rates.push_back(r);
    outs.push_back(tail(o));
  }
  const auto fit = fit_line(rates, outs);
  EXPECT_GT(std::abs(fit.slope), 5e-4);  // raw gain ≈ 1.2 mV/°/s
  EXPECT_LT(fit.max_abs_residual, std::abs(fit.slope) * 400.0 * 0.01);  // linear to 1 % FS
}

TEST(GyroSystem, OutputRateIs1875Hz) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  EXPECT_NEAR(sys.output_rate_hz(), 1875.0, 1e-9);
  sys.power_on(1);
  std::vector<double> o;
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.2, &o);
  EXPECT_NEAR(static_cast<double>(o.size()), 375.0, 3.0);
}

TEST(GyroSystem, CalibrationHitsTargetSensitivity) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(3);
  CalibrationConfig cal;
  cal.temps = {25.0};  // single-point for test speed
  cal.warmup_s = 1.0;
  sys.set_compensation(run_calibration(sys, cal));
  std::vector<double> pos, neg;
  sys.run(sensor::Profile::constant(150.0), sensor::Profile::constant(25.0), 0.3, &pos);
  sys.run(sensor::Profile::constant(-150.0), sensor::Profile::constant(25.0), 0.3, &neg);
  const double sens = (tail(pos) - tail(neg)) / 300.0;
  EXPECT_NEAR(sens, 5e-3, 1e-4);
  EXPECT_NEAR(tail(pos), 2.5 + 0.75, 0.02);
}

TEST(GyroSystem, DifferentSeedsAreDifferentDevices) {
  GyroSystem a(default_gyro_system(Fidelity::Full));
  GyroSystem b(default_gyro_system(Fidelity::Full));
  a.power_on(1);
  b.power_on(2);
  std::vector<double> oa, ob;
  a.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.8, &oa);
  b.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.8, &ob);
  EXPECT_GT(std::abs(tail(oa) - tail(ob)), 1e-5);  // mismatch draws differ
}

TEST(GyroSystem, SameSeedIsReproducible) {
  GyroSystem a(default_gyro_system(Fidelity::Full));
  GyroSystem b(default_gyro_system(Fidelity::Full));
  a.power_on(7);
  b.power_on(7);
  std::vector<double> oa, ob;
  a.run(sensor::Profile::constant(50.0), sensor::Profile::constant(25.0), 0.4, &oa);
  b.run(sensor::Profile::constant(50.0), sensor::Profile::constant(25.0), 0.4, &ob);
  ASSERT_EQ(oa.size(), ob.size());
  for (std::size_t i = 0; i < oa.size(); ++i) EXPECT_DOUBLE_EQ(oa[i], ob[i]) << i;
}

TEST(GyroSystem, StatusRegistersReflectState) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(1);
  sys.run(sensor::Profile::constant(100.0), sensor::Profile::constant(25.0), 1.2, nullptr);
  auto& rf = sys.regs();
  EXPECT_EQ(rf.read(reg::kLock) & 1, 1);  // PLL locked
  EXPECT_NEAR(rf.read(reg::kFreq) * 4.0, 15e3, 60.0);
  EXPECT_NEAR(rf.read(reg::kRateOut) / 1000.0, sys.last_output(), 0.002);
  const auto temp_reg = static_cast<std::int16_t>(rf.read(reg::kTemp));
  EXPECT_NEAR(temp_reg / 8.0, 25.0, 2.0);
}

TEST(GyroSystem, JtagReadsTheSameStatus) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(1);
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 1.0, nullptr);
  auto& jtag = sys.platform().jtag();
  jtag.reset();
  EXPECT_EQ(jtag.read_register(0, reg::kLock), sys.regs().read(reg::kLock));
  EXPECT_EQ(jtag.read_register(0, reg::kFreq), sys.regs().read(reg::kFreq));
}

TEST(GyroSystem, ModeRegisterSwitchesLoopConfig) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.regs().write(reg::kMode, 0);  // open loop
  sys.power_on(1);                   // rebuild applies the config
  sys.run(sensor::Profile::constant(100.0), sensor::Profile::constant(25.0), 1.0, nullptr);
  // Open loop: no control effort modulated back.
  EXPECT_EQ(sys.config().sense.mode, SenseMode::OpenLoop);
}

TEST(GyroSystem, TraceRecordsFig5Channels) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  TraceRecorder trace;
  sys.set_trace(&trace);
  sys.power_on(1);
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.3, nullptr);
  for (const char* ch : {"amplitude_control", "phase_error", "amplitude_error", "vco_control",
                         "rate_out"}) {
    ASSERT_TRUE(trace.has(ch)) << ch;
    EXPECT_GT(trace.channel(ch).samples.size(), 100u) << ch;
  }
}

TEST(GyroSystem, SramTraceCapturesRawRate) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(1);
  auto* sram = sys.platform().sram_trace();
  ASSERT_NE(sram, nullptr);
  sram->write_reg(1, 0);  // node 0 = raw rate
  sram->write_reg(0, 3);  // reset + arm
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.2, nullptr);
  EXPECT_GT(sram->count(), 300u);
}

TEST(GyroSystem, TurnOnRingUpVisibleInAgc) {
  // Right after power-on the AGC is still ramping (the 2Q/ω0 envelope).
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(1);
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.05, nullptr);
  EXPECT_FALSE(sys.locked());
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 1.0, nullptr);
  EXPECT_TRUE(sys.locked());
}

TEST(GyroSystem, QuadratureIsServoedInClosedLoop) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(1);
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 1.2, nullptr);
  // Default quad stiffness is nonzero; the servo keeps the residual small.
  EXPECT_LT(std::abs(sys.sense().baseband().i), 0.01);
}

TEST(GyroSystem, TracksTemperatureRampWithCompensation) {
  // Die warming from 25 to 85 degC mid-measurement: the calibrated output
  // at constant rate must stay within a few deg/s-equivalent.
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(3);
  CalibrationConfig cal;
  cal.warmup_s = 1.0;
  sys.set_compensation(run_calibration(sys, cal));
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.8, nullptr);
  std::vector<double> o;
  sys.run(sensor::Profile::constant(100.0), sensor::Profile::ramp(25.0, 85.0, 0.0, 2.0), 2.0,
          &o);
  // Compare the start (warm-up excluded) and the end of the ramp.
  const double early = mean(std::span(o).subspan(o.size() / 4, o.size() / 8));
  const double late = mean(std::span(o).subspan(o.size() * 7 / 8));
  EXPECT_NEAR(early, late, 5e-3 * 4.0);  // within 4 deg/s over 60 degC
}

TEST(GyroSystem, FollowsSinusoidalRateInBand) {
  // A 10 Hz, 50 deg/s sine is well inside the 75 Hz bandwidth: amplitude
  // must come through within ~10 %.
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(1);
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 1.0, nullptr);
  std::vector<double> o;
  sys.run(sensor::Profile::sine(50.0, 10.0), sensor::Profile::constant(25.0), 1.2, &o);
  const auto half = std::span(o).subspan(o.size() / 2);
  const auto tone = estimate_tone(half, sys.output_rate_hz(), 10.0);
  // Raw (uncalibrated) gain ~1.2 mV/deg/s: expect ~60 mV of 10 Hz tone.
  EXPECT_NEAR(tone.amplitude, 50.0 * 1.2e-3, 50.0 * 1.2e-3 * 0.2);
}

TEST(GyroSystem, RespondsToRateStep) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(1);
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 1.0, nullptr);
  std::vector<double> o;
  sys.run(sensor::Profile::step(100.0, 0.05), sensor::Profile::constant(25.0), 0.3, &o);
  const double before = o[static_cast<std::size_t>(0.03 * 1875)];
  const double after = tail(o);
  EXPECT_GT(std::abs(after - before), 0.05);  // ≈ 100 °/s · 1.2 mV raw
}

// Every DSP-rate stage is registered at the ADC rate on the SAR conversion
// phase, so it fires once per DSP sample, with every optional observer
// attached, across a run() split at a tick that is not a multiple of
// adc_div.
TEST(GyroSystem, DspRateTasksFireOncePerAdcSample) {
  struct CountingProbe : sensor::Probe {
    long post_adc = 0;
    void on_frame(const sensor::ProbeFrame& f) override {
      if (f.point == sensor::ProbePoint::PostAdc) ++post_adc;
    }
  };
  const std::vector<std::string> dsp_rate = {"fault_campaign", "dsp",   "supervisor",
                                             "obs_events",     "trace", "output"};
  for (const Fidelity fid : {Fidelity::Full, Fidelity::Ideal}) {
    SCOPED_TRACE(fid == Fidelity::Full ? "Full" : "Ideal");
    auto cfg = default_gyro_system(fid);
    cfg.with_safety = true;
    GyroSystem sys(cfg);
    sys.power_on(3);
    obs::MetricRegistry metrics;
    obs::EventLog events;
    obs::TaskProfiler tasks;
    sys.set_observability({&metrics, &events, &tasks, nullptr, nullptr, nullptr});
    safety::FaultCampaign campaign;
    sys.set_fault_campaign(&campaign);
    TraceRecorder trace;
    sys.set_trace(&trace);
    CountingProbe probe;
    sys.set_probe(&probe);

    const long div = cfg.adc_div;
    std::map<std::string, std::pair<long, long>> graph;
    for (const auto& t : sys.schedule_tasks()) graph[t.name] = {t.divider, t.phase};
    for (const auto& name : dsp_rate) {
      ASSERT_TRUE(graph.count(name)) << name;
      EXPECT_EQ(graph[name], std::make_pair(div, div - 1)) << name;
    }
    if (fid == Fidelity::Ideal) EXPECT_EQ(graph["adc_ideal"], std::make_pair(div, div - 1));
    EXPECT_EQ(graph["analog"], std::make_pair(1L, 0L));
    EXPECT_EQ(graph["probe"], std::make_pair(1L, 0L));

    const long ticks = 3 * div + 3 + 250 * div;
    for (const long n : {3 * div + 3, 250 * div})
      sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0),
              static_cast<double>(n) / cfg.analog_fs, nullptr);

    // The profiler keeps one row per (name, divider, phase); a resumed run
    // re-registers at the phase its tick origin needs, so sum by name.
    std::map<std::string, std::uint64_t> calls;
    for (const auto& t : tasks.stats()) calls[t.name] += t.invocations;
    const std::uint64_t samples = static_cast<std::uint64_t>(ticks / div);
    for (const auto& name : dsp_rate) EXPECT_EQ(calls[name], samples) << name;
    EXPECT_EQ(calls["analog"], static_cast<std::uint64_t>(ticks));
    EXPECT_EQ(sys.dsp_samples(), ticks / div);
    EXPECT_DOUBLE_EQ(metrics.snapshot().counter_value("gyro.dsp_samples"),
                     static_cast<double>(samples));
    EXPECT_EQ(probe.post_adc, ticks / div);
  }
}

}  // namespace
}  // namespace ascp::core
