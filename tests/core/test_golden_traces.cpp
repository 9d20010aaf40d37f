// test_golden_traces.cpp — bit-exact regression net over the conditioning
// pipeline.
//
// The multi-rate loop was rebuilt from a hand-rolled divider loop onto the
// platform Scheduler (and the open-loop sense path went through the batched
// DSP kernels and back to the sample-serial step). These goldens were captured from the pre-refactor monolithic
// loops and pin the refactor to the bit: every scenario below must produce
// the exact same doubles, sample for sample, forever. If an intentional
// numerical change is ever made, re-capture with tools/golden_capture.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/baselines.hpp"
#include "core/gyro_system.hpp"

namespace {

using namespace ascp;

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// FNV-1a over the little-endian byte stream of the double bit patterns.
std::uint64_t fnv1a(const std::vector<double>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (double d : v) {
    const std::uint64_t u = bits(d);
    for (int i = 0; i < 8; ++i) {
      h ^= (u >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  return h;
}

void expect_golden(const std::vector<double>& v, std::size_t n, std::uint64_t hash,
                   std::uint64_t first, std::uint64_t last) {
  ASSERT_EQ(v.size(), n);
  // First/last bit patterns give a readable failure before the full-stream
  // hash; the hash is what actually guarantees every sample in between.
  EXPECT_EQ(bits(v.front()), first);
  EXPECT_EQ(bits(v.back()), last);
  EXPECT_EQ(fnv1a(v), hash);
}

TEST(GoldenTraces, FullFidelityClosedLoopAcrossTwoRuns) {
  core::GyroSystem sys(core::default_gyro_system(core::Fidelity::Full));
  sys.power_on(7);
  std::vector<double> out;
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.05, &out);
  sys.run(sensor::Profile::step(90.0, 0.01), sensor::Profile::ramp(25.0, 45.0, 0.0, 0.1), 0.1,
          &out);
  expect_golden(out, 281, 0x26c7e4c26d73af5aull, 0x40040000000020a4ull, 0x4004d1b584b54f74ull);
}

TEST(GoldenTraces, IdealFidelityClosedLoop) {
  core::GyroSystem sys(core::default_gyro_system(core::Fidelity::Ideal));
  sys.power_on(3);
  std::vector<double> out;
  sys.run(sensor::Profile::sine(50.0, 20.0), sensor::Profile::constant(25.0), 0.1, &out);
  expect_golden(out, 187, 0x3556f6fb37221998ull, 0x4003fffffffff0bcull, 0x4003c168f418828aull);
}

TEST(GoldenTraces, FullFidelityWithSafetyAndMcu) {
  auto cfg = core::default_gyro_system(core::Fidelity::Full);
  cfg.with_safety = true;
  cfg.with_mcu = true;
  core::GyroSystem sys(cfg);
  sys.power_on(11);
  std::vector<double> out;
  sys.run(sensor::Profile::constant(30.0), sensor::Profile::constant(35.0), 0.1, &out);
  expect_golden(out, 187, 0x3fb353601ee37e11ull, 0x4004000000003109ull, 0x400446d75a84f81aull);
}

TEST(GoldenTraces, IdealOpenLoopBatchedPath) {
  // Open loop with no per-sample observers — the configuration that once
  // took a batched block-DSP path; the sample-serial path must still match
  // the golden captured from the scalar loop exactly.
  auto cfg = core::default_gyro_system(core::Fidelity::Ideal);
  cfg.sense.mode = core::SenseMode::OpenLoop;
  core::GyroSystem sys(cfg);
  sys.power_on(5);
  std::vector<double> out;
  sys.run(sensor::Profile::constant(40.0), sensor::Profile::constant(25.0), 0.1, &out);
  expect_golden(out, 187, 0x9098ae90930cf046ull, 0x4004000000000000ull, 0x400431490a5dfd64ull);
}

TEST(GoldenTraces, Adxrs300BaselinePhaseCarriesAcrossRuns) {
  // 0.033335 s = 64003 analog ticks — deliberately NOT divisible by loop_div,
  // so the second run() only matches if decimation phase persists across
  // calls exactly like the pre-refactor member counters did.
  core::AnalogGyroBaseline dut(core::adxrs300_like());
  dut.power_on(21);
  std::vector<double> out;
  dut.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.033335, &out);
  dut.run(sensor::Profile::constant(100.0), sensor::Profile::constant(45.0), 0.05, &out);
  expect_golden(out, 156, 0xe21d19b1bc62bb02ull, 0x40048942c9703675ull, 0x4008ae57698b06e1ull);
}

TEST(GoldenTraces, GyrostarBaseline) {
  core::AnalogGyroBaseline dut(core::gyrostar_like());
  dut.power_on(33);
  std::vector<double> out;
  dut.run(sensor::Profile::step(80.0, 0.02), sensor::Profile::constant(25.0), 0.06, &out);
  expect_golden(out, 112, 0x5c7ec159952b860aull, 0x3ff641b651d0690eull, 0x3ff732df53fff5caull);
}

}  // namespace
