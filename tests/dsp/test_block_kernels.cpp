// Block-kernel bit-exactness: every *_block variant must reproduce the
// per-sample path to the bit, for any block partitioning — a single ULP of
// drift here would make a block caller diverge from the engine's
// sample-serial stream.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "dsp/biquad.hpp"
#include "dsp/cic.hpp"
#include "dsp/fir.hpp"
#include "dsp/modem.hpp"
#include "dsp/nco.hpp"

namespace ascp::dsp {
namespace {

constexpr double kFs = 240e3;

std::vector<double> noise(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.gaussian(0.7) + 0.1;
  return v;
}

// Feed the same stream through the scalar path and through blocks of the
// given (deliberately awkward) sizes; results must be bit-identical.
const std::size_t kChunks[] = {1, 7, 64, 13, 128, 3, 300};

TEST(BlockKernels, BiquadBlockMatchesScalarBitExact) {
  const auto in = noise(516, 42);
  Biquad scalar(design_biquad_lowpass(400.0, 0.707, kFs));
  Biquad blocked(scalar.coeffs());

  std::vector<double> want(in.size());
  for (std::size_t k = 0; k < in.size(); ++k) want[k] = scalar.process(in[k]);

  std::vector<double> got = in;
  std::size_t pos = 0, ci = 0;
  while (pos < got.size()) {
    const std::size_t n = std::min(kChunks[ci++ % std::size(kChunks)], got.size() - pos);
    blocked.process_block(std::span<double>(got).subspan(pos, n));
    pos += n;
  }
  for (std::size_t k = 0; k < in.size(); ++k) ASSERT_EQ(want[k], got[k]) << "sample " << k;
}

TEST(BlockKernels, BiquadCascadeBlockMatchesScalarBitExact) {
  const auto in = noise(516, 43);
  BiquadCascade scalar = design_butterworth_lowpass(4, 100.0, kFs / 128.0);
  BiquadCascade blocked = design_butterworth_lowpass(4, 100.0, kFs / 128.0);

  std::vector<double> want(in.size());
  for (std::size_t k = 0; k < in.size(); ++k) want[k] = scalar.process(in[k]);

  std::vector<double> got = in;
  std::size_t pos = 0, ci = 0;
  while (pos < got.size()) {
    const std::size_t n = std::min(kChunks[ci++ % std::size(kChunks)], got.size() - pos);
    blocked.process_block(std::span<double>(got).subspan(pos, n));
    pos += n;
  }
  for (std::size_t k = 0; k < in.size(); ++k) ASSERT_EQ(want[k], got[k]) << "sample " << k;
}

TEST(BlockKernels, FirBlockMatchesScalarBitExact) {
  const auto in = noise(516, 44);
  const auto taps = design_lowpass(63, 100.0, kFs / 128.0);
  FirFilter scalar(taps), blocked(taps);

  std::vector<double> want(in.size());
  for (std::size_t k = 0; k < in.size(); ++k) want[k] = scalar.process(in[k]);

  std::vector<double> got(in.size());
  std::size_t pos = 0, ci = 0;
  while (pos < in.size()) {
    const std::size_t n = std::min(kChunks[ci++ % std::size(kChunks)], in.size() - pos);
    blocked.process_block(std::span<const double>(in).subspan(pos, n),
                          std::span<double>(got).subspan(pos, n));
    pos += n;
  }
  for (std::size_t k = 0; k < in.size(); ++k) ASSERT_EQ(want[k], got[k]) << "sample " << k;
}

TEST(BlockKernels, FirBlockAllowsElementwiseAliasing) {
  const auto in = noise(300, 45);
  const auto taps = design_lowpass(31, 200.0, kFs / 128.0);
  FirFilter scalar(taps), blocked(taps);

  std::vector<double> want(in.size());
  for (std::size_t k = 0; k < in.size(); ++k) want[k] = scalar.process(in[k]);

  std::vector<double> inout = in;
  blocked.process_block(inout, inout);  // in-place
  for (std::size_t k = 0; k < in.size(); ++k) ASSERT_EQ(want[k], inout[k]) << "sample " << k;
}

TEST(BlockKernels, CicBlockMatchesScalarBitExact) {
  // Block boundaries straddle decimation boundaries (ratio 128, chunks up to
  // 300) so partial frames carry across push_block calls.
  const auto in = noise(4 * 128 + 37, 46);
  CicDecimator scalar(3, 128, 16, 2.5), blocked(3, 128, 16, 2.5);

  std::vector<double> want;
  for (double x : in)
    if (const auto y = scalar.push(x)) want.push_back(*y);

  std::vector<double> got(in.size() / 128 + 1);
  std::size_t n_out = 0, pos = 0, ci = 0;
  while (pos < in.size()) {
    const std::size_t n = std::min(kChunks[ci++ % std::size(kChunks)], in.size() - pos);
    n_out += blocked.push_block(std::span<const double>(in).subspan(pos, n),
                                std::span<double>(got).subspan(n_out));
    pos += n;
  }
  ASSERT_EQ(n_out, want.size());
  for (std::size_t k = 0; k < want.size(); ++k) ASSERT_EQ(want[k], got[k]) << "sample " << k;
}

TEST(BlockKernels, CicTicksUntilOutputTracksPhase) {
  CicDecimator cic(3, 8);
  EXPECT_EQ(cic.ticks_until_output(), 8);
  std::vector<double> out(2);
  std::size_t n = 0;
  for (int i = 0; i < 5; ++i) {
    cic.push(1.0);
    EXPECT_EQ(cic.ticks_until_output(), 8 - (i + 1));
  }
  const double tail[] = {1.0, 1.0, 1.0};
  n = cic.push_block(tail, out);
  EXPECT_EQ(n, 1u);  // block completes the frame exactly
  EXPECT_EQ(cic.ticks_until_output(), 8);
}

TEST(BlockKernels, NcoBlockMatchesScalarBitExact) {
  Nco scalar(kFs, 14.5e3), blocked(kFs, 14.5e3);

  std::vector<double> want_s(516), want_c(516);
  for (std::size_t k = 0; k < want_s.size(); ++k) {
    want_s[k] = scalar.step();
    want_c[k] = scalar.cosine();
  }

  std::vector<double> got_s(want_s.size()), got_c(want_s.size());
  std::size_t pos = 0, ci = 0;
  while (pos < got_s.size()) {
    const std::size_t n = std::min(kChunks[ci++ % std::size(kChunks)], got_s.size() - pos);
    blocked.step_block(std::span<double>(got_s).subspan(pos, n),
                       std::span<double>(got_c).subspan(pos, n));
    pos += n;
  }
  for (std::size_t k = 0; k < want_s.size(); ++k) {
    ASSERT_EQ(want_s[k], got_s[k]) << "sin sample " << k;
    ASSERT_EQ(want_c[k], got_c[k]) << "cos sample " << k;
  }
  // The streaming accessors mirror the last sample of the block.
  EXPECT_EQ(blocked.sine(), scalar.sine());
  EXPECT_EQ(blocked.cosine(), scalar.cosine());
}

TEST(BlockKernels, IqDemodulatorBlockMatchesScalarBitExact) {
  const auto x = noise(516, 47);
  Nco nco_a(kFs, 15e3), nco_b(kFs, 15e3);
  IqDemodulator scalar(kFs, 400.0), blocked(kFs, 400.0);

  std::vector<double> ci_ref(x.size()), cq_ref(x.size());
  std::vector<double> want_i(x.size()), want_q(x.size());
  for (std::size_t k = 0; k < x.size(); ++k) {
    ci_ref[k] = nco_a.step();
    cq_ref[k] = nco_a.cosine();
    const auto bb = scalar.step(x[k], ci_ref[k], cq_ref[k]);
    want_i[k] = bb.i;
    want_q[k] = bb.q;
  }

  std::vector<double> got_i(x.size()), got_q(x.size());
  std::size_t pos = 0, ci = 0;
  while (pos < x.size()) {
    const std::size_t n = std::min(kChunks[ci++ % std::size(kChunks)], x.size() - pos);
    blocked.step_block(std::span<const double>(x).subspan(pos, n),
                       std::span<const double>(ci_ref).subspan(pos, n),
                       std::span<const double>(cq_ref).subspan(pos, n),
                       std::span<double>(got_i).subspan(pos, n),
                       std::span<double>(got_q).subspan(pos, n));
    pos += n;
  }
  for (std::size_t k = 0; k < x.size(); ++k) {
    ASSERT_EQ(want_i[k], got_i[k]) << "i sample " << k;
    ASSERT_EQ(want_q[k], got_q[k]) << "q sample " << k;
  }
  EXPECT_EQ(blocked.output().i, scalar.output().i);
  EXPECT_EQ(blocked.output().q, scalar.output().q);
}

}  // namespace
}  // namespace ascp::dsp
