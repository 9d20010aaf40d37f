#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/spectrum.hpp"
#include "common/state_archive.hpp"

namespace ascp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng r(11);
  std::vector<double> v(100000);
  for (auto& x : v) x = r.uniform();
  EXPECT_NEAR(mean(v), 0.5, 0.01);
}

TEST(Rng, GaussianMomentsMatch) {
  Rng r(13);
  std::vector<double> v(200000);
  for (auto& x : v) x = r.gaussian();
  EXPECT_NEAR(mean(v), 0.0, 0.02);
  EXPECT_NEAR(stddev(v), 1.0, 0.02);
}

TEST(Rng, GaussianSigmaScales) {
  Rng r(17);
  std::vector<double> v(100000);
  for (auto& x : v) x = r.gaussian(3.5);
  EXPECT_NEAR(stddev(v), 3.5, 0.1);
}

TEST(Rng, GaussianTailsPresent) {
  // A correct normal source produces |x| > 3 about 0.27 % of the time.
  Rng r(19);
  int tail = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i)
    if (std::abs(r.gaussian()) > 3.0) ++tail;
  const double frac = static_cast<double>(tail) / n;
  EXPECT_NEAR(frac, 0.0027, 0.001);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(23);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  // Correlation between forked streams should be negligible.
  double acc = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) acc += (a.uniform() - 0.5) * (b.uniform() - 0.5);
  EXPECT_LT(std::abs(acc / n), 1e-3);
}

// ---- ziggurat normal generator -------------------------------------------

constexpr double kZigR = 3.442619855899;
constexpr double kZigV = 9.91256303526217e-3;

/// Standard normal upper-tail probability.
double upper_tail(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

TEST(Ziggurat, TableMatchesDoornikRecurrence) {
  // The hex-float table must be the ZIGNOR recurrence, up to the rounding a
  // double-precision evaluation of it accumulates over 128 layers.
  const auto& z = detail::kZiggurat;
  double f = std::exp(-0.5 * kZigR * kZigR);
  EXPECT_NEAR(z.x[0], kZigV / f, 1e-15 * z.x[0]);
  EXPECT_EQ(z.x[1], kZigR);
  EXPECT_EQ(z.x[128], 0.0);
  double prev = kZigR;
  for (int i = 2; i < 128; ++i) {
    const double want = std::sqrt(-2.0 * std::log(kZigV / prev + f));
    EXPECT_NEAR(z.x[i], want, 1e-12 * want) << "layer " << i;
    prev = z.x[i];
    f = std::exp(-0.5 * prev * prev);
  }
  for (int i = 0; i < 128; ++i) EXPECT_NEAR(z.r[i], z.x[i + 1] / z.x[i], 1e-15) << "layer " << i;
  // Every layer has area V, the top cap included.
  EXPECT_NEAR(z.x[127] * (1.0 - std::exp(-0.5 * z.x[127] * z.x[127])), kZigV, 1e-9);
}

TEST(Ziggurat, TailMassBeyondR) {
  // |x| > R only comes out of the tail sampler (layer 0 beyond its strip),
  // so its mass checks that path; |x| > 4.5 checks it reaches deep.
  Rng r(101);
  const long n = 4'000'000;
  long beyond_r = 0, beyond_45 = 0, neg = 0;
  for (long i = 0; i < n; ++i) {
    const double g = r.gaussian();
    if (std::abs(g) > kZigR) {
      ++beyond_r;
      if (g < 0) ++neg;
    }
    if (std::abs(g) > 4.5) ++beyond_45;
  }
  const double p = 2.0 * upper_tail(kZigR);  // 5.76e-4
  const double expect = p * n;
  EXPECT_NEAR(beyond_r, expect, 5.0 * std::sqrt(expect));
  EXPECT_NEAR(neg, beyond_r / 2.0, 5.0 * std::sqrt(beyond_r / 4.0));
  const double expect_45 = 2.0 * upper_tail(4.5) * n;  // ≈ 27
  EXPECT_NEAR(beyond_45, expect_45, 5.0 * std::sqrt(expect_45));
}

TEST(Ziggurat, ChiSquareOverEquiprobableBins) {
  // 256 bins of equal normal probability, 10^7 draws: χ² with 255 dof has
  // mean 255 and sd 22.6; 5 sd above the mean is a gross misfit.
  constexpr int kBins = 256;
  std::vector<double> edges;
  for (int k = 1; k < kBins; ++k) {
    const double target = static_cast<double>(k) / kBins;  // P(X > edge)
    double lo = -8.0, hi = 8.0;
    for (int it = 0; it < 100; ++it) {
      const double mid = 0.5 * (lo + hi);
      (upper_tail(mid) > target ? lo : hi) = mid;
    }
    edges.push_back(0.5 * (lo + hi));
  }
  std::sort(edges.begin(), edges.end());
  Rng r(103);
  const long n = 10'000'000;
  std::vector<long> count(kBins, 0);
  for (long i = 0; i < n; ++i) {
    const double g = r.gaussian();
    ++count[static_cast<std::size_t>(std::upper_bound(edges.begin(), edges.end(), g) -
                                     edges.begin())];
  }
  const double expect = static_cast<double>(n) / kBins;
  double chi2 = 0.0;
  for (long c : count) chi2 += (c - expect) * (c - expect) / expect;
  EXPECT_LT(chi2, 255.0 + 5.0 * std::sqrt(2.0 * 255.0)) << "chi2 " << chi2;
}

TEST(Ziggurat, NoAutocorrelationAtShortLags) {
  Rng r(107);
  std::vector<double> v(1'000'000);
  for (auto& x : v) x = r.gaussian();
  double energy = 0.0;
  for (double x : v) energy += x * x;
  for (std::size_t lag = 1; lag <= 4; ++lag) {
    double acc = 0.0;
    for (std::size_t i = 0; i + lag < v.size(); ++i) acc += v[i] * v[i + lag];
    EXPECT_LT(std::abs(acc / energy), 5.0 / std::sqrt(static_cast<double>(v.size())))
        << "lag " << lag;
  }
}

TEST(Ziggurat, WhiteSpectrumIsFlat) {
  Rng r(109);
  std::vector<double> v(1 << 18);
  for (auto& x : v) x = r.gaussian();
  const auto psd = welch_psd(v, 1.0, 1 << 10);
  const double low = psd.band_mean(0.01, 0.1);
  const double high = psd.band_mean(0.35, 0.49);
  EXPECT_NEAR(low / high, 1.0, 0.05);
  EXPECT_NEAR(psd.band_mean(0.01, 0.49), 2.0, 0.05);  // one-sided density of unit variance
}

TEST(Ziggurat, MidStreamStateRoundTripContinuesIdentically) {
  Rng a(113);
  for (int i = 0; i < 1001; ++i) a.gaussian();  // odd: a pairwise generator would be mid-pair
  StateArchive save = StateArchive::saver();
  a.serialize_state(save);
  const auto image = save.take();
  EXPECT_EQ(image.size(), 32u);  // four xoshiro256++ words, no cached deviate

  Rng b(999);
  StateArchive load = StateArchive::loader(image);
  b.serialize_state(load);
  EXPECT_TRUE(load.exhausted());
  for (int i = 0; i < 100000; ++i) {
    const double x = a.gaussian(), y = b.gaussian();
    ASSERT_EQ(std::memcmp(&x, &y, sizeof x), 0) << "draw " << i;
  }
}

TEST(Ziggurat, ForkedStreamIsStandardNormalAndUncorrelated) {
  Rng parent(127);
  Rng child = parent.fork(7);
  const int n = 400000;
  std::vector<double> c(n);
  double cross = 0.0;
  for (int i = 0; i < n; ++i) {
    c[static_cast<std::size_t>(i)] = child.gaussian();
    cross += c[static_cast<std::size_t>(i)] * parent.gaussian();
  }
  EXPECT_NEAR(mean(c), 0.0, 5.0 / std::sqrt(n));
  EXPECT_NEAR(stddev(c), 1.0, 5.0 / std::sqrt(2.0 * n));
  EXPECT_LT(std::abs(cross / n), 5.0 / std::sqrt(n));
}

TEST(FlickerNoise, RmsApproximatesRequested) {
  Rng r(29);
  FlickerNoise f(r, 2.0, 16);
  std::vector<double> v(1 << 18);
  for (auto& x : v) x = f.next();
  EXPECT_NEAR(rms(v), 2.0, 0.5);
}

TEST(FlickerNoise, SpectrumFallsWithFrequency) {
  // The defining property: PSD at low frequency well above PSD at high
  // frequency, roughly 10 dB per decade (1/f).
  Rng r(31);
  FlickerNoise f(r, 1.0, 16);
  std::vector<double> v(1 << 18);
  for (auto& x : v) x = f.next();
  const auto psd = welch_psd(v, 1.0, 1 << 12);
  const double low = psd.band_mean(0.001, 0.004);
  const double high = psd.band_mean(0.1, 0.4);
  EXPECT_GT(low, high * 8.0);  // ≥ ~9 dB over two decades
}

}  // namespace
}  // namespace ascp
