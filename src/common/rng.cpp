#include "common/rng.hpp"

#include <cmath>

namespace ascp {

namespace {
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

constexpr detail::ZigguratTable detail::kZiggurat = {
    {
        0x1.db4668fe7e49dp+1, 0x1.b8a7c476d2be8p+1, 0x1.9c8e0c7c8098fp+1,
        0x1.8aa73e440ffbbp+1, 0x1.7d45eb36eb841p+1, 0x1.7279dd4ac3f9dp+1,
        0x1.695c2be68edc9p+1, 0x1.616dff7c8f54ap+1, 0x1.5a61edf7e8f32p+1,
        0x1.54052012a04a4p+1, 0x1.4e3456b0e3a1bp+1, 0x1.48d61806d600fp+1,
        0x1.43d75b60bca1dp+1, 0x1.3f29848d3b416p+1, 0x1.3ac11b8e206d6p+1,
        0x1.3694f3a3740d9p+1, 0x1.329d9725e32f7p+1, 0x1.2ed4df8099571p+1,
        0x1.2b35aa5ebee3ep+1, 0x1.27bba2b5dbc92p+1, 0x1.246317a6b53c0p+1,
        0x1.2128dd36bdf08p+1, 0x1.1e0a342cf08f5p+1, 0x1.1b04b731f6bcbp+1,
        0x1.18164be0c1c37p+1, 0x1.153d16d45743cp+1, 0x1.12777201834f2p+1,
        0x1.0fc3e4d95f277p+1, 0x1.0d211dd28b00dp+1, 0x1.0a8ded0ec3719p+1,
        0x1.08093fe3e40e0p+1, 0x1.05921d1c4d768p+1, 0x1.0327a1cc4cf5cp+1,
        0x1.00c8fea1720d2p+1, 0x1.fceaeb2ca5f12p+0, 0x1.f858aff31cbebp+0,
        0x1.f3da09746081ep+0, 0x1.ef6dcddc7d38dp+0, 0x1.eb12e91486bb7p+0,
        0x1.e6c85a849b011p+0, 0x1.e28d331c67237p+0, 0x1.de609397e09b4p+0,
        0x1.da41aaf79a33ep+0, 0x1.d62fb52580b80p+0, 0x1.d229f9bfeefd5p+0,
        0x1.ce2fcb05f8c2ep+0, 0x1.ca4084e091e2ep+0, 0x1.c65b8c04dbabcp+0,
        0x1.c2804d2c6b16ap+0, 0x1.beae3c60cd0dep+0, 0x1.bae4d457ee113p+0,
        0x1.b72395df5b735p+0, 0x1.b36a075498d5ep+0, 0x1.afb7b428fe79bp+0,
        0x1.ac0c2c6fc637dp+0, 0x1.a867047516e4ap+0, 0x1.a4c7d45d01a2cp+0,
        0x1.a12e37c983364p+0, 0x1.9d99cd86b58aep+0, 0x1.9a0a373c73f1ap+0,
        0x1.967f1924c7affp+0, 0x1.92f819c682beep+0, 0x1.8f74e1b37c6b1p+0,
        0x1.8bf51b49ef330p+0, 0x1.887872788109fp+0, 0x1.84fe9484873b1p+0,
        0x1.81872fd21db6cp+0, 0x1.7e11f3adaeb8bp+0, 0x1.7a9e90168b8e7p+0,
        0x1.772cb58a39dcdp+0, 0x1.73bc14d01a2c0p+0, 0x1.704c5ec50cb78p+0,
        0x1.6cdd4426b889cp+0, 0x1.696e755e16b7bp+0, 0x1.65ffa248e0164p+0,
        0x1.62907a0176eb6p+0, 0x1.5f20aaa4dfc11p+0, 0x1.5bafe1165480dp+0,
        0x1.583dc8bff320fp+0, 0x1.54ca0b4ffd33fp+0, 0x1.515450720f44bp+0,
        0x1.4ddc3d83a5b7ap+0, 0x1.4a617543306c3p+0, 0x1.46e39778de059p+0,
        0x1.436240982ad93p+0, 0x1.3fdd09591d29bp+0, 0x1.3c538647ef788p+0,
        0x1.38c54749b9029p+0, 0x1.3531d7146a433p+0, 0x1.3198ba982d906p+0,
        0x1.2df97057e7ef0p+0, 0x1.2a536fae30e28p+0, 0x1.26a627fb9d115p+0,
        0x1.22f0ffbaa1e4ap+0, 0x1.1f335374a10edp+0, 0x1.1b6c7492c972bp+0,
        0x1.179ba80463fe2p+0, 0x1.13c024b2c7ebbp+0, 0x1.0fd911b97f22ap+0,
        0x1.0be58456ff4a1p+0, 0x1.07e47d87a40e9p+0, 0x1.03d4e7391c5a9p+0,
        0x1.ff6b21fffe2fdp-1, 0x1.f70a5866c8f29p-1, 0x1.ee848e9568251p-1,
        0x1.e5d6909f51b4bp-1, 0x1.dcfccc51c59d0p-1, 0x1.d3f340dda60fcp-1,
        0x1.cab56ac6a38b2p-1, 0x1.c13e2b014e83ap-1, 0x1.b787a7c516f17p-1,
        0x1.ad8b2506a1358p-1, 0x1.a340d1baf5af2p-1, 0x1.989f85c753b05p-1,
        0x1.8d9c6a9d35e15p-1, 0x1.822a858af0e54p-1, 0x1.763a1600eec49p-1,
        0x1.69b7b213f3f3cp-1, 0x1.5c8afdbf0214cp-1, 0x1.4e94c08c0ba85p-1,
        0x1.3fabee1911ca1p-1, 0x1.2f98d6bb4f3e5p-1, 0x1.1e0ce6b596975p-1,
        0x1.0a936da5e5567p-1, 0x1.e8e576e43fb4ep-2, 0x1.b4c8fece48dc1p-2,
        0x1.73949184db8e3p-2, 0x1.16db47e193c8ep-2, 0x0.0p+0,
    },
    {
        0x1.dab48848d3c1cp-1, 0x1.df5993967d2a6p-1, 0x1.e9c885d9a666bp-1,
        0x1.eea42f70ceeacp-1, 0x1.f1803c6a0781cp-1, 0x1.f366d2afaee48p-1,
        0x1.f4c3825de9f38p-1, 0x1.f5ca83ef26e1fp-1, 0x1.f69868793c530p-1,
        0x1.f73e31c89895dp-1, 0x1.f7c6a977e305fp-1, 0x1.f838ffd4ec0eap-1,
        0x1.f89a30bcaa7bbp-1, 0x1.f8edcde8cde13p-1, 0x1.f93677b627e76p-1,
        0x1.f97628687c107p-1, 0x1.f9ae64ccb1f64p-1, 0x1.f9e05ca2efdc4p-1,
        0x1.fa0d00cfbb6ccp-1, 0x1.fa3512e9cb952p-1, 0x1.fa59305b35721p-1,
        0x1.fa79da7e004a5p-1, 0x1.fa977c9ec13d6p-1, 0x1.fab27081a26dcp-1,
        0x1.facb01d4366f9p-1, 0x1.fae170d5cadc4p-1, 0x1.faf5f46a24900p-1,
        0x1.fb08bbbbc73bbp-1, 0x1.fb19ef88b640ap-1, 0x1.fb29b32d77103p-1,
        0x1.fb38257d095ffp-1, 0x1.fb456170e2018p-1, 0x1.fb517eb94bd57p-1,
        0x1.fb5c92349c858p-1, 0x1.fb66ae52354dbp-1, 0x1.fb6fe3652f8b4p-1,
        0x1.fb783fe9c00d0p-1, 0x1.fb7fd0bfb9735p-1, 0x1.fb86a15c1886fp-1,
        0x1.fb8cbbf324033p-1, 0x1.fb92299c5d1dfp-1, 0x1.fb96f271420e8p-1,
        0x1.fb9b1da7b43fcp-1, 0x1.fb9eb1a8ade0cp-1, 0x1.fba1b423d4106p-1,
        0x1.fba42a205a48bp-1, 0x1.fba6180b97b60p-1, 0x1.fba781c59edc5p-1,
        0x1.fba86aac1a8c1p-1, 0x1.fba8d5a3a81cap-1, 0x1.fba8c51fddb9cp-1,
        0x1.fba83b2a23e8ep-1, 0x1.fba7396782fc8p-1, 0x1.fba5c11d7fba4p-1,
        0x1.fba3d3361dd1cp-1, 0x1.fba170431ac58p-1, 0x1.fb9e9880706abp-1,
        0x1.fb9b4bd62b197p-1, 0x1.fb9789d99cec8p-1, 0x1.fb9351cdf4f98p-1,
        0x1.fb8ea2a43f27ap-1, 0x1.fb897afacf29cp-1, 0x1.fb83d91c1719ap-1,
        0x1.fb7dbafce8335p-1, 0x1.fb771e3a1a365p-1, 0x1.fb70001593e7ap-1,
        0x1.fb685d72ad163p-1, 0x1.fb6032d1e0430p-1, 0x1.fb577c4bbfa38p-1,
        0x1.fb4e358b1e8cfp-1, 0x1.fb4459c65d654p-1, 0x1.fb39e3b7c2e56p-1,
        0x1.fb2ecd94c9ba2p-1, 0x1.fb23110445454p-1, 0x1.fb16a7133b4f5p-1,
        0x1.fb0988284ac3dp-1, 0x1.fafbabf570e42p-1, 0x1.faed0967f6925p-1,
        0x1.fadd96964622dp-1, 0x1.facd48ab5f4e1p-1, 0x1.fabc13cf91f8ep-1,
        0x1.faa9eb0e19352p-1, 0x1.fa96c0371d81ap-1, 0x1.fa8283bd8f44dp-1,
        0x1.fa6d24902fe33p-1, 0x1.fa568fecff9b8p-1, 0x1.fa3eb12e1f177p-1,
        0x1.fa25718f03b33p-1, 0x1.fa0ab7e8a2981p-1, 0x1.f9ee6862ee1b5p-1,
        0x1.f9d06419a6a63p-1, 0x1.f9b088b20ff66p-1, 0x1.f98eafde8e73cp-1,
        0x1.f96aaecc7e5e7p-1, 0x1.f9445577b49f4p-1, 0x1.f91b6dddf8427p-1,
        0x1.f8efbb0b5013ep-1, 0x1.f8c0f7f61e36dp-1, 0x1.f88ed61f8e777p-1,
        0x1.f858fbe99f8acp-1, 0x1.f81f028fc2ae0p-1, 0x1.f7e073a948fe0p-1,
        0x1.f79cc61506b24p-1, 0x1.f7535a22e3d3ep-1, 0x1.f70374c1451a9p-1,
        0x1.f6ac395f78bd4p-1, 0x1.f64ca218dbb21p-1, 0x1.f5e37591f6ccdp-1,
        0x1.f56f39b2b0506p-1, 0x1.f4ee220c3043cp-1, 0x1.f45df82cd25b7p-1,
        0x1.f3bbfb4b67d5fp-1, 0x1.f304b35b5d58fp-1, 0x1.f233b16d764d7p-1,
        0x1.f143339d7d785p-1, 0x1.f02b9c88c734fp-1, 0x1.eee2a3186b510p-1,
        0x1.ed5a0a98bc7c7p-1, 0x1.eb7d8a7ccd9e7p-1, 0x1.e92f39746c21ep-1,
        0x1.e641170f50ca5p-1, 0x1.e26896f5fbf3ap-1, 0x1.dd2487adcb4cfp-1,
        0x1.d58014742e525p-1, 0x1.c96d1a883d2d1p-1, 0x1.b3911e9b804d8p-1,
        0x1.803c6d4f93a2cp-1, 0x0.0p+0,
    },
};

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

double Rng::gaussian_outside(unsigned layer, double u) {
  const double* x = detail::kZiggurat.x;
  if (layer == 0) {
    // Base strip beyond R = x[1]: Marsaglia's exponential-rejection tail.
    double tx, ty;
    do {
      tx = std::log(uniform_open()) / x[1];
      ty = std::log(uniform_open());
    } while (-2.0 * ty < tx * tx);
    return u < 0.0 ? tx - x[1] : x[1] - tx;
  }
  // Wedge between x[layer+1] and x[layer]: f0 and f1 are the density at the
  // wedge's outer and inner edge relative to f(v); accept a point drawn
  // uniformly between them if it lies under the curve.
  const double v = u * x[layer];
  const double f0 = std::exp(-0.5 * (x[layer] * x[layer] - v * v));
  const double f1 = std::exp(-0.5 * (x[layer + 1] * x[layer + 1] - v * v));
  if (f1 + (f0 - f1) * uniform() < 1.0) return v;
  return gaussian();  // rejected: draw afresh
}

Rng Rng::fork(std::uint64_t tag) {
  std::uint64_t mix = next_u64() ^ (tag * 0xD1342543DE82EF95ull);
  return Rng(splitmix64(mix));
}

FlickerNoise::FlickerNoise(Rng rng, double sigma, int num_octaves)
    : rng_(rng), stages_(num_octaves) {
  if (stages_ < 1) stages_ = 1;
  if (stages_ > 24) stages_ = 24;
  // Independent octave sources of equal variance: total variance is
  // stages · per-stage variance.
  per_stage_sigma_ = sigma / std::sqrt(static_cast<double>(stages_));
  for (int k = 0; k < stages_; ++k) state_[k] = rng_.gaussian(per_stage_sigma_);
  sum_ = 0.0;
  for (int k = 0; k < stages_; ++k) sum_ += state_[k];
}

double FlickerNoise::next() {
  // Stage k redraws when bit k of the counter toggles low→(trailing-zero
  // rule): on average two redraws per call, independent of stage count.
  const std::uint64_t n = counter_++;
  std::uint64_t changed = n ^ (n + 1);  // trailing ones of n plus next bit
  for (int k = 0; k < stages_ && (changed >> k) & 1; ++k) {
    sum_ -= state_[k];
    state_[k] = rng_.gaussian(per_stage_sigma_);
    sum_ += state_[k];
  }
  return sum_;
}

}  // namespace ascp
