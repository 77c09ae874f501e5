#include "numeric/random.h"

#include <cmath>
#include <random>
#include <sstream>

#include "common/check.h"
#include "numeric/gamma_internal.h"
#include "numeric/random_simd.h"

namespace zonestream::numeric {

uint64_t SubstreamSeed(uint64_t base_seed, uint64_t substream) {
  // Two rounds of the SplitMix64 finalizer over the (base, substream)
  // pair; the avalanche decorrelates adjacent substream indices.
  uint64_t z = base_seed + 0x9e3779b97f4a7c15ull * (substream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rng::UniformIndex(uint64_t n) {
  ZS_CHECK_GT(n, 0u);
  std::uniform_int_distribution<uint64_t> dist(0, n - 1);
  return dist(engine_);
}

double Rng::Gamma(double shape, double scale) {
  ZS_CHECK_GT(shape, 0.0);
  ZS_CHECK_GT(scale, 0.0);
  std::gamma_distribution<double> dist(shape, scale);
  return dist(engine_);
}

double Rng::GammaByMoments(double mean, double variance) {
  ZS_CHECK_GT(mean, 0.0);
  ZS_CHECK_GT(variance, 0.0);
  const double shape = mean * mean / variance;
  const double scale = variance / mean;
  return Gamma(shape, scale);
}

double Rng::LognormalByMoments(double mean, double variance) {
  ZS_CHECK_GT(mean, 0.0);
  ZS_CHECK_GT(variance, 0.0);
  // If X ~ Lognormal(mu, sigma^2) then E[X] = exp(mu + sigma^2/2) and
  // Var[X] = (exp(sigma^2) - 1) exp(2mu + sigma^2); invert for (mu, sigma).
  const double sigma2 = std::log(1.0 + variance / (mean * mean));
  const double mu = std::log(mean) - 0.5 * sigma2;
  std::lognormal_distribution<double> dist(mu, std::sqrt(sigma2));
  return dist(engine_);
}

double Rng::TruncatedPareto(double x_min, double alpha, double cap) {
  ZS_CHECK_GT(x_min, 0.0);
  ZS_CHECK_GT(alpha, 0.0);
  ZS_CHECK_GT(cap, x_min);
  // Inverse-CDF sampling of the Pareto conditioned on X <= cap:
  // F(x) = (1 - (x_min/x)^alpha) / (1 - (x_min/cap)^alpha).
  const double tail_at_cap = std::pow(x_min / cap, alpha);
  const double u = Uniform01() * (1.0 - tail_at_cap);
  return x_min * std::pow(1.0 - u, -1.0 / alpha);
}

double Rng::Exponential(double mean) {
  ZS_CHECK_GT(mean, 0.0);
  std::exponential_distribution<double> dist(1.0 / mean);
  return dist(engine_);
}

std::string Rng::SaveState() const {
  std::ostringstream out;
  out << engine_;
  return out.str();
}

common::Status Rng::LoadState(const std::string& state) {
  std::istringstream in(state);
  Mt19937_64 engine;
  in >> engine;
  if (in.fail()) {
    return common::Status::InvalidArgument(
        "Rng::LoadState: malformed engine state");
  }
  // The standard stream extraction accepts a valid prefix; insist the
  // state is exactly one engine serialization (trailing whitespace only)
  // so a truncated or concatenated snapshot field cannot slip through.
  std::string trailing;
  in >> trailing;
  if (!trailing.empty()) {
    return common::Status::InvalidArgument(
        "Rng::LoadState: trailing bytes after engine state");
  }
  engine_ = engine;
  return common::Status::Ok();
}

namespace {

// Stack-buffer chunk for bulk word pulls: big enough that a typical
// round's fill is one FillRaw call, small enough to stay cache-resident.
constexpr size_t kRawChunk = 256;

}  // namespace

void Rng::FillUniform01(double* out, size_t n) {
  ZS_CHECK(out != nullptr || n == 0);
  uint64_t raw[kRawChunk];
  while (n > 0) {
    const size_t take = n < kRawChunk ? n : kRawChunk;
    engine_.FillRaw(raw, take);
    if (!internal::UniformFromRawWide(raw, out, take)) {
      for (size_t i = 0; i < take; ++i) {
        out[i] = static_cast<double>(raw[i] >> 11) * 0x1.0p-53;
      }
    }
    out += take;
    n -= take;
  }
}

void Rng::FillUniform(double lo, double hi, double* out, size_t n) {
  ZS_CHECK_LE(lo, hi);
  ZS_CHECK(out != nullptr || n == 0);
  const double width = hi - lo;
  uint64_t raw[kRawChunk];
  while (n > 0) {
    const size_t take = n < kRawChunk ? n : kRawChunk;
    engine_.FillRaw(raw, take);
    if (!internal::UniformAffineFromRawWide(raw, lo, width, out, take)) {
      for (size_t i = 0; i < take; ++i) {
        out[i] = lo + width * (static_cast<double>(raw[i] >> 11) * 0x1.0p-53);
      }
    }
    out += take;
    n -= take;
  }
}

GammaBatchSampler::GammaBatchSampler(double shape, double scale)
    : shape_(shape), scale_(scale) {
  ZS_CHECK_GT(shape, 0.0);
  ZS_CHECK_GT(scale, 0.0);
  const double effective_shape = shape >= 1.0 ? shape : shape + 1.0;
  d_ = effective_shape - 1.0 / 3.0;
  c_ = 1.0 / std::sqrt(9.0 * d_);
  inv_shape_ = shape >= 1.0 ? 0.0 : 1.0 / shape;
}

namespace internal {

const ZigguratTables& NormalZiggurat() {
  static const ZigguratTables tables = [] {
    ZigguratTables t;
    // 128-layer constants (Marsaglia & Tsang 2000): r is the base-strip
    // edge, v the common strip area.
    const double r = 3.442619855899;
    const double v = 9.91256303526217e-3;
    t.x[0] = v * std::exp(0.5 * r * r);
    t.x[1] = r;
    for (int i = 2; i < 128; ++i) {
      t.x[i] = std::sqrt(-2.0 * std::log(v / t.x[i - 1] +
                                         std::exp(-0.5 * t.x[i - 1] *
                                                  t.x[i - 1])));
    }
    t.x[128] = 0.0;
    for (int i = 0; i <= 128; ++i) {
      t.f[i] = std::exp(-0.5 * t.x[i] * t.x[i]);
    }
    return t;
  }();
  return tables;
}

}  // namespace internal

void GammaBatchSampler::Fill(Rng* rng, double* out, size_t n) const {
  ZS_CHECK(rng != nullptr);
  ZS_CHECK(out != nullptr || n == 0);
  const internal::ZigguratTables& tables = internal::NormalZiggurat();
  if (inv_shape_ == 0.0) {
    // Shape >= 1: the speculative wide sampler reproduces the scalar
    // rejection walk bit-exactly (numeric/random_simd.h); it handles the
    // whole batch when a SIMD tier is active.
    if (internal::GammaFillWide(rng, tables, d_, c_, scale_, out, n)) {
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      out[i] = scale_ *
               internal::MarsagliaTsangDraw(rng->engine(), tables, d_, c_);
    }
  } else {
    // shape < 1: Gamma(shape) = Gamma(shape + 1) * U^{1/shape}.
    for (size_t i = 0; i < n; ++i) {
      const double g =
          internal::MarsagliaTsangDraw(rng->engine(), tables, d_, c_);
      out[i] = scale_ * g * std::pow(rng->Uniform01(), inv_shape_);
    }
  }
}

double GammaBatchSampler::Sample(Rng* rng) const {
  double value;
  Fill(rng, &value, 1);
  return value;
}

}  // namespace zonestream::numeric
