// The benchmark's own inputs and oracle: a seeded generator for the rows
// and queries, and an exact scalar top-k scan. Nothing here includes or
// calls into src/, so a change to the program's kernels can neither change
// the inputs nor move the scan time that query costs are divided by.
#ifndef DBLSH_PERFBENCH_REFERENCE_H_
#define DBLSH_PERFBENCH_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// splitmix64: a small, fully specified generator, so a seed names the same
// inputs on every compiler and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(Uniform() * n); }
  // Standard normal (Box-Muller; one value per call keeps it stateless).
  double Gaussian() {
    const double u1 = 1.0 - Uniform();  // (0, 1]
    const double u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  uint64_t state_;
};

// Derives an independent stream for one purpose from the run's seed.
inline uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  Rng mix(seed * 0x100000001B3ull + purpose);
  return mix.Next();
}

// The standard rung: n rows in `dim` dimensions drawn from `clusters`
// isotropic Gaussians (stddev 2) whose centres are uniform in [0, 100)^dim.
inline std::vector<float> ClusteredRows(size_t n, size_t dim, size_t clusters,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<float> centres(clusters * dim);
  for (float& x : centres) x = static_cast<float>(rng.Uniform() * 100.0);
  std::vector<float> rows(n * dim);
  for (size_t i = 0; i < n; ++i) {
    const float* c = &centres[rng.Below(clusters) * dim];
    for (size_t j = 0; j < dim; ++j) {
      rows[i * dim + j] = c[j] + static_cast<float>(2.0 * rng.Gaussian());
    }
  }
  return rows;
}

// One query near the data: a row chosen by `rng` plus N(0, 2^2) noise.
inline void NoisyCopy(const float* row, size_t dim, Rng* rng, float* out) {
  for (size_t j = 0; j < dim; ++j) {
    out[j] = row[j] + static_cast<float>(2.0 * rng->Gaussian());
  }
}

struct Hit {
  float d2 = 0.f;  // squared L2
  uint32_t id = 0;
  bool operator<(const Hit& o) const {
    return d2 != o.d2 ? d2 < o.d2 : id < o.id;
  }
};

// Exact top-k by a naive scalar scan over `n` rows; rows with live[i] == 0
// are skipped when `live` is given. Output ascending by (distance, id).
inline void ExactTopK(const float* rows, size_t n, size_t dim,
                      const uint8_t* live, const float* q, size_t k,
                      std::vector<Hit>* out) {
  out->clear();
  float worst = INFINITY;
  for (size_t i = 0; i < n; ++i) {
    if (live != nullptr && live[i] == 0) continue;
    const float* r = rows + i * dim;
    float d2 = 0.f;
    for (size_t j = 0; j < dim; ++j) {
      const float t = r[j] - q[j];
      d2 += t * t;
    }
    if (out->size() == k && !(d2 < worst)) continue;
    const Hit h{d2, static_cast<uint32_t>(i)};
    out->insert(std::upper_bound(out->begin(), out->end(), h), h);
    if (out->size() > k) out->pop_back();
    if (out->size() == k) worst = out->back().d2;
  }
}

// L2 distance in double, for checking the distances the program reports.
inline double ExactDistance(const float* a, const float* b, size_t dim) {
  double s = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double t = static_cast<double>(a[j]) - b[j];
    s += t * t;
  }
  return std::sqrt(s);
}

// FNV-1a over (id, row bytes) pairs, for digesting a set of live rows.
class Digest {
 public:
  void Add(uint32_t id, const float* row, size_t dim) {
    Bytes(&id, sizeof(id));
    Bytes(row, dim * sizeof(float));
  }
  uint64_t value() const { return h_; }

 private:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001B3ull;
  }
  uint64_t h_ = 0xCBF29CE484222325ull;
};

}  // namespace perfbench

#endif  // DBLSH_PERFBENCH_REFERENCE_H_
