// Deterministic pseudo-random source.
//
// The stochastic decisions made outside a run (the synthetic catalog's
// shape, fuzz op generation, the random baselines' fault schedules, the
// property tests' random inputs) draw from a seeded Rng, so each is
// reproducible. Nothing inside a run draws: a run is fixed by its workload
// and its faults.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>
#include <random>

namespace ctcommon {

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  uint64_t Uniform(uint64_t lo, uint64_t hi) {
    std::uniform_int_distribution<uint64_t> dist(lo, hi);
    return dist(engine_);
  }

  // Uniform integer in [0, n). Requires n > 0.
  uint64_t Index(uint64_t n) { return Uniform(0, n - 1); }

  // Uniform double in [0, 1).
  double Double() {
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    return dist(engine_);
  }

  // Bernoulli draw with probability p of returning true.
  bool Chance(double p) { return Double() < p; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace ctcommon

#endif  // SRC_COMMON_RNG_H_
