// prox_test.cpp — the closed-form proximal operators (paper eq. 16 & 18).
#include <gtest/gtest.h>

#include <cmath>

#include "core/prox.h"
#include "tensor/ops.h"

namespace fsa::core {
namespace {

TEST(ProxL0, HardThresholdKeepsLargeEntries) {
  // threshold² = 2/ρ; ρ = 2 → keep |v| > 1.
  const Tensor v = Tensor::from_vector({0.5f, -0.5f, 1.5f, -2.0f, 0.99f, 1.01f});
  const Tensor z = prox_l0(v, 2.0);
  EXPECT_EQ(z[0], 0.0f);
  EXPECT_EQ(z[1], 0.0f);
  EXPECT_EQ(z[2], 1.5f);
  EXPECT_EQ(z[3], -2.0f);
  EXPECT_EQ(z[4], 0.0f);
  EXPECT_EQ(z[5], 1.01f);
}

TEST(ProxL0, KeptEntriesUnshrunk) {
  // ℓ0 prox is keep-or-kill — surviving values must be bit-identical.
  const Tensor v = Tensor::from_vector({3.25f, -7.5f});
  const Tensor z = prox_l0(v, 1.0);
  EXPECT_EQ(z[0], 3.25f);
  EXPECT_EQ(z[1], -7.5f);
}

TEST(ProxL0, LargerRhoKeepsMore) {
  Rng rng(1);
  const Tensor v = Tensor::randn(Shape({1000}), rng);
  const std::int64_t sparse = ops::l0_norm(prox_l0(v, 0.5));
  const std::int64_t dense = ops::l0_norm(prox_l0(v, 50.0));
  EXPECT_LT(sparse, dense);
}

TEST(ProxL0, MinimizesTheProxObjective) {
  // For each coordinate, z must beat the alternative choice in
  // ‖z‖₀ + (ρ/2)(z − v)²: keeping costs 1, killing costs (ρ/2)v².
  Rng rng(2);
  const Tensor v = Tensor::randn(Shape({200}), rng);
  const double rho = 3.0;
  const Tensor z = prox_l0(v, rho);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double keep_cost = 1.0;
    const double kill_cost = 0.5 * rho * static_cast<double>(v[i]) * v[i];
    if (z[i] != 0.0f)
      EXPECT_LE(keep_cost, kill_cost + 1e-9) << "kept a coordinate that should be killed";
    else
      EXPECT_LE(kill_cost, keep_cost + 1e-9) << "killed a coordinate that should be kept";
  }
}

TEST(ProxL0, InvalidRhoThrows) {
  EXPECT_THROW(prox_l0(Tensor(Shape({1})), 0.0), std::invalid_argument);
  EXPECT_THROW(prox_l0(Tensor(Shape({1})), -1.0), std::invalid_argument);
}

TEST(ProxL2, CollapsesSmallVectors) {
  // ‖v‖ < 1/ρ → 0 (eq. 18, lower branch).
  const Tensor v = Tensor::from_vector({0.01f, 0.01f});
  const Tensor z = prox_l2(v, 1.0);
  EXPECT_EQ(ops::l2_norm(z), 0.0);
}

TEST(ProxL2, ShrinksLargeVectorsRadially) {
  const Tensor v = Tensor::from_vector({3.0f, 4.0f});  // ‖v‖ = 5
  const double rho = 1.0;
  const Tensor z = prox_l2(v, rho);
  // Shrink factor 1 − 1/(ρ‖v‖) = 0.8.
  EXPECT_NEAR(z[0], 2.4f, 1e-5f);
  EXPECT_NEAR(z[1], 3.2f, 1e-5f);
  // Direction preserved.
  EXPECT_NEAR(z[1] / z[0], 4.0 / 3.0, 1e-5);
}

TEST(ProxL2, NormReducedByExactlyOneOverRho) {
  Rng rng(3);
  Tensor v = Tensor::randn(Shape({64}), rng);
  const double rho = 2.5;
  const double before = ops::l2_norm(v);
  const double after = ops::l2_norm(prox_l2(v, rho));
  EXPECT_NEAR(before - after, 1.0 / rho, 1e-4);
}

TEST(ProxL2, MinimizesTheProxObjectiveVsPerturbations) {
  Rng rng(4);
  const Tensor v = Tensor::randn(Shape({16}), rng);
  const double rho = 1.7;
  const Tensor z = prox_l2(v, rho);
  auto objective = [&](const Tensor& cand) {
    return ops::l2_norm(cand) + 0.5 * rho * std::pow(ops::l2_norm(ops::sub(cand, v)), 2);
  };
  const double base = objective(z);
  Rng pr(5);
  for (int trial = 0; trial < 20; ++trial) {
    Tensor perturbed = z;
    perturbed.axpy(0.01f, Tensor::randn(z.shape(), pr));
    EXPECT_GE(objective(perturbed) + 1e-7, base);
  }
}

TEST(ProxBoth, ZeroInputGivesZero) {
  const Tensor v = Tensor::zeros(Shape({8}));
  EXPECT_EQ(ops::l0_norm(prox_l0(v, 1.0)), 0);
  EXPECT_EQ(ops::l2_norm(prox_l2(v, 1.0)), 0.0);
  EXPECT_EQ(ops::l2_norm(prox_l1(v, 1.0)), 0.0);
}

TEST(ProxL1, SoftThresholdByHand) {
  // threshold = 1/ρ = 0.5.
  const Tensor v = Tensor::from_vector({0.2f, -0.4f, 0.5f, 1.5f, -2.0f});
  const Tensor z = prox_l1(v, 2.0);
  EXPECT_EQ(z[0], 0.0f);
  EXPECT_EQ(z[1], 0.0f);
  EXPECT_EQ(z[2], 0.0f);  // exactly at the threshold → 0
  EXPECT_FLOAT_EQ(z[3], 1.0f);
  EXPECT_FLOAT_EQ(z[4], -1.5f);
}

TEST(ProxL1, ShrinksTowardZeroNeverPast) {
  Rng rng(6);
  const Tensor v = Tensor::randn(Shape({128}), rng);
  const Tensor z = prox_l1(v, 1.5);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_LE(std::fabs(z[i]), std::fabs(v[i]));
    if (z[i] != 0.0f) {
      EXPECT_GT(z[i] * v[i], 0.0f);  // same sign
    }
  }
}

TEST(ProxL1, MinimizesTheProxObjective) {
  Rng rng(7);
  const Tensor v = Tensor::randn(Shape({32}), rng);
  const double rho = 2.5;
  const Tensor z = prox_l1(v, rho);
  auto objective = [&](const Tensor& cand) {
    double l1 = 0.0;
    for (float x : cand.span()) l1 += std::fabs(x);
    return l1 + 0.5 * rho * std::pow(ops::l2_norm(ops::sub(cand, v)), 2);
  };
  const double base = objective(z);
  Rng pr(8);
  for (int trial = 0; trial < 20; ++trial) {
    Tensor perturbed = z;
    perturbed.axpy(0.01f, Tensor::randn(z.shape(), pr));
    EXPECT_GE(objective(perturbed) + 1e-7, base);
  }
}

TEST(ProxL1, InvalidRhoThrows) {
  EXPECT_THROW(prox_l1(Tensor(Shape({1})), 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace fsa::core
