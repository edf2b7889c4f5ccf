// HealthMonitor unit tests plus end-to-end guard behaviour in both training
// stages: a NaN poisoned into the weights mid-run must abort under kThrow
// and be rolled back and survived under kRollback.
#include "src/robust/health.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "tests/robust/tiny_stage.h"

namespace ullsnn::robust {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

TEST(HealthReportTest, ScanCountsFaultKinds) {
  HealthMonitor monitor(GuardConfig{.policy = GuardPolicy::kWarn,
                                    .explosion_threshold = 100.0F});
  Tensor t({6});
  t[0] = 1.0F;
  t[1] = kNan;
  t[2] = kInf;
  t[3] = -kInf;
  t[4] = 250.0F;  // finite but beyond the explosion threshold
  t[5] = -2.0F;
  HealthReport report;
  monitor.scan_tensor("w.value", t, report);
  EXPECT_EQ(report.nan_count, 1);
  EXPECT_EQ(report.inf_count, 2);
  EXPECT_EQ(report.exploded_count, 1);
  EXPECT_FLOAT_EQ(report.max_abs, 250.0F);
  EXPECT_EQ(report.worst, "w.value");
  EXPECT_FALSE(report.healthy());
  EXPECT_NE(report.describe().find("NaN"), std::string::npos);
}

TEST(HealthReportTest, HealthyTensorStaysHealthy) {
  HealthMonitor monitor(GuardConfig{.policy = GuardPolicy::kWarn});
  Tensor t({4}, 0.5F);
  HealthReport report;
  monitor.scan_tensor("w", t, report);
  EXPECT_TRUE(report.healthy());
  EXPECT_EQ(report.describe(), "healthy");
  EXPECT_TRUE(report.worst.empty());
}

TEST(HealthMonitorTest, CheckScansValuesGradsAndLoss) {
  HealthMonitor monitor(GuardConfig{.policy = GuardPolicy::kThrow});
  dnn::Param p{"w", Tensor({3}, 1.0F), Tensor({3}, 0.0F), true};
  EXPECT_TRUE(monitor.check({&p}, 0.5F).healthy());
  // Non-finite loss alone is flagged even with clean tensors.
  EXPECT_FALSE(monitor.check({&p}, kNan).healthy());
  EXPECT_EQ(monitor.check({&p}, kNan).worst, "loss");
  // A NaN gradient is flagged with its qualified name.
  p.grad[1] = kNan;
  const HealthReport report = monitor.check({&p}, 0.5F);
  EXPECT_FALSE(report.healthy());
  EXPECT_EQ(report.worst, "w.grad");
}

TEST(HealthMonitorTest, InvalidConfigRejected) {
  EXPECT_THROW(HealthMonitor(GuardConfig{.retry_budget = -1}),
               std::invalid_argument);
  EXPECT_THROW(HealthMonitor(GuardConfig{.lr_backoff = 0.0F}),
               std::invalid_argument);
  EXPECT_THROW(HealthMonitor(GuardConfig{.lr_backoff = 1.5F}),
               std::invalid_argument);
}

TEST(HealthMonitorTest, DecidePolicies) {
  HealthReport bad;
  bad.nan_count = 1;
  HealthReport good;

  HealthMonitor off(GuardConfig{.policy = GuardPolicy::kOff});
  EXPECT_EQ(off.decide(bad), GuardAction::kProceed);

  HealthMonitor warn(GuardConfig{.policy = GuardPolicy::kWarn});
  EXPECT_EQ(warn.decide(bad), GuardAction::kProceed);

  HealthMonitor thrower(GuardConfig{.policy = GuardPolicy::kThrow});
  EXPECT_EQ(thrower.decide(good), GuardAction::kProceed);
  EXPECT_EQ(thrower.decide(bad), GuardAction::kAbort);
}

TEST(HealthMonitorTest, RollbackCompoundsLrAndExhaustsBudget) {
  HealthMonitor monitor(GuardConfig{.policy = GuardPolicy::kRollback,
                                    .retry_budget = 2,
                                    .lr_backoff = 0.5F});
  dnn::Param p{"w", Tensor({2}, 1.0F), Tensor({2}, 0.0F), true};
  std::vector<Tensor> velocity(1, Tensor({2}, 0.0F));
  Rng rng(9);
  HealthReport bad;
  bad.nan_count = 1;

  // Without a snapshot there is nothing to roll back to: abort immediately.
  EXPECT_EQ(monitor.decide(bad), GuardAction::kAbort);

  monitor.snapshot({&p}, velocity, rng);
  EXPECT_EQ(monitor.decide(bad), GuardAction::kRetry);
  EXPECT_FLOAT_EQ(monitor.lr_scale(), 0.5F);
  EXPECT_EQ(monitor.decide(bad), GuardAction::kRetry);
  EXPECT_FLOAT_EQ(monitor.lr_scale(), 0.25F);
  EXPECT_EQ(monitor.rollbacks(), 2);
  // Budget exhausted.
  EXPECT_EQ(monitor.decide(bad), GuardAction::kAbort);
}

TEST(HealthMonitorTest, SnapshotRestoreIsBitwise) {
  HealthMonitor monitor(GuardConfig{.policy = GuardPolicy::kRollback});
  dnn::Param p{"w", Tensor({4}), Tensor({4}, 0.0F), true};
  Rng init(3);
  for (std::int64_t i = 0; i < 4; ++i) p.value[i] = init.normal();
  std::vector<Tensor> velocity(1, Tensor({4}, 0.125F));
  Rng rng(17);
  (void)rng.normal();  // advance into a Box–Muller cached state

  const Tensor values_before = p.value;
  const RngState rng_before = rng.state();
  monitor.snapshot({&p}, velocity, rng);

  // Trash everything.
  p.value.fill(kNan);
  p.grad.fill(7.0F);
  velocity[0].fill(kNan);
  (void)rng.next_u64();
  (void)rng.normal();

  ASSERT_TRUE(monitor.restore({&p}, velocity, rng));
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(p.value[i], values_before[i]) << i;
    EXPECT_EQ(p.grad[i], 0.0F) << "restore must zero gradients";
    EXPECT_EQ(velocity[0][i], 0.125F) << i;
  }
  const RngState rng_after = rng.state();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rng_after.s[i], rng_before.s[i]);
  EXPECT_EQ(rng_after.has_cached_normal, rng_before.has_cached_normal);
  EXPECT_EQ(rng_after.cached_normal_bits, rng_before.cached_normal_bits);
}

TEST(HealthMonitorTest, RestoreWithoutSnapshotIsNoOp) {
  HealthMonitor monitor(GuardConfig{.policy = GuardPolicy::kRollback});
  dnn::Param p{"w", Tensor({2}, 5.0F), Tensor({2}, 1.0F), true};
  std::vector<Tensor> velocity;
  Rng rng(1);
  EXPECT_FALSE(monitor.restore({&p}, velocity, rng));
  EXPECT_EQ(p.value[0], 5.0F);
  EXPECT_EQ(p.grad[0], 1.0F);
}

// ---- trainer integration: survive an injected mid-run NaN burst ----
//
// Both training stages run the same loop, so each case runs for both.

class GuardedTrainingTest : public testing::TestWithParam<Stage> {};

bool all_params_finite(const std::vector<dnn::Param*>& params) {
  for (const dnn::Param* p : params) {
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      if (!std::isfinite(p->value[i])) return false;
    }
  }
  return true;
}

TEST_P(GuardedTrainingTest, NanBurstAbortsUnderThrowPolicy) {
  const data::LabeledImages train = easy_data(96, 1);
  TinyStage stage(GetParam(), {.guard = {.policy = GuardPolicy::kThrow}}, train);
  dnn::Param* first = stage.params().front();
  stage.trainer().set_epoch_hook([first](std::int64_t epoch) {
    if (epoch == 2) first->value[0] = kNan;
  });
  try {
    stage.trainer().fit(train);
    ADD_FAILURE() << "fit() did not abort";
  } catch (const std::runtime_error& e) {
    // Each stage names itself in the abort message.
    const std::string who = GetParam() == Stage::kDnn ? "DnnTrainer: " : "SglTrainer: ";
    EXPECT_EQ(std::string(e.what()).rfind(who, 0), 0U) << e.what();
  }
}

TEST_P(GuardedTrainingTest, NanBurstIsRolledBackAndRunConverges) {
  const data::LabeledImages train = easy_data(96, 1);
  const data::LabeledImages test = easy_data(32, 2);
  const StageSettings settings{
      .guard = {.policy = GuardPolicy::kRollback, .retry_budget = 3}};
  TinyStage stage(GetParam(), settings, train);
  dnn::Param* first = stage.params().front();
  // Poison a weight exactly once, at the top of epoch 2. The guard must
  // detect the poisoned epoch, restore the post-epoch-1 snapshot, and retry;
  // the retry's hook invocation must not re-poison.
  auto poisoned = std::make_shared<bool>(false);
  stage.trainer().set_epoch_hook([first, poisoned](std::int64_t epoch) {
    if (epoch == 2 && !*poisoned) {
      *poisoned = true;
      first->value[0] = kNan;
    }
  });
  std::vector<dnn::EpochStats> history;
  ASSERT_NO_THROW(history = stage.trainer().fit(train));
  ASSERT_TRUE(*poisoned) << "hook never fired";
  EXPECT_EQ(static_cast<std::int64_t>(history.size()), settings.epochs);
  EXPECT_TRUE(all_params_finite(stage.params()));
  for (const dnn::EpochStats& stats : history) {
    EXPECT_TRUE(std::isfinite(stats.train_loss));
  }
  // The easy task is learnable by a linear probe: training still converged.
  EXPECT_GT(stage.trainer().evaluate(test), 0.5);
}

TEST_P(GuardedTrainingTest, OffPolicyLetsNanPropagate) {
  // Contrast case: without the guard the poisoned weight stays in the model
  // and contaminates it — this is the failure mode the guard exists to stop.
  const data::LabeledImages train = easy_data(96, 1);
  TinyStage stage(GetParam(), {}, train);  // guard kOff
  dnn::Param* first = stage.params().front();
  stage.trainer().set_epoch_hook([first](std::int64_t epoch) {
    if (epoch == 2) first->value[0] = kNan;
  });
  ASSERT_NO_THROW(stage.trainer().fit(train));
  EXPECT_FALSE(all_params_finite(stage.params()));
}

INSTANTIATE_TEST_SUITE_P(BothStages, GuardedTrainingTest,
                         testing::Values(Stage::kDnn, Stage::kSgl), stage_name);

}  // namespace
}  // namespace ullsnn::robust
