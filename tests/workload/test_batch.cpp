#include "workload/batch.h"

#include <gtest/gtest.h>

namespace tmc::workload {
namespace {

TEST(Batch, DefaultsMatchPaperSizes) {
  const auto mm = default_batch(App::kMatMul, sched::SoftwareArch::kFixed);
  EXPECT_EQ(mm.small_size, 60u);
  EXPECT_EQ(mm.large_size, 120u);
  EXPECT_EQ(mm.small_count, 12);
  EXPECT_EQ(mm.large_count, 4);
  const auto st = default_batch(App::kSort, sched::SoftwareArch::kAdaptive);
  EXPECT_EQ(st.small_size, 6000u);
  EXPECT_EQ(st.large_size, 14000u);
  EXPECT_EQ(st.arch, sched::SoftwareArch::kAdaptive);
}

TEST(Batch, TotalIsSixteen) {
  const auto params = default_batch(App::kMatMul, sched::SoftwareArch::kFixed);
  EXPECT_EQ(params.total(), 16);
  const auto specs = make_batch(params, BatchOrder::kInterleaved);
  EXPECT_EQ(specs.size(), 16u);
}

int count_large(const std::vector<sched::JobSpec>& specs) {
  int n = 0;
  for (const auto& spec : specs) n += spec.large ? 1 : 0;
  return n;
}

TEST(Batch, EveryOrderHasTwelveSmallFourLarge) {
  const auto params = default_batch(App::kSort, sched::SoftwareArch::kFixed);
  for (const auto order :
       {BatchOrder::kInterleaved, BatchOrder::kSmallestFirst,
        BatchOrder::kLargestFirst}) {
    const auto specs = make_batch(params, order);
    EXPECT_EQ(count_large(specs), 4) << to_string(order);
    EXPECT_EQ(specs.size(), 16u);
  }
}

TEST(Batch, SmallestFirstPutsLargeAtEnd) {
  const auto specs =
      make_batch(default_batch(App::kMatMul, sched::SoftwareArch::kFixed),
                 BatchOrder::kSmallestFirst);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_FALSE(specs[i].large);
  for (std::size_t i = 12; i < 16; ++i) EXPECT_TRUE(specs[i].large);
}

TEST(Batch, LargestFirstPutsLargeAtFront) {
  const auto specs =
      make_batch(default_batch(App::kMatMul, sched::SoftwareArch::kFixed),
                 BatchOrder::kLargestFirst);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(specs[i].large);
  for (std::size_t i = 4; i < 16; ++i) EXPECT_FALSE(specs[i].large);
}

TEST(Batch, InterleavedSpreadsLargeEvenly) {
  const auto specs =
      make_batch(default_batch(App::kMatMul, sched::SoftwareArch::kFixed),
                 BatchOrder::kInterleaved);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(specs[i].large, i % 4 == 3) << "position " << i;
  }
}

TEST(Batch, SpecsCarryProblemSizes) {
  const auto specs =
      make_batch(default_batch(App::kSort, sched::SoftwareArch::kFixed),
                 BatchOrder::kSmallestFirst);
  EXPECT_EQ(specs.front().problem_size, 6000u);
  EXPECT_EQ(specs.back().problem_size, 14000u);
  EXPECT_LT(specs.front().demand_estimate, specs.back().demand_estimate);
}

TEST(Batch, CustomCountsRespected) {
  auto params = default_batch(App::kMatMul, sched::SoftwareArch::kFixed);
  params.small_count = 3;
  params.large_count = 2;
  const auto specs = make_batch(params, BatchOrder::kInterleaved);
  EXPECT_EQ(specs.size(), 5u);
  EXPECT_EQ(count_large(specs), 2);
}

TEST(Batch, UnsetSizesThrow) {
  BatchParams params;
  params.small_size = 0;
  EXPECT_THROW(make_batch(params, BatchOrder::kInterleaved),
               std::invalid_argument);
}

TEST(Batch, BuildersProduceRunnablePrograms) {
  const auto specs =
      make_batch(default_batch(App::kMatMul, sched::SoftwareArch::kFixed),
                 BatchOrder::kInterleaved);
  // Builders must be callable and consistent with the fixed architecture.
  sched::Job job(1, specs[0]);
  const auto programs = job.spec().builder(job, 8);
  EXPECT_EQ(programs.size(), 16u);
}

/// Spec fields plus every built program's shape: two specs that agree here
/// run identically.
void expect_same_job(const sched::JobSpec& a, const sched::JobSpec& b) {
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.problem_size, b.problem_size);
  EXPECT_EQ(a.large, b.large);
  EXPECT_EQ(a.arch, b.arch);
  EXPECT_EQ(a.demand_estimate, b.demand_estimate);
  sched::Job job_a(1, a);
  sched::Job job_b(1, b);
  const auto programs_a = a.builder(job_a, 8);
  const auto programs_b = b.builder(job_b, 8);
  ASSERT_EQ(programs_a.size(), programs_b.size());
  for (std::size_t i = 0; i < programs_a.size(); ++i) {
    EXPECT_EQ(programs_a[i].size(), programs_b[i].size()) << "process " << i;
    EXPECT_EQ(programs_a[i].total_compute(), programs_b[i].total_compute())
        << "process " << i;
    EXPECT_EQ(programs_a[i].total_send_bytes(),
              programs_b[i].total_send_bytes())
        << "process " << i;
  }
}

// make_batch is make_batch_job in a size-class order, so an open stream
// built from make_batch_job runs the batch's exact jobs -- sort skew
// included.
TEST(Batch, MakeBatchIsMakeBatchJobInOrder) {
  auto skewed = default_batch(App::kSort, sched::SoftwareArch::kFixed);
  skewed.sort_skew = 0.3;
  for (const auto& params :
       {default_batch(App::kMatMul, sched::SoftwareArch::kFixed),
        default_batch(App::kSort, sched::SoftwareArch::kAdaptive), skewed}) {
    for (const auto order :
         {BatchOrder::kInterleaved, BatchOrder::kSmallestFirst,
          BatchOrder::kLargestFirst}) {
      const auto specs = make_batch(params, order);
      for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(std::string(to_string(order)) + " position " +
                     std::to_string(i));
        expect_same_job(specs[i], make_batch_job(params, specs[i].large));
      }
    }
  }
  // The skew reaches the programs: a skewed large job is not the balanced
  // one.
  auto balanced = skewed;
  balanced.sort_skew = 0.0;
  sched::Job job_skewed(1, make_batch_job(skewed, true));
  sched::Job job_balanced(1, make_batch_job(balanced, true));
  const auto programs_skewed = job_skewed.spec().builder(job_skewed, 8);
  const auto programs_balanced = job_balanced.spec().builder(job_balanced, 8);
  ASSERT_EQ(programs_skewed.size(), programs_balanced.size());
  EXPECT_NE(programs_skewed[0].total_compute(),
            programs_balanced[0].total_compute());
}

}  // namespace
}  // namespace tmc::workload
