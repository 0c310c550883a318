// Failure-path coverage for src/common/check.h and src/common/status.h:
// CHECK macros must abort with a readable message, Status/StatusOr must
// propagate errors without aborting on the happy path. Also the wiring
// CHECKs of the prototype's CompletionSink.
#include <string>

#include "gtest/gtest.h"
#include "src/common/check.h"
#include "src/common/status.h"
#include "src/runtime/schedulers.h"

namespace hawk {
namespace {

TEST(FailurePathsDeathTest, CheckAbortsOnFalse) {
  EXPECT_DEATH({ HAWK_CHECK(1 == 2) << "custom context"; }, "CHECK failed");
}

TEST(FailurePathsDeathTest, CheckMessageIncludesExpressionAndContext) {
  EXPECT_DEATH({ HAWK_CHECK(false) << "the-context-" << 42; },
               "CHECK failed.*false.*the-context-42");
}

TEST(FailurePathsDeathTest, CheckEqAbortsAndPrintsOperands) {
  const int a = 3;
  const int b = 7;
  EXPECT_DEATH({ HAWK_CHECK_EQ(a, b); }, "\\(3 vs 7\\)");
}

TEST(FailurePathsDeathTest, CheckComparisonVariantsAbort) {
  EXPECT_DEATH({ HAWK_CHECK_NE(5, 5); }, "CHECK failed");
  EXPECT_DEATH({ HAWK_CHECK_LT(2, 1); }, "CHECK failed");
  EXPECT_DEATH({ HAWK_CHECK_LE(2, 1); }, "CHECK failed");
  EXPECT_DEATH({ HAWK_CHECK_GT(1, 2); }, "CHECK failed");
  EXPECT_DEATH({ HAWK_CHECK_GE(1, 2); }, "CHECK failed");
}

TEST(FailurePathsDeathTest, CheckPassesSilentlyOnTrue) {
  HAWK_CHECK(true) << "never evaluated";
  HAWK_CHECK_EQ(4, 4);
  HAWK_CHECK_LT(1, 2);
  SUCCEED();
}

TEST(FailurePathsTest, StatusOkAndError) {
  const Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(ok.message().empty());

  const Status err = Status::Error("disk on fire");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.message(), "disk on fire");
}

TEST(FailurePathsTest, StatusOrHoldsValue) {
  StatusOr<int> result(41);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 41);
  EXPECT_TRUE(result.status().ok());
  result.value() = 42;
  EXPECT_EQ(result.value(), 42);
}

TEST(FailurePathsTest, StatusOrPropagatesError) {
  const StatusOr<std::string> result(Status::Error("parse failed at line 3"));
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.status().ok());
  EXPECT_EQ(result.status().message(), "parse failed at line 3");
}

TEST(FailurePathsDeathTest, StatusOrValueOnErrorAborts) {
  const StatusOr<int> result(Status::Error("no value here"));
  EXPECT_DEATH({ (void)result.value(); }, "no value here");
}

TEST(FailurePathsDeathTest, StatusOrFromOkStatusAborts) {
  EXPECT_DEATH({ StatusOr<int> bad{Status::Ok()}; },
               "StatusOr constructed from OK status");
}

// Each prototype job has exactly one owning scheduler, which records it
// once and then forgets it: a second record, like a record for a job never
// expected, is a wiring bug and aborts.
TEST(FailurePathsDeathTest, CompletionSinkAbortsOnSecondRecord) {
  runtime::CompletionSink sink;
  sink.ExpectJobs({1, 2});
  sink.Record(1, /*is_long=*/false);
  EXPECT_DEATH({ sink.Record(1, false); }, "completion recorded twice for job 1");
}

TEST(FailurePathsDeathTest, CompletionSinkAbortsOnNeverExpectedJob) {
  runtime::CompletionSink sink;
  sink.ExpectJobs({1, 2});
  EXPECT_DEATH({ sink.Record(9, false); }, "never-expected job 9");
}

}  // namespace
}  // namespace hawk
