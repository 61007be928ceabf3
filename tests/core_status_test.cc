#include "core/status.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace vfl::core {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(StatusTest, OkFactory) { EXPECT_TRUE(Status::Ok().ok()); }

TEST(StatusTest, InvalidArgumentCarriesMessage) {
  const Status status = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad shape");
  EXPECT_EQ(status.ToString(), "invalid_argument: bad shape");
}

TEST(StatusTest, AllErrorFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "ok");
  EXPECT_EQ(StatusCodeName(StatusCode::kIoError), "io_error");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(7);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 7);
  EXPECT_EQ(*result, 7);
  EXPECT_TRUE(result.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::NotFound("missing"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> result(std::string("payload"));
  const std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

TEST(StatusOrTest, ArrowOperator) {
  StatusOr<std::string> result(std::string("abc"));
  EXPECT_EQ(result->size(), 3u);
}

TEST(StatusOrTest, ValueOnErrorDies) {
  StatusOr<int> result(Status::Internal("boom"));
  EXPECT_DEATH((void)result.value(), "boom");
}

TEST(StatusOrTest, ConstructFromOkStatusDies) {
  EXPECT_DEATH(StatusOr<int>{Status::Ok()}, "OK status");
}

TEST(StatusOrTest, HasValueMirrorsOk) {
  StatusOr<int> ok(1);
  StatusOr<int> err(Status::Internal("x"));
  EXPECT_TRUE(ok.has_value());
  EXPECT_FALSE(err.has_value());
}

TEST(StatusOrTest, ValueOrFallsBackOnError) {
  StatusOr<int> ok(5);
  StatusOr<int> err(Status::NotFound("x"));
  EXPECT_EQ(ok.value_or(9), 5);
  EXPECT_EQ(err.value_or(9), 9);
}

TEST(StatusOrTest, MoveOnlyPayload) {
  StatusOr<std::unique_ptr<int>> result(std::make_unique<int>(4));
  ASSERT_TRUE(result.ok());
  const std::unique_ptr<int> moved = *std::move(result);
  EXPECT_EQ(*moved, 4);
}

TEST(StatusOrTest, ErrorStatusSurvivesCopy) {
  const StatusOr<int> err(Status::AlreadyExists("dup"));
  const StatusOr<int> copy = err;
  EXPECT_EQ(copy.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(copy.status().message(), "dup");
}

TEST(StatusOrTest, AlreadyExistsCodeName) {
  EXPECT_EQ(StatusCodeName(StatusCode::kAlreadyExists), "already_exists");
}

namespace helpers {

Status FailWhenNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::Ok();
}

Status UseReturnIfError(int x) {
  VFL_RETURN_IF_ERROR(FailWhenNegative(x));
  return Status::Ok();
}

StatusOr<int> MakeValue(int x) {
  if (x < 0) return Status::InvalidArgument("negative input");
  return x * 2;
}

Status UseAssignOrReturn(int x, int* out) {
  VFL_ASSIGN_OR_RETURN(const int doubled, MakeValue(x));
  *out = doubled;
  return Status::Ok();
}

}  // namespace helpers

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(helpers::UseReturnIfError(1).ok());
  EXPECT_EQ(helpers::UseReturnIfError(-1).code(),
            StatusCode::kInvalidArgument);
}

TEST(StatusMacrosTest, AssignOrReturnUnwraps) {
  int out = 0;
  ASSERT_TRUE(helpers::UseAssignOrReturn(21, &out).ok());
  EXPECT_EQ(out, 42);
}

TEST(StatusMacrosTest, AssignOrReturnPropagatesError) {
  int out = 0;
  EXPECT_EQ(helpers::UseAssignOrReturn(-3, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(out, 0);
}

TEST(CheckTest, PassingCheckDoesNothing) {
  CHECK(true) << "never shown";
  CHECK_EQ(1, 1);
  CHECK_LT(1, 2);
  CHECK_LE(2, 2);
  CHECK_GT(3, 2);
  CHECK_GE(3, 3);
  CHECK_NE(1, 2);
}

TEST(CheckTest, FailingCheckAborts) {
  EXPECT_DEATH(CHECK(false) << "ctx 42", "ctx 42");
}

TEST(CheckTest, FailingCheckOpPrintsOperands) {
  const int a = 3, b = 5;
  EXPECT_DEATH(CHECK_EQ(a, b), "3 vs 5");
}

}  // namespace
}  // namespace vfl::core
