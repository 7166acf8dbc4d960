#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <optional>
#include <string>

namespace f2db {
namespace {

using failpoint::Fault;
using failpoint::Outcome;
using failpoint::Policy;

F2DB_DEFINE_FAILPOINT(kTestSite, "test.failpoint_site");

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisableAll(); }
  void TearDown() override { failpoint::DisableAll(); }
};

TEST_F(FailpointTest, OffByDefault) {
  EXPECT_FALSE(failpoint::AnyEnabled());
  EXPECT_FALSE(failpoint::Triggered(kTestSite));
  EXPECT_EQ(failpoint::Triggers(kTestSite), 0u);
}

TEST_F(FailpointTest, StaticRegistrationShowsUpInRegisteredSites) {
  const std::vector<std::string> sites = failpoint::RegisteredSites();
  EXPECT_NE(std::find(sites.begin(), sites.end(), "test.failpoint_site"),
            sites.end());
}

TEST_F(FailpointTest, AlwaysTriggersEveryEvaluation) {
  failpoint::Enable(kTestSite, Policy::Always());
  EXPECT_TRUE(failpoint::AnyEnabled());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(failpoint::Triggered(kTestSite));
  EXPECT_EQ(failpoint::Evaluations(kTestSite), 5u);
  EXPECT_EQ(failpoint::Triggers(kTestSite), 5u);

  // Every firing carries the armed outcome: kFail by default, else the
  // errno the policy names.
  const std::optional<Fault> plain = failpoint::Evaluate(kTestSite);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->outcome, Outcome::kFail);
  failpoint::Enable(kTestSite, Policy::Always().Errno(EIO));
  for (int i = 0; i < 5; ++i) {
    const std::optional<Fault> fault = failpoint::Evaluate(kTestSite);
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(fault->outcome, Outcome::kErrno);
    EXPECT_EQ(fault->err, EIO);
  }
  EXPECT_EQ(failpoint::Triggers(kTestSite), 5u);
}

TEST_F(FailpointTest, MaxTriggersDisarmsAfterBudget) {
  failpoint::Enable(kTestSite, Policy::Always(/*max_triggers=*/2));
  EXPECT_TRUE(failpoint::Triggered(kTestSite));
  EXPECT_TRUE(failpoint::Triggered(kTestSite));
  EXPECT_FALSE(failpoint::Triggered(kTestSite));
  EXPECT_FALSE(failpoint::Triggered(kTestSite));
  EXPECT_EQ(failpoint::Triggers(kTestSite), 2u);
  EXPECT_EQ(failpoint::Evaluations(kTestSite), 4u);
}

TEST_F(FailpointTest, EveryNthFiresOnMultiplesOfN) {
  failpoint::Enable(kTestSite, Policy::EveryNth(3));
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(failpoint::Triggered(kTestSite));
  const std::vector<bool> expected{false, false, true, false, false,
                                   true,  false, false, true};
  EXPECT_EQ(fired, expected);

  // The period is independent of the outcome.
  failpoint::Enable(kTestSite, Policy::EveryNth(3).Errno(ENOSPC));
  fired.clear();
  for (int i = 0; i < 9; ++i) {
    fired.push_back(failpoint::Evaluate(kTestSite).has_value());
  }
  EXPECT_EQ(fired, expected);
}

TEST_F(FailpointTest, ProbabilityIsDeterministicPerSeed) {
  auto run = [&](std::uint64_t seed) {
    failpoint::Enable(kTestSite, Policy::WithProbability(0.5, seed));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(failpoint::Triggered(kTestSite));
    }
    return fired;
  };
  EXPECT_EQ(run(7), run(7));  // re-arming resets the stream: identical
  EXPECT_NE(run(7), run(8));  // a different seed gives a different stream
  EXPECT_NE(run(7), std::vector<bool>(64, false));
  EXPECT_NE(run(7), std::vector<bool>(64, true));
}

TEST_F(FailpointTest, ProbabilityZeroNeverFiresOneAlwaysFires) {
  failpoint::Enable(kTestSite, Policy::WithProbability(0.0));
  for (int i = 0; i < 16; ++i) EXPECT_FALSE(failpoint::Triggered(kTestSite));
  failpoint::Enable(kTestSite, Policy::WithProbability(1.0));
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(failpoint::Triggered(kTestSite));
}

TEST_F(FailpointTest, DisableStopsTriggeringAndClearsGuard) {
  failpoint::Enable(kTestSite, Policy::Always());
  EXPECT_TRUE(failpoint::Triggered(kTestSite));
  failpoint::Disable(kTestSite);
  EXPECT_FALSE(failpoint::AnyEnabled());
  EXPECT_FALSE(failpoint::Triggered(kTestSite));
}

TEST_F(FailpointTest, InjectedFailureIsUnavailableAndNamesTheSite) {
  const Status status = failpoint::InjectedFailure(kTestSite);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("test.failpoint_site"), std::string::npos);
}

TEST_F(FailpointTest, EnableFromSpecArmsMultipleSites) {
  ASSERT_TRUE(failpoint::EnableFromSpec(
                  "test.failpoint_site = always:1 ; test.spec_site=nth:2")
                  .ok());
  EXPECT_TRUE(failpoint::Triggered(kTestSite));
  EXPECT_FALSE(failpoint::Triggered(kTestSite));  // max_triggers=1
  EXPECT_FALSE(failpoint::Triggered("test.spec_site"));
  EXPECT_TRUE(failpoint::Triggered("test.spec_site"));
}

TEST_F(FailpointTest, EnableFromSpecParsesProbabilityWithSeed) {
  ASSERT_TRUE(
      failpoint::EnableFromSpec("test.failpoint_site=prob:1.0:9").ok());
  EXPECT_TRUE(failpoint::Triggered(kTestSite));
}

TEST_F(FailpointTest, MalformedSpecRejectedWithoutArmingAnything) {
  EXPECT_FALSE(failpoint::EnableFromSpec("test.failpoint_site=always;oops")
                   .ok());
  EXPECT_FALSE(failpoint::EnableFromSpec("test.failpoint_site=nth:0").ok());
  EXPECT_FALSE(failpoint::EnableFromSpec("=always").ok());
  EXPECT_FALSE(failpoint::EnableFromSpec("test.failpoint_site=prob:1.5").ok());
  EXPECT_FALSE(failpoint::EnableFromSpec("test.failpoint_site").ok());
  EXPECT_FALSE(failpoint::EnableFromSpec("test.failpoint_site=bogus").ok());
  EXPECT_FALSE(failpoint::EnableFromSpec("test.failpoint_site=eio:nth").ok());
  EXPECT_FALSE(failpoint::EnableFromSpec("test.failpoint_site=eio:off").ok());
  EXPECT_FALSE(failpoint::EnableFromSpec("test.failpoint_site=off:1").ok());
  EXPECT_FALSE(
      failpoint::EnableFromSpec("test.failpoint_site=eio;test.spec_site=nope")
          .ok());
  // A negative max would wrap to an unlimited budget.
  EXPECT_FALSE(failpoint::EnableFromSpec("test.failpoint_site=always:-1").ok());
  EXPECT_FALSE(failpoint::EnableFromSpec("test.failpoint_site=nth:2:-3").ok());
  EXPECT_FALSE(
      failpoint::EnableFromSpec("test.failpoint_site=eio:always:-1").ok());
  EXPECT_FALSE(
      failpoint::EnableFromSpec("test.failpoint_site=short:nth:2:-3").ok());
  EXPECT_FALSE(failpoint::AnyEnabled());  // atomic spec: nothing armed
}

TEST_F(FailpointTest, ScopedDisableAllCleansUp) {
  {
    failpoint::ScopedDisableAll guard;
    failpoint::Enable(kTestSite, Policy::Always());
    EXPECT_TRUE(failpoint::AnyEnabled());
  }
  EXPECT_FALSE(failpoint::AnyEnabled());
}

/// RAII env-var override so InitFromEnv tests cannot leak state into other
/// tests in this binary.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST_F(FailpointTest, InitFromEnvAppliesWellFormedSpec) {
  ScopedEnv spec("F2DB_FAILPOINTS", "test.failpoint_site=always");
  EXPECT_EQ(failpoint::InitFromEnv(), "test.failpoint_site=always");
  EXPECT_TRUE(failpoint::AnyEnabled());
  EXPECT_TRUE(failpoint::Triggered(kTestSite));
}

TEST_F(FailpointTest, InitFromEnvIgnoresMalformedSpecWithoutStrict) {
  ScopedEnv spec("F2DB_FAILPOINTS", "test.failpoint_site=bogus_policy");
  ScopedEnv strict("F2DB_FAILPOINTS_STRICT", "0");
  EXPECT_EQ(failpoint::InitFromEnv(), "");
  EXPECT_FALSE(failpoint::AnyEnabled());  // nothing silently armed either
}

TEST_F(FailpointTest, InitFromEnvAbortsOnMalformedSpecUnderStrict) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ::setenv("F2DB_FAILPOINTS", "test.failpoint_site=bogus_policy", 1);
        ::setenv("F2DB_FAILPOINTS_STRICT", "1", 1);
        failpoint::InitFromEnv();
      },
      "F2DB_FAILPOINTS malformed \\(strict mode, aborting\\)");
  EXPECT_DEATH(
      {
        ::setenv("F2DB_IOFAULTS", "test.failpoint_site=eio:bogus", 1);
        ::setenv("F2DB_IOFAULTS_STRICT", "1", 1);
        failpoint::InitFromEnv();
      },
      "F2DB_IOFAULTS malformed \\(strict mode, aborting\\)");
}

TEST_F(FailpointTest, InitFromEnvStrictAcceptsWellFormedSpec) {
  ScopedEnv spec("F2DB_FAILPOINTS", "test.failpoint_site=nth:2");
  ScopedEnv strict("F2DB_FAILPOINTS_STRICT", "1");
  EXPECT_EQ(failpoint::InitFromEnv(), "test.failpoint_site=nth:2");
  EXPECT_TRUE(failpoint::AnyEnabled());
}

TEST_F(FailpointTest, InitFromEnvAcceptsEitherGrammarInEitherVariable) {
  struct Case {
    const char* variable;
    const char* spec;
    Outcome outcome;
    int err;
  };
  const Case cases[] = {
      {"F2DB_FAILPOINTS", "test.failpoint_site=nth:2", Outcome::kFail, 0},
      {"F2DB_FAILPOINTS", "test.failpoint_site=enospc:nth:2", Outcome::kErrno,
       ENOSPC},
      {"F2DB_IOFAULTS", "test.failpoint_site=nth:2", Outcome::kFail, 0},
      {"F2DB_IOFAULTS", "test.failpoint_site=short:nth:2",
       Outcome::kShortWrite, EIO},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.variable) + "=" + c.spec);
    failpoint::DisableAll();
    ScopedEnv spec(c.variable, c.spec);
    EXPECT_EQ(failpoint::InitFromEnv(), c.spec);
    EXPECT_FALSE(failpoint::Evaluate(kTestSite).has_value());
    const std::optional<Fault> fault = failpoint::Evaluate(kTestSite);
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(fault->outcome, c.outcome);
    EXPECT_EQ(fault->err, c.err);
  }
}

TEST_F(FailpointTest, InitFromEnvAppliesBothVariables) {
  ScopedEnv failpoints("F2DB_FAILPOINTS", "test.failpoint_site=always");
  ScopedEnv iofaults("F2DB_IOFAULTS", "test.spec_site=eio");
  EXPECT_EQ(failpoint::InitFromEnv(),
            "test.failpoint_site=always;test.spec_site=eio");
  EXPECT_TRUE(failpoint::Triggered(kTestSite));
  const std::optional<Fault> fault = failpoint::Evaluate("test.spec_site");
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->err, EIO);
}

}  // namespace
}  // namespace f2db
