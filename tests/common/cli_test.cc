#include "common/cli.h"

#include <gtest/gtest.h>

namespace mwp {
namespace {

CommandLine Parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return CommandLine(static_cast<int>(argv.size()), argv.data());
}

TEST(CommandLineTest, EqualsSyntax) {
  auto cli = Parse({"--jobs=800", "--interarrival=260.5"});
  EXPECT_EQ(cli.GetInt("jobs", 0), 800);
  EXPECT_DOUBLE_EQ(cli.GetDouble("interarrival", 0.0), 260.5);
}

TEST(CommandLineTest, SpaceSyntax) {
  auto cli = Parse({"--jobs", "42"});
  EXPECT_EQ(cli.GetInt("jobs", 0), 42);
}

TEST(CommandLineTest, BooleanFlags) {
  auto cli = Parse({"--verbose", "--quiet=false"});
  EXPECT_TRUE(cli.GetBool("verbose", false));
  EXPECT_FALSE(cli.GetBool("quiet", true));
  EXPECT_TRUE(cli.GetBool("absent", true));
}

TEST(CommandLineTest, Defaults) {
  auto cli = Parse({});
  EXPECT_EQ(cli.GetString("name", "fallback"), "fallback");
  EXPECT_EQ(cli.GetInt("n", -1), -1);
  EXPECT_FALSE(cli.Has("anything"));
}

TEST(CommandLineTest, Positional) {
  auto cli = Parse({"first", "--flag=1", "second"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "first");
  EXPECT_EQ(cli.positional()[1], "second");
}

TEST(CommandLineTest, MalformedNumberThrows) {
  auto cli = Parse({"--n=abc"});
  EXPECT_THROW(cli.GetInt("n", 0), std::invalid_argument);
  EXPECT_THROW(cli.GetDouble("n", 0.0), std::invalid_argument);
}

TEST(CommandLineTest, TrailingCharactersRejected) {
  auto cli = Parse({"--cycle=12abc", "--jobs=7x", "--rate=1.5.2",
                    "--n=12.5"});
  EXPECT_THROW(cli.GetDouble("cycle", 0.0), FlagError);
  EXPECT_THROW(cli.GetInt("jobs", 0), FlagError);
  EXPECT_THROW(cli.GetDouble("rate", 0.0), FlagError);
  EXPECT_THROW(cli.GetInt("n", 0), FlagError);  // not an integer
}

TEST(CommandLineTest, NonFiniteNumbersRejected) {
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity", "1e999"}) {
    SCOPED_TRACE(bad);
    const std::string flag = std::string("--x=") + bad;
    EXPECT_THROW(Parse({flag.c_str()}).GetDouble("x", 0.0), FlagError);
  }
}

TEST(CommandLineTest, EmptyAndOutOfRangeValuesRejected) {
  EXPECT_THROW(Parse({"--x="}).GetDouble("x", 0.0), FlagError);
  EXPECT_THROW(Parse({"--x="}).GetInt("x", 0), FlagError);
  EXPECT_THROW(Parse({"--x=99999999999999999999"}).GetInt("x", 0), FlagError);
}

TEST(CommandLineTest, WellFormedNumbersStillParse) {
  auto cli = Parse({"--a=-3", "--b=1e3", "--c=-0.25", "--d=+7"});
  EXPECT_EQ(cli.GetInt("a", 0), -3);
  EXPECT_DOUBLE_EQ(cli.GetDouble("b", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(cli.GetDouble("c", 0.0), -0.25);
  EXPECT_EQ(cli.GetInt("d", 0), 7);
  EXPECT_DOUBLE_EQ(ParseFlagDouble("t", "1e-9"), 1e-9);
  EXPECT_EQ(ParseFlagInt("t", "16"), 16);
  EXPECT_THROW(ParseFlagInt("t", "16 "), FlagError);
}

TEST(CommandLineTest, BareDoubleDashIsAFlagError) {
  EXPECT_THROW(Parse({"--"}), FlagError);
}

int EchoCycle(const CommandLine& cli) {
  return static_cast<int>(cli.GetDouble("cycle", 1.0));
}

TEST(CommandLineTest, RunMainTurnsFlagErrorsIntoExitTwo) {
  const char* good[] = {"prog", "--cycle", "12"};
  EXPECT_EQ(RunMain(3, good, EchoCycle), 12);
  const char* bad[] = {"prog", "--cycle", "abc"};
  EXPECT_EQ(RunMain(3, bad, EchoCycle), 2);
  const char* bare[] = {"prog", "--"};
  EXPECT_EQ(RunMain(2, bare, EchoCycle), 2);
}

TEST(CommandLineTest, RunMainLetsOtherErrorsPropagate) {
  const char* argv[] = {"prog"};
  EXPECT_THROW(RunMain(1, argv,
                       [](const CommandLine&) -> int {
                         throw std::logic_error("internal");
                       }),
               std::logic_error);
}

TEST(CommandLineTest, MalformedBoolThrows) {
  auto cli = Parse({"--b=maybe"});
  EXPECT_THROW(cli.GetBool("b", false), std::invalid_argument);
}

TEST(CommandLineTest, GetSeedParsesAndValidates) {
  EXPECT_EQ(Parse({"--seed=42"}).GetSeed(7), 42u);
  EXPECT_EQ(Parse({}).GetSeed(7), 7u);
  EXPECT_THROW(Parse({"--seed=-3"}).GetSeed(7), std::invalid_argument);
  EXPECT_THROW(Parse({"--seed=xyz"}).GetSeed(7), std::invalid_argument);
  EXPECT_THROW(Parse({"--seed=-1"}).GetSeed(7), FlagError);
  EXPECT_THROW(Parse({"--seed=4x"}).GetSeed(7), FlagError);
}

TEST(CommandLineTest, RangeCheckedGetters) {
  EXPECT_EQ(Parse({"--n=3"}).GetIntAtLeast("n", 0, 1), 3);
  EXPECT_EQ(Parse({}).GetIntAtLeast("n", 5, 1), 5);
  EXPECT_THROW(Parse({"--n=0"}).GetIntAtLeast("n", 5, 1), FlagError);
  EXPECT_THROW(Parse({"--n=2147483648"}).GetIntAtLeast("n", 5, 0), FlagError);

  EXPECT_DOUBLE_EQ(Parse({"--t=0.5"}).GetPositive("t", 1.0), 0.5);
  EXPECT_THROW(Parse({"--t=0"}).GetPositive("t", 1.0), FlagError);
  EXPECT_THROW(Parse({"--t=-2"}).GetPositive("t", 1.0), FlagError);

  EXPECT_EQ(Parse({"--l=400,50.5"}).GetPositiveList("l", "1"),
            (std::vector<double>{400.0, 50.5}));
  EXPECT_EQ(Parse({}).GetPositiveList("l", "7"), std::vector<double>{7.0});
  for (const char* bad : {"--l=", "--l=1,,2", "--l=1,abc", "--l=1,-2",
                          "--l=1,", "--l=0"}) {
    EXPECT_THROW(Parse({bad}).GetPositiveList("l", "1"), FlagError) << bad;
  }
}

TEST(CommandLineTest, FlagNamesEnumerated) {
  auto cli = Parse({"--a=1", "--b=2"});
  const auto names = cli.FlagNames();
  EXPECT_EQ(names.size(), 2u);
}

}  // namespace
}  // namespace mwp
