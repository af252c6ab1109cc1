// Tiny command-line flag parser for examples and bench binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name`. A
// malformed value is an error (FlagError), never a silent fallback, so typos
// in experiment parameters fail loudly; RunMain turns that error into a
// message and exit status 2 instead of an abort.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace mwp {

/// A bad command-line flag: malformed syntax, a value that does not parse,
/// or a value outside the range a binary accepts.
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Strict number parsing for flag values: the whole text must be a finite
/// number ("12abc", "nan" and "inf" are rejected). Throws FlagError naming
/// `flag`.
double ParseFlagDouble(const std::string& flag, const std::string& text);
std::int64_t ParseFlagInt(const std::string& flag, const std::string& text);

class CommandLine {
 public:
  /// Parses argv. Throws FlagError on malformed input.
  CommandLine(int argc, const char* const* argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name, std::string def) const;
  /// Throw FlagError unless the whole value is a finite number (an integer
  /// for GetInt).
  double GetDouble(const std::string& name, double def) const;
  std::int64_t GetInt(const std::string& name, std::int64_t def) const;
  bool GetBool(const std::string& name, bool def) const;

  /// GetInt for a count or size that must lie in [min, INT_MAX], so a value
  /// never truncates through a cast. Throws FlagError outside that range.
  int GetIntAtLeast(const std::string& name, int def, int min) const;
  /// GetDouble for a period, rate or duration; throws FlagError unless the
  /// value is positive.
  double GetPositive(const std::string& name, double def) const;
  /// A comma-separated list of positive numbers ("400,350,300"); throws
  /// FlagError on an empty, malformed or non-positive item.
  std::vector<double> GetPositiveList(const std::string& name,
                                      const std::string& def) const;

  /// The conventional `--seed` flag (RNG/fault-plan reproducibility). A
  /// non-negative integer; throws on negative or malformed values so a bad
  /// seed never silently falls back to the default.
  std::uint64_t GetSeed(std::uint64_t def) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Names seen on the command line; callers may validate against a schema.
  std::vector<std::string> FlagNames() const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Runs a binary's body with its parsed command line. A FlagError from
/// parsing or from `body` is printed to stderr and exits 2 (a usage error);
/// anything else propagates unchanged.
int RunMain(int argc, const char* const* argv,
            int (*body)(const CommandLine& cli));

}  // namespace mwp
