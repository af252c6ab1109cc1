#include "common/cli.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>

namespace mwp {

double ParseFlagDouble(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    // Not a number, or out of range: `used` stays 0.
  }
  if (used == 0 || used != text.size() || !std::isfinite(value)) {
    throw FlagError("flag --" + flag + " expects a finite number, got '" +
                    text + "'");
  }
  return value;
}

std::int64_t ParseFlagInt(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  long long value = 0;
  try {
    value = std::stoll(text, &used);
  } catch (const std::exception&) {
    // Not a number, or out of range: `used` stays 0.
  }
  if (used == 0 || used != text.size()) {
    throw FlagError("flag --" + flag + " expects an integer, got '" + text +
                    "'");
  }
  return value;
}

CommandLine::CommandLine(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) throw FlagError("bare '--' is not a flag");
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";  // boolean flag
    }
  }
}

bool CommandLine::Has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CommandLine::GetString(const std::string& name,
                                   std::string def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

double CommandLine::GetDouble(const std::string& name, double def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : ParseFlagDouble(name, it->second);
}

std::int64_t CommandLine::GetInt(const std::string& name,
                                 std::int64_t def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : ParseFlagInt(name, it->second);
}

bool CommandLine::GetBool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw FlagError("flag --" + name + " expects a boolean, got '" + v + "'");
}

int CommandLine::GetIntAtLeast(const std::string& name, int def,
                               int min) const {
  const std::int64_t value = GetInt(name, def);
  if (value < min || value > std::numeric_limits<int>::max()) {
    throw FlagError("flag --" + name + " must be an int >= " +
                    std::to_string(min) + ", got " + std::to_string(value));
  }
  return static_cast<int>(value);
}

double CommandLine::GetPositive(const std::string& name, double def) const {
  const double value = GetDouble(name, def);
  if (value <= 0.0) {
    throw FlagError("flag --" + name + " must be positive, got " +
                    GetString(name, ""));
  }
  return value;
}

std::vector<double> CommandLine::GetPositiveList(const std::string& name,
                                                 const std::string& def) const {
  const std::string list = GetString(name, def);
  std::vector<double> out;
  for (std::size_t begin = 0;;) {
    const std::size_t comma = std::min(list.find(',', begin), list.size());
    out.push_back(ParseFlagDouble(name, list.substr(begin, comma - begin)));
    if (comma == list.size()) break;
    begin = comma + 1;
  }
  if (std::ranges::any_of(out, [](double v) { return v <= 0.0; })) {
    throw FlagError("flag --" + name + " items must be positive, got '" +
                    list + "'");
  }
  return out;
}

std::uint64_t CommandLine::GetSeed(std::uint64_t def) const {
  const std::int64_t value =
      GetInt("seed", static_cast<std::int64_t>(def));
  if (value < 0) {
    throw FlagError("flag --seed must be non-negative, got " +
                    std::to_string(value));
  }
  return static_cast<std::uint64_t>(value);
}

std::vector<std::string> CommandLine::FlagNames() const {
  std::vector<std::string> names;
  names.reserve(flags_.size());
  for (const auto& [k, _] : flags_) names.push_back(k);
  return names;
}

int RunMain(int argc, const char* const* argv,
            int (*body)(const CommandLine& cli)) {
  try {
    const CommandLine cli(argc, argv);
    return body(cli);
  } catch (const FlagError& e) {
    std::cerr << (argc > 0 ? argv[0] : "") << ": " << e.what() << '\n';
    return 2;
  }
}

}  // namespace mwp
