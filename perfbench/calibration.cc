#include "calibration.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

double CalibrationOnce() {
  const double t0 = NowSeconds();
  std::uint64_t x = 88172645463325252ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::map<std::uint64_t, double> map;
  for (int i = 0; i < 60'000; ++i) map[next() % 1'000'003] += 1.0;
  double found = 0.0;
  for (int i = 0; i < 60'000; ++i) {
    const auto it = map.find(next() % 1'000'003);
    if (it != map.end()) found += it->second;
  }
  std::vector<std::vector<double>> rows(400, std::vector<double>(500, 1.0));
  for (int sweep = 0; sweep < 20; ++sweep) {
    for (std::vector<double>& row : rows) {
      for (std::size_t j = 1; j < row.size(); ++j) row[j] += row[j - 1] * 1e-9;
    }
  }
  const double elapsed = NowSeconds() - t0;
  // Using the results keeps the work from being optimized away.
  if (!(found > 0.0 && rows[399][499] > 0.0)) {
    throw std::logic_error("calibration workload gave no result");
  }
  return elapsed;
}

std::string SelfPath() {
  std::vector<char> path(4096);
  const ssize_t n = readlink("/proc/self/exe", path.data(), path.size() - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(path.data(), static_cast<std::size_t>(n));
}

}  // namespace

double CalibrationSeconds() {
  std::vector<double> runs = {CalibrationOnce(), CalibrationOnce(),
                              CalibrationOnce()};
  std::sort(runs.begin(), runs.end());
  return runs[1];
}

double SpawnSelf(const std::vector<std::string>& args) {
  static const std::string self = SelfPath();
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> owned = {"perfbench"};
  owned.insert(owned.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, self.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (spawned == 0) {
    char buf[256];
    ssize_t got = 0;
    while ((got = read(fds[0], buf, sizeof(buf))) > 0) {
      out.append(buf, static_cast<std::size_t>(got));
    }
  }
  close(fds[0]);
  if (spawned != 0) throw std::runtime_error("cannot spawn " + self);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child perfbench " + owned[1] + " failed");
  }
  return std::stod(out);
}

}  // namespace perfbench
