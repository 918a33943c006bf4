// The end-to-end benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// Prints the machine fingerprint, human-readable metric lines, and as
// its last line the JSON result. Exit status: 0 on a correct run, 1 when
// an identity gate or an operation failed (the result line still says
// which), 2 on bad usage.
#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "lib/harness.h"
#include "lib/workloads.h"

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload {";
  const char* sep = "";
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::cerr << sep << name;
    sep = "|";
  }
  std::cerr << "} --seed N --seconds S --trace 0|1 [--work-dir DIR]\n";
  std::exit(2);
}

template <class T>
T Parse(std::string_view flag, std::string_view text) {
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    Usage("bad value for " + std::string(flag) + ": " + std::string(text));
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = Parse<std::uint64_t>(flag, value);
    } else if (flag == "--seconds") {
      config.seconds = Parse<double>(flag, value);
    } else if (flag == "--trace") {
      config.trace = Parse<int>(flag, value) != 0;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      Usage("unknown flag " + std::string(flag));
    }
  }
  if (!have_workload) Usage("--workload is required");
  const std::vector<std::string>& names = perfbench::WorkloadNames();
  if (std::find(names.begin(), names.end(), config.workload) == names.end()) {
    Usage("unknown workload " + config.workload);
  }
  if (!(config.seconds > 0.0)) Usage("--seconds must be positive");

  std::cout << "fingerprint: " << perfbench::Fingerprint() << "\n"
            << "workload: " << config.workload << " seed " << config.seed
            << " seconds " << config.seconds << " trace "
            << (config.trace ? 1 : 0) << "\n";
  perfbench::Outcome outcome;
  try {
    outcome = perfbench::RunWorkload(config, std::cout);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  std::cout << perfbench::ResultLine(outcome.correct, outcome.attempted,
                                     outcome.failed, outcome.metrics)
            << std::endl;
  return outcome.correct ? 0 : 1;
}
