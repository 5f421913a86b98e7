// dvfbench: runs one workload for a fixed time and prints one JSON result
// line. Usually started through dvfbench/run.py, which builds it first:
//
//   dvfbench --workload serve-mix|replay --seed N --seconds S
//            --trace 0|1 --dvfc PATH --repo DIR --workdir DIR
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace dvfbench;
  Options options;
  options.start_s = now_s();
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    args[argv[i]] = argv[i + 1];
  }
  const auto need = [&args](const char* name) -> std::string {
    const auto it = args.find(name);
    if (it == args.end()) {
      std::cerr << "dvfbench: missing " << name << "\n";
      std::exit(2);
    }
    return it->second;
  };
  try {
    options.workload = need("--workload");
    options.seed = std::stoull(need("--seed"));
    options.seconds = std::stod(need("--seconds"));
    options.trace = need("--trace") == "1";
    options.dvfc = std::filesystem::absolute(need("--dvfc")).string();
    options.repo = need("--repo");
    options.workdir = need("--workdir");
    std::filesystem::create_directories(options.workdir);

    if (options.workload != "serve-mix" && options.workload != "replay") {
      std::cerr << "dvfbench: unknown workload '" << options.workload
                << "' (expected serve-mix or replay)\n";
      return 2;
    }
    RunResult result;
    if (options.trace) {
      run_traced(options, result);
    } else {
      run_workload(options, result);
    }
    for (const std::string& why : result.problems) {
      std::cerr << "dvfbench: check failed: " << why << "\n";
    }
    std::cout << result_line(result) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "dvfbench: " << e.what() << "\n";
    return 1;
  }
}
