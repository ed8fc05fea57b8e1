// exp_common.hpp — shared scaffolding for the per-figure bench binaries.
//
// Every bench accepts:
//   --csv           emit CSV instead of an aligned table
//   --seed=N        reseed the deterministic RNGs
//   --scale=F       scale measurement windows (0.5 = faster, 2 = longer)
// and prints which thesis figure it regenerates plus the expected shape, so
// the output is self-describing when dumped to bench_output.txt. A bench of
// RAM-trace trials exits 1 when a trial fails its conservation check.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace lvrm::bench {

struct BenchArgs {
  bool csv = false;
  std::uint64_t seed = 1;
  double scale = 1.0;

  static BenchArgs parse(int argc, char** argv) {
    const Cli cli(argc, argv);
    BenchArgs args;
    args.csv = cli.get_bool("csv", false);
    args.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    args.scale = cli.get_double("scale", 1.0);
    if (args.scale <= 0.0) args.scale = 1.0;
    return args;
  }

  Nanos scaled(Nanos t) const {
    return static_cast<Nanos>(static_cast<double>(t) * scale);
  }
};

/// The conservation verdicts of a bench's RAM trials (exp/rig.hpp). A
/// non-empty one goes to stderr under its trial's name, and exit_code()
/// turns 1.
struct Conservation {
  bool ok = true;
  void check(const std::string& verdict, const std::string& trial) {
    if (verdict.empty()) return;
    std::cerr << "conservation failed in " << trial << ": " << verdict
              << "\n";
    ok = false;
  }
  int exit_code() const { return ok ? 0 : 1; }
};

inline void print_header(const std::string& experiment,
                         const std::string& figure,
                         const std::string& expectation) {
  std::cout << "=== " << experiment << " (" << figure << ") ===\n"
            << "paper shape: " << expectation << "\n\n";
}

}  // namespace lvrm::bench
