// dabs_perfbench: one run of one benchmark workload.
//
//   dabs_perfbench --workload <k2000-sync|g22-bulk|http-jobs> --seed <n>
//                  --seconds <s> --trace <0|1> [--out-dir <dir>]
//                  [--ref-dir <dir>] [--inject bad-energy|bad-verify]
//   dabs_perfbench --make-ref <k2000-sync|g22-bulk> --seconds <s>
//
// Human-readable tables go to stdout first; the last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"} carrying the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::cerr << "usage: dabs_perfbench --workload <k2000-sync|g22-bulk|"
               "http-jobs> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>] [--ref-dir <dir>] "
               "[--inject bad-energy|bad-verify]\n"
               "       dabs_perfbench --make-ref <k2000-sync|g22-bulk> "
               "--seconds <s>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool make_ref = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string v = argv[++i];
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--make-ref") {
        opt.workload = v;
        make_ref = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = v == "1";
      } else if (a == "--out-dir") {
        opt.out_dir = v;
      } else if (a == "--ref-dir") {
        opt.ref_dir = v;
      } else if (a == "--inject" && v == "bad-energy") {
        opt.inject_bad_energy = true;
      } else if (a == "--inject" && v == "bad-verify") {
        opt.inject_bad_verify = true;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (opt.seconds <= 0.0) return usage();

  try {
    if (make_ref) return perfbench::make_reference(opt);
    perfbench::print_provenance();
    perfbench::Sheet sheet;
    if (opt.workload == "k2000-sync") {
      perfbench::run_k2000_sync(opt, sheet);
    } else if (opt.workload == "g22-bulk") {
      perfbench::run_g22_bulk(opt, sheet);
    } else if (opt.workload == "http-jobs") {
      perfbench::run_http_jobs(opt, sheet);
    } else {
      return usage();
    }
    sheet.require_complete(opt.trace);
    std::cout << (opt.trace ? "per-layer" : "end-to-end") << " metrics ("
              << opt.workload << ", seed " << opt.seed << "):\n"
              << sheet.table();
    const std::string line = sheet.json_line();
    std::filesystem::create_directories(opt.out_dir);
    std::ofstream(opt.out_dir + "/" + opt.workload + "-result.json")
        << "{\"provenance\": " << perfbench::provenance_json()
        << ", \"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
        << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"result\": " << line
        << "}\n";
    std::cout << line << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "dabs_perfbench: " << e.what() << "\n";
    return 1;
  }
}
