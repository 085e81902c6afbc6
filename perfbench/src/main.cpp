/// \file main.cpp
/// The benchmark binary: runs one workload and writes its raw results
/// (op times, set-up times, counts, per-layer metrics) as JSON for run.py,
/// which derives the reported metrics. Run it through run.py:
///
///   python3 perfbench/run.py --workload lu_steady --seed 1 --seconds 25 --trace 0
///
/// Direct use:
///   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
///             --out=RESULT.json [--trace-out=TRACE.json] [--store=DIR]
///             [--prefix=P] [--smoke=1]
///
/// Exit status: 0 when every op verified, 1 when some op failed its
/// correctness gate (results are still written), 2 on a set-up or usage
/// error (no results).

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

const char* kernel_isa() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__) && defined(__FMA__)
  return "avx2";
#else
  return "generic";
#endif
}

/// The larger of this process's own peak RSS and its largest reaped child's
/// (the forked ranks), in MB. The own peak is VmHWM, which starts afresh at
/// exec; ru_maxrss would carry over the launching interpreter's.
double peak_rss_mb() {
  long self_kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::stol(line.substr(6));
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self_kb, children.ru_maxrss)) / 1024.0;
}

void write_result(std::ostream& os, const perfbench::Options& o,
                  const perfbench::Result& r, std::size_t trace_events) {
  abftc::common::JsonWriter json(os);
  json.begin_object();
  json.kv("workload", o.workload);
  json.kv("seed", o.seed);
  json.kv("trace", o.trace);
  json.kv("isa", kernel_isa());
  json.kv("compiler", __VERSION__);
  json.kv("attempted", r.attempted);
  json.kv("failed", r.failed);
  json.key("errors");
  json.begin_array();
  for (const std::string& e : r.errors) json.value(e);
  json.end_array();
  json.key("op_s");
  json.begin_array();
  for (const double s : r.op_s) json.value(s);
  json.end_array();
  json.key("setup_s");
  json.begin_array();
  for (const double s : r.setup_s) json.value(s);
  json.end_array();
  json.kv("run_s", r.run_s);
  json.kv("peak_rss_mb", peak_rss_mb());
  json.key("layers");
  json.begin_object();
  for (const auto& [name, value] : r.layers) json.kv(name, value);
  json.end_object();
  json.key("notes");
  json.begin_object();
  for (const auto& [name, value] : r.notes) json.kv(name, value);
  json.end_object();
  json.kv("trace_events", trace_events);
  json.kv("probe_sink", perfbench::probe_sink());
  json.end_object();
  os << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const abftc::common::ArgParser args(argc, argv);
  perfbench::Options o;
  o.workload = args.get_string("workload", "");
  o.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  o.seconds = args.get_double("seconds", 10.0);
  o.trace = args.get_bool("trace", false);
  o.store = args.get_string("store", o.store);
  o.prefix = args.get_string("prefix", o.prefix);
  o.smoke = args.get_bool("smoke", false);
  const std::string out_path = args.get_string("out", "");
  const std::string trace_path = args.get_string("trace-out", "");
  if (!args.unknown().empty() || o.workload.empty() || out_path.empty()) {
    args.warn_unknown(std::cerr);
    std::cerr << "usage: perfbench --workload=NAME --out=PATH [--seed=N] "
                 "[--seconds=S] [--trace=0|1] [--trace-out=PATH]\n";
    return 2;
  }

  const auto tracer =
      o.trace ? std::make_unique<perfbench::Tracer>() : nullptr;
  perfbench::Result result;
  try {
    result = perfbench::run_workload(o, tracer.get());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << ": " << e.what() << '\n';
    return 2;
  }

  if (tracer && !trace_path.empty() && !tracer->write_chrome_json(trace_path)) {
    std::cerr << "perfbench: cannot write " << trace_path << '\n';
    return 2;
  }
  std::ofstream os(out_path, std::ios::trunc);
  write_result(os, o, result, tracer ? tracer->size() : 0);
  if (!os) {
    std::cerr << "perfbench: cannot write " << out_path << '\n';
    return 2;
  }
  return result.failed == 0 && result.errors.empty() ? 0 : 1;
}
