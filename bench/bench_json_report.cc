// Post-processes google-benchmark JSON output into the repo's checked-in
// perf-trajectory file (BENCH_model_perf.json).
//
// Usage: bench_json_report [--build-type=<type>] [--require-release]
//            <raw-google-benchmark.json> <output.json>
//
// The raw file is the `--benchmark_format=json` dump of bench_model_perf;
// this tool extracts the stable subset we track across PRs (per-benchmark
// name, iteration count, real/CPU time normalized to nanoseconds, plus a
// little machine context) and writes it in a fixed key order so diffs of
// the trajectory file stay readable. Run with --benchmark_repetitions, a
// benchmark's iteration rows are folded into one entry (schema v2): the
// median times, the minimum CPU time and the CPU time's coefficient of
// variation over the repetitions. Parsing is a small purpose-built
// scanner for google-benchmark's flat JSON shape — no third-party JSON
// dependency.
//
// Provenance: --build-type records zonestream's own CMAKE_BUILD_TYPE in
// the output context (the raw dump's "library_build_type" describes only
// the google-benchmark library, which can differ). Non-Release build
// types are loudly warned about — and refused outright with
// --require-release — so a debug-built trajectory can't silently become
// the checked-in baseline again. --require-release also rejects a
// non-release google-benchmark library (its timing loops wrap every
// measurement); --allow-debug-library waives that one check for hosts
// whose distro benchmark package was configured without
// CMAKE_BUILD_TYPE=Release and cannot be rebuilt — the library tag still
// lands in the output context either way.
//
// The raw dump's custom context "zonestream_threads" (added by
// bench_model_perf's main) is surfaced as a numeric "num_threads" so a
// trajectory line is attributable to its parallelism.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

// Returns the raw JSON value text following `"key":` inside `object`, or
// nullopt. Good enough for google-benchmark output: keys are unique per
// object and values are strings, numbers, or booleans (never nested
// containers for the keys we read).
std::optional<std::string> FindValue(const std::string& object,
                                     const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t key_pos = object.find(needle);
  if (key_pos == std::string::npos) return std::nullopt;
  size_t pos = key_pos + needle.size();
  while (pos < object.size() &&
         (object[pos] == ' ' || object[pos] == '\t' || object[pos] == '\n')) {
    ++pos;
  }
  if (pos >= object.size()) return std::nullopt;
  if (object[pos] == '"') {
    // String value: scan to the closing unescaped quote.
    std::string value;
    for (size_t i = pos + 1; i < object.size(); ++i) {
      if (object[i] == '\\' && i + 1 < object.size()) {
        value += object[i + 1];
        ++i;
      } else if (object[i] == '"') {
        return value;
      } else {
        value += object[i];
      }
    }
    return std::nullopt;
  }
  // Number / boolean: scan to the next delimiter.
  size_t end = pos;
  while (end < object.size() && object[end] != ',' && object[end] != '}' &&
         object[end] != '\n') {
    ++end;
  }
  return object.substr(pos, end - pos);
}

std::optional<double> FindNumber(const std::string& object,
                                 const std::string& key) {
  const std::optional<std::string> text = FindValue(object, key);
  if (!text.has_value()) return std::nullopt;
  try {
    return std::stod(*text);
  } catch (...) {
    return std::nullopt;
  }
}

double ToNanoseconds(double value, const std::string& unit) {
  if (unit == "ns") return value;
  if (unit == "us") return value * 1e3;
  if (unit == "ms") return value * 1e6;
  if (unit == "s") return value * 1e9;
  return value;  // google-benchmark default is ns
}

// Splits the top-level objects of the "benchmarks" array by brace
// matching (benchmark entries never nest arrays, but counters add nested
// objects, so a depth counter is required).
std::vector<std::string> BenchmarkObjects(const std::string& json) {
  std::vector<std::string> objects;
  const size_t array_pos = json.find("\"benchmarks\":");
  if (array_pos == std::string::npos) return objects;
  const size_t open = json.find('[', array_pos);
  if (open == std::string::npos) return objects;
  int depth = 0;
  size_t object_start = 0;
  bool in_string = false;
  for (size_t i = open + 1; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth == 0) object_start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) {
        objects.push_back(json.substr(object_start, i - object_start + 1));
      }
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return objects;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string FormatNumber(double value) {
  char buffer[64];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  }
  return buffer;
}

}  // namespace

// Median of a non-empty sample (the mean of the middle two for an even
// count).
double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

int main(int argc, char** argv) {
  std::string build_type;
  bool require_release = false;
  bool allow_debug_library = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--build-type=", 0) == 0) {
      build_type = arg.substr(std::string("--build-type=").size());
    } else if (arg == "--require-release") {
      require_release = true;
    } else if (arg == "--allow-debug-library") {
      allow_debug_library = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: %s [--build-type=<type>] [--require-release] "
                 "[--allow-debug-library] "
                 "<raw-google-benchmark.json> <output.json>\n",
                 argv[0]);
    return 2;
  }

  std::string build_type_lower = build_type;
  for (char& c : build_type_lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  const bool is_release = build_type_lower == "release";
  if (!is_release) {
    if (require_release) {
      std::fprintf(stderr,
                   "bench_json_report: refusing to write a trajectory from a "
                   "'%s' build — rerun with CMAKE_BUILD_TYPE=Release (pass "
                   "--build-type=Release once the build is reconfigured)\n",
                   build_type.empty() ? "<unset>" : build_type.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "bench_json_report: WARNING: build type is '%s', not "
                 "Release — timings are not comparable to the checked-in "
                 "baseline; the output is tagged accordingly\n",
                 build_type.empty() ? "<unset>" : build_type.c_str());
  }

  std::ifstream input(positional[0]);
  if (!input) {
    std::fprintf(stderr, "cannot read %s\n", positional[0]);
    return 1;
  }
  std::stringstream buffer;
  buffer << input.rdbuf();
  const std::string raw = buffer.str();

  const std::string library_build_type =
      FindValue(raw, "library_build_type").value_or("");
  const bool debug_library = library_build_type != "release";
  if (debug_library) {
    if (require_release && !allow_debug_library) {
      std::fprintf(
          stderr,
          "bench_json_report: refusing to write a trajectory timed by a "
          "'%s' google-benchmark library — rebuild the benchmark library "
          "Release, or pass --allow-debug-library to accept the harness "
          "overhead (the tag is recorded in the output context)\n",
          library_build_type.empty() ? "<unset>" : library_build_type.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "bench_json_report: WARNING: google-benchmark library build "
                 "type is '%s', not release — harness overhead may differ "
                 "from a release-built library\n",
                 library_build_type.empty() ? "<unset>"
                                            : library_build_type.c_str());
  }

  const std::vector<std::string> entries = BenchmarkObjects(raw);
  if (entries.empty()) {
    std::fprintf(stderr, "no benchmarks found in %s\n", positional[0]);
    return 1;
  }

  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"zonestream-bench-trajectory-v2\",\n";
  out << "  \"source_binary\": \"bench_model_perf\",\n";
  // Context: the subset that is stable enough to be worth diffing.
  out << "  \"context\": {";
  bool first_context = true;
  for (const char* key : {"num_cpus", "mhz_per_cpu"}) {
    if (const auto value = FindNumber(raw, key)) {
      if (!first_context) out << ",";
      out << "\n    \"" << key << "\": " << FormatNumber(*value);
      first_context = false;
    }
  }
  // Custom context entries are emitted by google-benchmark as strings;
  // the pool width is numeric by construction.
  if (const auto threads = FindValue(raw, "zonestream_threads")) {
    try {
      const double value = std::stod(*threads);
      if (!first_context) out << ",";
      out << "\n    \"num_threads\": " << FormatNumber(value);
      first_context = false;
    } catch (...) {
    }
  }
  if (const auto value = FindValue(raw, "library_build_type")) {
    if (!first_context) out << ",";
    out << "\n    \"library_build_type\": \"" << JsonEscape(*value) << "\"";
    first_context = false;
  }
  if (!build_type.empty()) {
    if (!first_context) out << ",";
    out << "\n    \"zonestream_build_type\": \"" << JsonEscape(build_type)
        << "\"";
    first_context = false;
  }
  // A debug-library waiver must be loud in the artifact itself, not just
  // on the stderr of whoever regenerated it: anyone diffing the
  // trajectory sees the caveat next to the numbers it taints.
  if (debug_library && allow_debug_library) {
    if (!first_context) out << ",";
    out << "\n    \"warning\": \"timed by a non-release google-benchmark "
           "library (--allow-debug-library): harness overhead inflates "
           "absolute timings; compare only against entries carrying this "
           "same tag\"";
    first_context = false;
  }
  out << "\n  },\n";
  // One entry per benchmark name, in first-appearance order, over its
  // iteration rows (one per --benchmark_repetitions repetition); the
  // aggregate rows google-benchmark appends are skipped.
  struct Rows {
    std::string name;
    // Registration order (family, instance): random interleaving writes
    // the rows in execution order, which changes from run to run.
    double family = 0.0;
    double instance = 0.0;
    std::vector<double> iterations, real_ns, cpu_ns;
    std::vector<std::vector<double>> counters;  // per kCounters entry
  };
  // Counter passthrough: throughput, admission latency percentiles, the
  // flash-crowd shed fraction and the round trip's daemon CPU per request
  // (already in their final units — counters are not scaled by
  // time_unit).
  constexpr const char* kCounters[] = {"items_per_second", "p50_ns",
                                       "p99_ns", "shed_fraction",
                                       "daemon_cpu_ns"};
  constexpr size_t kNumCounters = sizeof(kCounters) / sizeof(kCounters[0]);
  std::vector<Rows> benchmarks;
  for (const std::string& entry : entries) {
    const auto run_type = FindValue(entry, "run_type");
    if (run_type.has_value() && *run_type != "iteration") continue;
    const auto name = FindValue(entry, "name");
    const auto real_time = FindNumber(entry, "real_time");
    if (!name.has_value() || !real_time.has_value()) continue;
    const std::string unit = FindValue(entry, "time_unit").value_or("ns");
    Rows* rows = nullptr;
    for (Rows& existing : benchmarks) {
      if (existing.name == *name) rows = &existing;
    }
    if (rows == nullptr) {
      benchmarks.push_back(Rows{*name,
                                FindNumber(entry, "family_index").value_or(0),
                                FindNumber(entry, "per_family_instance_index")
                                    .value_or(0),
                                {}, {}, {}, {}});
      rows = &benchmarks.back();
      rows->counters.resize(kNumCounters);
    }
    rows->iterations.push_back(FindNumber(entry, "iterations").value_or(0));
    rows->real_ns.push_back(ToNanoseconds(*real_time, unit));
    rows->cpu_ns.push_back(ToNanoseconds(
        FindNumber(entry, "cpu_time").value_or(*real_time), unit));
    for (size_t c = 0; c < kNumCounters; ++c) {
      if (const auto value = FindNumber(entry, kCounters[c])) {
        rows->counters[c].push_back(*value);
      }
    }
  }

  std::stable_sort(benchmarks.begin(), benchmarks.end(),
                   [](const Rows& a, const Rows& b) {
                     return a.family != b.family ? a.family < b.family
                                                 : a.instance < b.instance;
                   });

  // real_time_ns, cpu_time_ns and the counters are medians over the
  // repetitions; cpu_time_min_ns is the figure that holds under a
  // drifting host, and cpu_time_cv (sample stddev / mean, 0 for a single
  // repetition) says how far to trust the others.
  out << "  \"benchmarks\": [\n";
  bool first_entry = true;
  for (const Rows& rows : benchmarks) {
    double mean = 0.0;
    for (const double t : rows.cpu_ns) mean += t;
    mean /= static_cast<double>(rows.cpu_ns.size());
    double squares = 0.0;
    for (const double t : rows.cpu_ns) squares += (t - mean) * (t - mean);
    const double cv =
        rows.cpu_ns.size() > 1 && mean > 0.0
            ? std::sqrt(squares / static_cast<double>(rows.cpu_ns.size() - 1)) /
                  mean
            : 0.0;
    if (!first_entry) out << ",\n";
    out << "    {\"name\": \"" << JsonEscape(rows.name) << "\""
        << ", \"repetitions\": " << rows.cpu_ns.size()
        << ", \"iterations\": " << FormatNumber(Median(rows.iterations))
        << ", \"real_time_ns\": " << FormatNumber(Median(rows.real_ns))
        << ", \"cpu_time_ns\": " << FormatNumber(Median(rows.cpu_ns))
        << ", \"cpu_time_min_ns\": "
        << FormatNumber(*std::min_element(rows.cpu_ns.begin(),
                                          rows.cpu_ns.end()))
        << ", \"cpu_time_cv\": " << FormatNumber(cv);
    for (size_t c = 0; c < kNumCounters; ++c) {
      if (!rows.counters[c].empty()) {
        out << ", \"" << kCounters[c]
            << "\": " << FormatNumber(Median(rows.counters[c]));
      }
    }
    out << "}";
    first_entry = false;
  }
  out << "\n  ]\n}\n";

  std::ofstream output(positional[1]);
  if (!output) {
    std::fprintf(stderr, "cannot write %s\n", positional[1]);
    return 1;
  }
  output << out.str();
  if (!output.flush()) {
    std::fprintf(stderr, "write to %s failed\n", positional[1]);
    return 1;
  }
  std::printf("wrote %s (%zu benchmarks)\n", positional[1], benchmarks.size());
  return 0;
}
