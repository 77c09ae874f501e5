#include "sim/rare_event_spec.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <vector>

namespace zonestream::sim {

namespace {

std::vector<std::string> Split(const std::string& text, char separator) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t end = text.find(separator, start);
    if (end == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

// Key=value list with duplicate and syntax checking (the fault_spec
// grammar, minus its model clauses — one flat pair list).
common::StatusOr<std::map<std::string, std::string>> ParsePairs(
    const std::string& text) {
  std::map<std::string, std::string> pairs;
  if (text.empty()) return pairs;
  for (const std::string& item : Split(text, ',')) {
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
      return common::Status::InvalidArgument(
          "rare-event spec: expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    if (!pairs.emplace(key, item.substr(eq + 1)).second) {
      return common::Status::InvalidArgument(
          "rare-event spec: duplicate key '" + key + "'");
    }
  }
  return pairs;
}

common::Status TakeDouble(std::map<std::string, std::string>* pairs,
                          const std::string& key, double* out) {
  auto it = pairs->find(key);
  if (it == pairs->end()) return common::Status::Ok();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return common::Status::InvalidArgument(
        "rare-event spec: bad number for '" + key + "': '" + it->second +
        "'");
  }
  // strtod parses "inf"/"nan" and saturates overflowing literals; none of
  // those configure a sampler meaningfully.
  if (!std::isfinite(value) || errno == ERANGE) {
    return common::Status::InvalidArgument(
        "rare-event spec: value for '" + key + "' must be finite, got '" +
        it->second + "'");
  }
  *out = value;
  pairs->erase(it);
  return common::Status::Ok();
}

// Integers are parsed as integers, not through double (whose cast back is
// undefined out of range and silently truncates fractions).
common::Status TakeInt(std::map<std::string, std::string>* pairs,
                       const std::string& key, int* out) {
  auto it = pairs->find(key);
  if (it == pairs->end()) return common::Status::Ok();
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    return common::Status::InvalidArgument(
        "rare-event spec: bad integer for '" + key + "': '" + it->second +
        "'");
  }
  if (errno == ERANGE || value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return common::Status::InvalidArgument(
        "rare-event spec: integer for '" + key + "' out of range: '" +
        it->second + "'");
  }
  *out = static_cast<int>(value);
  pairs->erase(it);
  return common::Status::Ok();
}

common::Status TakeU64(std::map<std::string, std::string>* pairs,
                       const std::string& key, uint64_t* out) {
  auto it = pairs->find(key);
  if (it == pairs->end()) return common::Status::Ok();
  // strtoull silently wraps negative literals; a negative seed is a typo,
  // not a 2^64 complement.
  if (it->second.find('-') != std::string::npos) {
    return common::Status::InvalidArgument(
        "rare-event spec: '" + key + "' must be non-negative, got '" +
        it->second + "'");
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value =
      std::strtoull(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
    return common::Status::InvalidArgument(
        "rare-event spec: bad integer for '" + key + "': '" + it->second +
        "'");
  }
  *out = static_cast<uint64_t>(value);
  pairs->erase(it);
  return common::Status::Ok();
}

std::string Num(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

}  // namespace

common::StatusOr<RareEventSpec> ParseRareEventSpec(const std::string& text) {
  RareEventSpec spec;
  auto pairs = ParsePairs(text);
  if (!pairs.ok()) return pairs.status();
  common::Status status = common::Status::Ok();
  if (status.ok()) status = TakeInt(&*pairs, "streams", &spec.streams);
  if (status.ok()) {
    status = TakeInt(&*pairs, "rounds", &spec.rounds_per_replication);
  }
  if (status.ok()) status = TakeInt(&*pairs, "reps", &spec.replications);
  if (status.ok()) status = TakeU64(&*pairs, "seed", &spec.base_seed);
  if (status.ok()) status = TakeInt(&*pairs, "m", &spec.lifetime_rounds);
  if (status.ok()) status = TakeInt(&*pairs, "g", &spec.tolerated_glitches);
  if (status.ok()) {
    // theta accepts "auto" (derive the Chernoff minimizer, the options
    // struct's 0 sentinel) in addition to a number.
    auto it = pairs->find("theta");
    if (it != pairs->end() && it->second == "auto") {
      spec.options.theta = 0.0;
      pairs->erase(it);
    } else {
      status = TakeDouble(&*pairs, "theta", &spec.options.theta);
    }
  }
  if (status.ok()) {
    status = TakeDouble(&*pairs, "confidence", &spec.options.confidence);
  }
  if (!status.ok()) return status;
  if (!pairs->empty()) {
    return common::Status::InvalidArgument(
        "rare-event spec: unknown key '" + pairs->begin()->first + "'");
  }
  // Spec-level sanity (the estimators re-check these, but a CLI typo
  // should fail before any sampler is constructed).
  if (spec.streams < 0) {
    return common::Status::InvalidArgument(
        "rare-event spec: streams must be >= 0");
  }
  if (spec.rounds_per_replication <= 0 || spec.replications <= 0) {
    return common::Status::InvalidArgument(
        "rare-event spec: rounds and reps must be positive");
  }
  if (spec.lifetime_rounds <= 0 || spec.tolerated_glitches < 0 ||
      spec.tolerated_glitches > spec.lifetime_rounds) {
    return common::Status::InvalidArgument(
        "rare-event spec: need m > 0 and 0 <= g <= m");
  }
  if (spec.options.theta < 0.0) {
    return common::Status::InvalidArgument(
        "rare-event spec: theta must be >= 0 or 'auto'");
  }
  return spec;
}

std::string FormatRareEventSpec(const RareEventSpec& spec) {
  std::string out = "streams=" + std::to_string(spec.streams) +
                    ",rounds=" + std::to_string(spec.rounds_per_replication) +
                    ",reps=" + std::to_string(spec.replications) +
                    ",seed=" + std::to_string(spec.base_seed) +
                    ",m=" + std::to_string(spec.lifetime_rounds) +
                    ",g=" + std::to_string(spec.tolerated_glitches);
  out += ",theta=";
  out += spec.options.theta == 0.0 ? "auto" : Num(spec.options.theta);
  out += ",confidence=" + Num(spec.options.confidence);
  return out;
}

}  // namespace zonestream::sim
