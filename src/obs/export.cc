#include "obs/export.h"

#include <cmath>
#include <cstdio>

#include "common/table_printer.h"

namespace zonestream::obs {

namespace {

// %.17g round-trips every finite double; JSON has no inf/nan literals, so
// those serialize as null (the exporters never produce them in practice).
std::string JsonDouble(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string HistogramJson(const HistogramSnapshot& h) {
  std::string out = "{";
  out += "\"count\":" + std::to_string(h.count);
  out += ",\"sum\":" + JsonDouble(h.sum);
  out += ",\"mean\":" + JsonDouble(h.mean());
  out += ",\"min\":" + JsonDouble(h.min);
  out += ",\"max\":" + JsonDouble(h.max);
  out += ",\"p50\":" + JsonDouble(h.p50);
  out += ",\"p95\":" + JsonDouble(h.p95);
  out += ",\"p99\":" + JsonDouble(h.p99);
  out += "}";
  return out;
}

}  // namespace

std::string RegistryToJson(const RegistrySnapshot& snapshot) {
  std::string out = "{\"counters\":{";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(snapshot.counters[i].first) + ":" +
           std::to_string(snapshot.counters[i].second);
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(snapshot.gauges[i].first) + ":" +
           JsonDouble(snapshot.gauges[i].second);
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(snapshot.histograms[i].first) + ":" +
           HistogramJson(snapshot.histograms[i].second);
  }
  out += "}}";
  return out;
}

std::string RegistryToText(const RegistrySnapshot& snapshot) {
  std::string out;
  if (!snapshot.counters.empty() || !snapshot.gauges.empty()) {
    common::TablePrinter table("Counters & gauges");
    table.SetHeader({"metric", "value"});
    for (const auto& [name, value] : snapshot.counters) {
      table.AddRow({name, std::to_string(value)});
    }
    for (const auto& [name, value] : snapshot.gauges) {
      table.AddRow({name, common::FormatDouble(value)});
    }
    out += table.ToString();
  }
  if (!snapshot.histograms.empty()) {
    if (!out.empty()) out += '\n';
    common::TablePrinter table("Histograms");
    table.SetHeader(
        {"metric", "count", "mean", "p50", "p95", "p99", "max"});
    for (const auto& [name, h] : snapshot.histograms) {
      table.AddRow({name, std::to_string(h.count),
                    common::FormatDouble(h.mean()),
                    common::FormatDouble(h.p50), common::FormatDouble(h.p95),
                    common::FormatDouble(h.p99),
                    common::FormatDouble(h.max)});
    }
    out += table.ToString();
  }
  if (out.empty()) out = "(no metrics recorded)\n";
  return out;
}

void PrintRegistry(const RegistrySnapshot& snapshot, std::FILE* out) {
  const std::string text = RegistryToText(snapshot);
  std::fwrite(text.data(), 1, text.size(), out);
}

}  // namespace zonestream::obs
