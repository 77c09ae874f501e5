#include "obs/export.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace zonestream::obs {
namespace {

// Minimal structural JSON validity check: quotes pair up and brackets
// balance outside strings. Catches malformed emitter output (unescaped
// quotes, trailing garbage) without a full parser.
bool JsonLooksValid(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(ExportJsonTest, RegistryToJsonIsValidAndComplete) {
  Registry registry;
  registry.GetCounter("sim.rounds")->Increment(100);
  registry.GetGauge("mixed.queue_depth")->Set(4.5);
  registry.GetHistogram("sim.round.service_time_s")->Record(0.5);
  registry.GetHistogram("sim.round.service_time_s")->Record(0.75);

  const std::string json = RegistryToJson(registry.Snapshot());
  EXPECT_TRUE(JsonLooksValid(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.rounds\":100"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"mixed.queue_depth\":4.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":1.25"), std::string::npos);
  EXPECT_NE(json.find("\"mean\":0.625"), std::string::npos);
}

TEST(ExportJsonTest, EmptyRegistrySerializes) {
  Registry registry;
  const std::string json = RegistryToJson(registry.Snapshot());
  EXPECT_TRUE(JsonLooksValid(json)) << json;
  EXPECT_NE(json.find("\"counters\":{}"), std::string::npos);
}

TEST(ExportJsonTest, DoublesRoundTripExactly) {
  Registry registry;
  // A value with no short decimal representation: %.17g must round-trip.
  const double value = 0.1 + 0.2;
  registry.GetGauge("g.value")->Set(value);
  const std::string json = RegistryToJson(registry.Snapshot());
  const auto pos = json.find("\"g.value\":");
  ASSERT_NE(pos, std::string::npos);
  const double parsed = std::strtod(json.c_str() + pos + 10, nullptr);
  EXPECT_EQ(parsed, value);  // bit-exact
}

TEST(ExportTextTest, RegistryToTextRendersTables) {
  Registry registry;
  registry.GetCounter("sim.rounds")->Increment(100);
  registry.GetHistogram("sim.round.service_time_s")->Record(0.5);
  const std::string text = RegistryToText(registry.Snapshot());
  EXPECT_NE(text.find("Counters & gauges"), std::string::npos);
  EXPECT_NE(text.find("Histograms"), std::string::npos);
  EXPECT_NE(text.find("sim.rounds"), std::string::npos);
  EXPECT_NE(text.find("sim.round.service_time_s"), std::string::npos);
}

}  // namespace
}  // namespace zonestream::obs
