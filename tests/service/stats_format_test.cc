#include "service/stats_format.h"

#include <string>

#include <gtest/gtest.h>

#include "service/admission_service.h"

namespace zonestream::service {
namespace {

ServiceStats SampleStats() {
  ServiceStats stats;
  stats.live_sessions = 3;
  stats.limits_version = 2;
  stats.limit_scale = 4;
  stats.table_rows = 3;
  stats.classes = {{"gold", 0.001, 1, 32}, {"silver", 0.01, 0, 56},
                   {"bronze", 0.05, 2, 80}};
  stats.registry.live = 3;
  stats.registry.capacity = 4096;
  stats.registry.shards = 4;
  stats.registry.shard_live = {2, 0, 1, 0};
  return stats;
}

TEST(FormatServiceStatsTest, RendersAllThreeTables) {
  const std::string out = FormatServiceStats(SampleStats());

  // Summary table.
  EXPECT_NE(out.find("admission service"), std::string::npos);
  EXPECT_NE(out.find("live_sessions"), std::string::npos);
  EXPECT_NE(out.find("| 3 "), std::string::npos);

  // Class table: tolerance renders through FormatProbability, and the
  // free column is limit - occupancy.
  EXPECT_NE(out.find("classes"), std::string::npos);
  EXPECT_NE(out.find("| gold "), std::string::npos);
  EXPECT_NE(out.find("| 0.00100 "), std::string::npos);
  EXPECT_NE(out.find("| 31 "), std::string::npos);  // 32 - 1 free
  EXPECT_NE(out.find("| silver "), std::string::npos);
  EXPECT_NE(out.find("| 56 "), std::string::npos);
  EXPECT_NE(out.find("| bronze "), std::string::npos);
  EXPECT_NE(out.find("| 78 "), std::string::npos);  // 80 - 2 free

  // Shard summary: one aggregate row, not one row per shard.
  EXPECT_NE(out.find("registry shards"), std::string::npos);
  EXPECT_NE(out.find("min_live"), std::string::npos);
  EXPECT_NE(out.find("| 0.75 "), std::string::npos);  // mean_live 3/4
}

TEST(FormatServiceStatsTest, OmitsShardTableWithoutShardData) {
  ServiceStats stats = SampleStats();
  stats.registry.shard_live.clear();
  const std::string out = FormatServiceStats(stats);
  EXPECT_EQ(out.find("registry shards"), std::string::npos);
}

TEST(FormatServiceStatsTest, GoldenLayoutIsStable) {
  // Full golden: the exact rendering is part of the ctl UX; any layout
  // change must update this string deliberately.
  ServiceStats stats;
  stats.live_sessions = 1;
  stats.limits_version = 1;
  stats.limit_scale = 1;
  stats.table_rows = 0;
  stats.classes = {{"gold", 0.001, 1, 8}};
  stats.registry.live = 1;
  stats.registry.capacity = 64;
  stats.registry.shards = 1;
  stats.registry.shard_live = {1};
  const std::string expected =
      "admission service\n"
      "| live_sessions | limits_version | limit_scale | table_rows | "
      "registry_capacity | shards |\n"
      "|---------------|----------------|-------------|------------|"
      "-------------------|--------|\n"
      "| 1             | 1              | 1           | 0          | "
      "64                | 1      |\n"
      "\n"
      "classes\n"
      "| class | tolerance | occupancy | limit | free |\n"
      "|-------|-----------|-----------|-------|------|\n"
      "| gold  | 0.00100   | 1         | 8     | 7    |\n"
      "\n"
      "registry shards\n"
      "| shards | live | min_live | max_live | mean_live |\n"
      "|--------|------|----------|----------|-----------|\n"
      "| 1      | 1    | 1        | 1        | 1.00      |\n";
  EXPECT_EQ(FormatServiceStats(stats), expected);
}

}  // namespace
}  // namespace zonestream::service
