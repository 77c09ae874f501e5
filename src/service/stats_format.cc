#include "service/stats_format.h"

#include <algorithm>

#include "common/table_printer.h"

namespace zonestream::service {

std::string FormatServiceStats(const ServiceStats& stats) {
  std::string out;
  {
    common::TablePrinter table("admission service");
    table.SetHeader({"live_sessions", "limits_version", "limit_scale",
                     "table_rows", "registry_capacity", "shards"});
    table.AddRow({std::to_string(stats.live_sessions),
                  std::to_string(stats.limits_version),
                  std::to_string(stats.limit_scale),
                  std::to_string(stats.table_rows),
                  std::to_string(stats.registry.capacity),
                  std::to_string(stats.registry.shards)});
    out += table.ToString();
  }
  out += "\n";
  {
    common::TablePrinter table("classes");
    table.SetHeader({"class", "tolerance", "occupancy", "limit", "free"});
    for (const ServiceClassStats& cls : stats.classes) {
      table.AddRow({cls.name, common::FormatProbability(cls.tolerance),
                    std::to_string(cls.occupancy),
                    std::to_string(cls.limit),
                    std::to_string(cls.limit - cls.occupancy)});
    }
    out += table.ToString();
  }
  if (!stats.registry.shard_live.empty()) {
    out += "\n";
    // Shard occupancy summary instead of one row per shard: the shard
    // count is a tuning knob that can reach thousands.
    int64_t min_live = stats.registry.shard_live.front();
    int64_t max_live = min_live;
    int64_t total = 0;
    for (int64_t live : stats.registry.shard_live) {
      min_live = std::min(min_live, live);
      max_live = std::max(max_live, live);
      total += live;
    }
    common::TablePrinter table("registry shards");
    table.SetHeader({"shards", "live", "min_live", "max_live", "mean_live"});
    table.AddRow({std::to_string(stats.registry.shards),
                  std::to_string(total), std::to_string(min_live),
                  std::to_string(max_live),
                  common::FormatFixed(
                      stats.registry.shards > 0
                          ? static_cast<double>(total) /
                                static_cast<double>(stats.registry.shards)
                          : 0.0,
                      2)});
    out += table.ToString();
  }
  return out;
}

}  // namespace zonestream::service
