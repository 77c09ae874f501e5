// zonestream_admitd: the admission-control daemon (§5 deployed as a
// long-running service).
//
//   zonestream_admitd --socket PATH [options]
//
//   --socket PATH         unix-domain socket to listen on (required)
//   --config FILE         server config (src/server/server_config.h):
//                         builds the admission table for the class
//                         tolerances from the spec's disk/workload/QoS
//                         sections and publishes scale = disks
//   --table FILE          pre-serialized AdmissionTable text (the §5
//                         offline-build flow: plan elsewhere, ship the
//                         table). Mutually exclusive with --config.
//   --limits N,N,...      direct per-class limit override (one integer
//                         per class, no table) — for tests and manual
//                         operation
//   --classes SPEC        comma list of name:tolerance, strictly
//                         ascending by tolerance
//                         (default gold:0.001,silver:0.01,bronze:0.05)
//   --scale N             limit-scale override (default: disks from
//                         --config, else 1)
//   --shards N            session-registry shards (default 64)
//   --capacity N          session-registry capacity (default 1048576)
//   --checkpoint-dir DIR  durable checkpoints: resume from the latest
//                         good snapshot at startup, write one on the
//                         `checkpoint` op and at shutdown
//   --poll-ms N           poll interval (default 100)
//
// Talk to it with `zonestream_ctl admitd <op> --socket PATH` (admit,
// teardown, transition, stats, checkpoint, digest, shutdown) — see
// docs/SERVICE.md for the full operational walkthrough, including the
// kill -9 / restart / digest bit-identity check.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/service_time_model.h"
#include "disk/disk_geometry.h"
#include "disk/seek_model.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "recovery/checkpoint.h"
#include "recovery/snapshot.h"
#include "server/server_config.h"
#include "service/admission_service.h"
#include "service/daemon.h"

using namespace zonestream;  // example code; libraries never do this

namespace {

service::AdmitDaemon* g_daemon = nullptr;

void HandleSignal(int /*signum*/) {
  if (g_daemon != nullptr) g_daemon->RequestShutdown();
}

common::StatusOr<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return common::Status::NotFound("cannot open " + path);
  }
  std::string content;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    content.append(buffer, got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return common::Status::Internal("read error on " + path);
  return content;
}

// "gold:0.001,silver:0.01" -> class configs (validated by Create).
common::StatusOr<std::vector<service::AdmissionClassConfig>> ParseClasses(
    const std::string& spec) {
  std::vector<service::AdmissionClassConfig> classes;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(start, end - start);
    const size_t colon = item.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= item.size()) {
      return common::Status::InvalidArgument(
          "class spec entry '" + item + "' is not name:tolerance");
    }
    service::AdmissionClassConfig cls;
    cls.name = item.substr(0, colon);
    char* parse_end = nullptr;
    cls.tolerance = std::strtod(item.c_str() + colon + 1, &parse_end);
    if (parse_end == nullptr || *parse_end != '\0') {
      return common::Status::InvalidArgument(
          "bad tolerance in class spec entry '" + item + "'");
    }
    classes.push_back(std::move(cls));
    start = end + 1;
  }
  return classes;
}

struct Args {
  std::string socket;
  std::string config;
  std::string table;
  std::string classes = "gold:0.001,silver:0.01,bronze:0.05";
  std::string limits;
  std::string checkpoint_dir;
  int64_t scale = 0;  // 0 = derive (disks from --config, else 1)
  int shards = 64;
  int capacity = 1 << 20;
  int poll_ms = 100;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (flag == "--socket" && (value = next())) {
      args->socket = value;
    } else if (flag == "--config" && (value = next())) {
      args->config = value;
    } else if (flag == "--table" && (value = next())) {
      args->table = value;
    } else if (flag == "--classes" && (value = next())) {
      args->classes = value;
    } else if (flag == "--limits" && (value = next())) {
      args->limits = value;
    } else if (flag == "--checkpoint-dir" && (value = next())) {
      args->checkpoint_dir = value;
    } else if (flag == "--scale" && (value = next())) {
      args->scale = std::atoll(value);
    } else if (flag == "--shards" && (value = next())) {
      args->shards = std::atoi(value);
    } else if (flag == "--capacity" && (value = next())) {
      args->capacity = std::atoi(value);
    } else if (flag == "--poll-ms" && (value = next())) {
      args->poll_ms = std::atoi(value);
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (args->socket.empty()) {
    std::fprintf(stderr, "--socket is required\n");
    return false;
  }
  if (!args->config.empty() && !args->table.empty()) {
    std::fprintf(stderr, "--config and --table are mutually exclusive\n");
    return false;
  }
  return true;
}

int Run(const Args& args) {
  auto classes = ParseClasses(args.classes);
  if (!classes.ok()) {
    std::fprintf(stderr, "classes: %s\n",
                 classes.status().ToString().c_str());
    return 1;
  }

  obs::Registry registry;
  service::AdmissionServiceConfig config;
  config.classes = *classes;
  config.limit_scale = args.scale > 0 ? args.scale : 1;
  config.registry.shards = args.shards;
  config.registry.capacity = args.capacity;
  config.metrics = &registry;
  auto service = service::AdmissionService::Create(config);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }

  // Admission table: built from a server config, or shipped as text.
  if (!args.config.empty()) {
    const auto spec = server::LoadServerSpec(args.config);
    if (!spec.ok()) {
      std::fprintf(stderr, "config: %s\n", spec.status().ToString().c_str());
      return 1;
    }
    auto geometry = disk::DiskGeometry::Create(spec->disk_parameters);
    auto seek = disk::SeekTimeModel::Create(spec->seek_parameters);
    if (!geometry.ok() || !seek.ok()) {
      std::fprintf(stderr, "config: bad disk model\n");
      return 1;
    }
    auto model = core::ServiceTimeModel::ForMultiZoneDisk(
        *geometry, *seek, spec->fragment_mean_bytes,
        spec->fragment_variance_bytes2);
    if (!model.ok()) {
      std::fprintf(stderr, "model: %s\n", model.status().ToString().c_str());
      return 1;
    }
    std::vector<double> tolerances;
    for (const auto& cls : *classes) tolerances.push_back(cls.tolerance);
    auto table = core::AdmissionTable::Build(
        *model, spec->criterion, spec->round_length_s, tolerances,
        spec->session_rounds, spec->tolerated_glitches);
    if (!table.ok()) {
      std::fprintf(stderr, "table: %s\n", table.status().ToString().c_str());
      return 1;
    }
    (*service)->PublishTable(*table);
    // One table row bounds streams per disk; the deployment serves
    // `disks` phase groups at that level.
    (*service)->PublishScale(args.scale > 0 ? args.scale
                                            : spec->num_disks);
  } else if (!args.table.empty()) {
    const auto text = ReadWholeFile(args.table);
    if (!text.ok()) {
      std::fprintf(stderr, "table: %s\n", text.status().ToString().c_str());
      return 1;
    }
    auto table = core::AdmissionTable::Deserialize(*text);
    if (!table.ok()) {
      std::fprintf(stderr, "table: %s\n", table.status().ToString().c_str());
      return 1;
    }
    (*service)->PublishTable(*table);
    if (args.scale > 0) (*service)->PublishScale(args.scale);
  }
  if (!args.limits.empty()) {
    std::vector<int64_t> limits;
    const char* cursor = args.limits.c_str();
    while (*cursor != '\0') {
      char* end = nullptr;
      limits.push_back(std::strtoll(cursor, &end, 10));
      if (end == cursor) break;
      cursor = *end == ',' ? end + 1 : end;
    }
    const auto status = (*service)->PublishLimits(limits);
    if (!status.ok()) {
      std::fprintf(stderr, "limits: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  // Checkpointing: resume first, then arm the writer.
  std::unique_ptr<recovery::CheckpointWriter> writer;
  if (!args.checkpoint_dir.empty()) {
    auto loaded = recovery::LoadLatestGoodSnapshot(args.checkpoint_dir);
    if (loaded.ok()) {
      for (const std::string& rejected : loaded->rejected) {
        std::fprintf(stderr, "warning: skipped corrupt snapshot: %s\n",
                     rejected.c_str());
      }
      if (loaded->snapshot.service.has_value()) {
        const auto status =
            (*service)->RestoreState(*loaded->snapshot.service);
        if (!status.ok()) {
          std::fprintf(stderr, "restore from %s: %s\n",
                       loaded->path.c_str(), status.ToString().c_str());
          return 1;
        }
        std::fprintf(stderr,
                     "resumed %lld sessions from %s (digest %016llx)\n",
                     static_cast<long long>(
                         loaded->snapshot.service->sessions.size()),
                     loaded->path.c_str(),
                     static_cast<unsigned long long>((*service)->Digest()));
      }
    } else if (loaded.status().code() != common::StatusCode::kNotFound) {
      std::fprintf(stderr, "recovery scan: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    recovery::CheckpointWriterOptions writer_options;
    writer_options.directory = args.checkpoint_dir;
    writer_options.basename = "admitd";
    auto writer_or = recovery::CheckpointWriter::Create(writer_options);
    if (!writer_or.ok()) {
      std::fprintf(stderr, "checkpoint writer: %s\n",
                   writer_or.status().ToString().c_str());
      return 1;
    }
    writer = std::make_unique<recovery::CheckpointWriter>(
        std::move(*writer_or));
  }

  service::DaemonOptions daemon_options;
  daemon_options.socket_path = args.socket;
  daemon_options.poll_interval_ms = args.poll_ms;
  auto daemon = service::AdmitDaemon::Create(service->get(), daemon_options);
  if (!daemon.ok()) {
    std::fprintf(stderr, "daemon: %s\n", daemon.status().ToString().c_str());
    return 1;
  }
  if (writer != nullptr) {
    service::AdmissionService* svc = service->get();
    recovery::CheckpointWriter* w = writer.get();
    (*daemon)->SetCheckpointCallback(
        [svc, w]() -> common::StatusOr<std::string> {
          recovery::Snapshot snapshot;
          snapshot.meta.producer = "zonestream_admitd";
          snapshot.service = svc->ExportState();
          return w->Write(snapshot);
        });
  }

  g_daemon = daemon->get();
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::fprintf(stderr, "zonestream_admitd listening on %s (%zu classes)\n",
               args.socket.c_str(), (*service)->class_count());
  const auto status = (*daemon)->Serve();
  g_daemon = nullptr;
  if (!status.ok()) {
    std::fprintf(stderr, "serve: %s\n", status.ToString().c_str());
    return 1;
  }

  // Exit report: the service.* metrics tables (docs/OBSERVABILITY.md).
  (*service)->FlushObservability();
  obs::PrintRegistry(registry.Snapshot(), stderr);

  // Final durable checkpoint on clean shutdown.
  if (writer != nullptr) {
    recovery::Snapshot snapshot;
    snapshot.meta.producer = "zonestream_admitd";
    snapshot.service = (*service)->ExportState();
    const auto path = writer->Write(snapshot);
    if (!path.ok()) {
      std::fprintf(stderr, "final checkpoint: %s\n",
                   path.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "final checkpoint: %s\n", path->c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --socket PATH [--config FILE | --table FILE] "
                 "[--classes name:tol,...] [--scale N] [--shards N] "
                 "[--capacity N] [--checkpoint-dir DIR] [--poll-ms N]\n",
                 argv[0]);
    return 2;
  }
  return Run(args);
}
