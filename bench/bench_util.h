// Shared helpers for the figure-reproduction binaries.
//
// Every bench prints: the paper artifact it regenerates, the measured
// series as a table, and a PASS/FAIL line per qualitative claim the paper
// makes about that artifact (the "shape" checks — who wins, scaling law,
// crossover). EXPERIMENTS.md embeds this output.
//
// Harness flags (parsed by init(), safe to omit):
//   --obs-json=<path>  finish() writes the process metric registry as an
//                      ObsSnapshot JSON there (plus <path>.trace.json with
//                      the span timeline when any spans were recorded).
//   --out-dir=<dir>    prefix for BENCH_*.json artifacts, so parallel
//                      invocations of the same bench never interleave
//                      writes into a shared working directory.
//   --seed=<n>         workload seed override for the benches that draw
//                      random streams (chaos schedules, cluster scaling),
//                      so a CI failure names a seed a dev box can replay.
//   --sim-threads[=N]  host threads for the cycle-simulation kernel in the
//                      hw benches (default 1 = serial kernel; bare flag
//                      means hardware_concurrency). Purely host-side: the
//                      simulated results are byte-identical across values.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>

#include "common/table.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hal::bench {

inline int g_failures = 0;
inline std::string g_obs_json_path;
inline std::string g_out_dir;
inline bool g_seed_set = false;
inline std::uint64_t g_seed = 0;
inline std::uint32_t g_sim_threads = 1;

// Process-wide registry benches record into (directly or by pointing
// core::MeasureOptions::registry at it).
inline obs::MetricRegistry& registry() {
  static obs::MetricRegistry r;
  return r;
}

inline void init(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    constexpr std::string_view kObsJson = "--obs-json=";
    constexpr std::string_view kOutDir = "--out-dir=";
    constexpr std::string_view kSeed = "--seed=";
    constexpr std::string_view kSimThreads = "--sim-threads";
    if (arg == kSimThreads) {
      const unsigned hw = std::thread::hardware_concurrency();
      g_sim_threads = hw > 0 ? hw : 1;
    } else if (arg.substr(0, kSimThreads.size() + 1) ==
               std::string(kSimThreads) + "=") {
      const std::string value(arg.substr(kSimThreads.size() + 1));
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(value.c_str(), &end, 10);
      if (end != nullptr && *end == '\0' && !value.empty() && parsed >= 1) {
        g_sim_threads = static_cast<std::uint32_t>(parsed);
      } else {
        std::fprintf(stderr, "warning: ignoring malformed --sim-threads=%s\n",
                     value.c_str());
      }
    } else if (arg.substr(0, kObsJson.size()) == kObsJson) {
      g_obs_json_path = std::string(arg.substr(kObsJson.size()));
    } else if (arg.substr(0, kSeed.size()) == kSeed) {
      const std::string value(arg.substr(kSeed.size()));
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
      if (end != nullptr && *end == '\0' && !value.empty()) {
        g_seed = parsed;
        g_seed_set = true;
      } else {
        std::fprintf(stderr, "warning: ignoring malformed --seed=%s\n",
                     value.c_str());
      }
    } else if (arg.substr(0, kOutDir.size()) == kOutDir) {
      std::filesystem::path dir{std::string(arg.substr(kOutDir.size()))};
      if (dir.is_relative()) {
        // The process may run with a redirected working directory (ctest
        // gives every test binary a private workdir); resolve relative
        // paths against the directory the user invoked from, which the
        // shell records in $PWD.
        const char* pwd = std::getenv("PWD");
        dir = (pwd != nullptr && pwd[0] != '\0'
                   ? std::filesystem::path(pwd)
                   : std::filesystem::current_path()) /
              dir;
      }
      g_out_dir = dir.lexically_normal().string();
      std::error_code ec;
      std::filesystem::create_directories(g_out_dir, ec);
      if (ec) {
        std::fprintf(stderr, "warning: cannot create --out-dir %s: %s\n",
                     g_out_dir.c_str(), ec.message().c_str());
      }
    }
  }
}

// Where to write an output artifact, honoring --out-dir.
inline std::string out_path(const std::string& filename) {
  return g_out_dir.empty() ? filename : g_out_dir + "/" + filename;
}

// Standard opening of every BENCH_*.json artifact: bench name, the
// workload seed the run actually used, the simulation-kernel thread count
// and the resolved artifact path — so a CI diff names the replay seed, the
// host execution mode and the exact file it compared.
inline void json_header(std::FILE* f, const char* bench_name,
                        std::uint64_t seed, const std::string& path) {
  std::string escaped;
  for (const char c : path) {
    if (c == '"' || c == '\\') escaped.push_back('\\');
    escaped.push_back(c);
  }
  std::fprintf(f,
               "{\n  \"bench\": \"%s\",\n  \"seed\": %llu,\n"
               "  \"sim_threads\": %u,\n  \"out_path\": \"%s\",\n",
               bench_name, static_cast<unsigned long long>(seed),
               static_cast<unsigned>(g_sim_threads), escaped.c_str());
}

// The --sim-threads override (1 when absent) for hw engine configs.
[[nodiscard]] inline std::uint32_t sim_threads() { return g_sim_threads; }

// The --seed override, or the bench's own default.
inline std::uint64_t seed_or(std::uint64_t fallback) {
  return g_seed_set ? g_seed : fallback;
}

inline void banner(const char* artifact, const char* description) {
  std::printf("\n==============================================================\n");
  std::printf("%s — %s\n", artifact, description);
  std::printf("==============================================================\n");
}

inline void claim(bool ok, const std::string& text) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", text.c_str());
  if (!ok) ++g_failures;
}

inline int finish() {
  if (!g_obs_json_path.empty()) {
    registry().set_counter("bench.claims_failed",
                           static_cast<std::uint64_t>(g_failures),
                           obs::Stability::kRuntime);
    const std::string json = obs::to_json(registry().snapshot("bench"));
    if (!obs::json_lint(json) || !obs::write_file(g_obs_json_path, json)) {
      std::printf("\nFAILED to write obs snapshot to %s\n",
                  g_obs_json_path.c_str());
      ++g_failures;
    } else {
      std::printf("\nwrote obs snapshot to %s\n", g_obs_json_path.c_str());
    }
    const auto events = obs::drain_trace_events();
    if (!events.empty()) {
      (void)obs::write_file(g_obs_json_path + ".trace.json",
                            obs::trace_to_json(events));
    }
  }
  if (g_failures > 0) {
    std::printf("\n%d claim check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall claim checks passed\n");
  return 0;
}

}  // namespace hal::bench
