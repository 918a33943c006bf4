// abenc_serve: the always-on encoding service behind a socket.
//
// Listens on --endpoint (tcp:HOST:PORT or unix:PATH) and speaks the
// versioned wire protocol of docs/PROTOCOL.md: codec/palette negotiation
// at OPEN, per-session bounded queues whose Admission verdicts travel
// back as SUBMIT_ACK status codes (client-visible flow control), STATS
// on demand, and token-based ATTACH so a disconnected client resumes
// its sessions exactly-once.
//
// --fault-planner enables the soak/test hook that maps OPEN's
// fault_seed to the deterministic soak fault palette; without it any
// nonzero fault_seed is refused (production servers take no
// wire-specified faults).
//
// Runs until SIGINT/SIGTERM. Exit status: 0 clean shutdown, 2 bad
// usage or bind failure.
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "net/server.h"
#include "net/soak.h"

namespace {

using abenc::net::Server;
using abenc::net::ServerConfig;

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "abenc_serve: " << error << "\n"
            << "usage: abenc_serve [--endpoint tcp:HOST:PORT|unix:PATH]\n"
            << "  [--shards N] [--parallelism N] [--max-frame-bytes N]\n"
            << "  [--read-timeout-ms N] [--write-timeout-ms N]\n"
            << "  [--fault-planner] [--fault-length N]\n";
  std::exit(2);
}

bool TakeValue(int argc, char** argv, int& i, const std::string& flag,
               std::string& value) {
  const std::string arg = argv[i];
  if (arg == flag) {
    if (i + 1 >= argc) Usage(flag + " requires a value");
    value = argv[++i];
    return true;
  }
  if (arg.rfind(flag + "=", 0) == 0) {
    value = arg.substr(flag.size() + 1);
    return true;
  }
  return false;
}

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  ServerConfig config;
  bool fault_planner = false;
  std::size_t fault_length = 512;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    try {
      if (TakeValue(argc, argv, i, "--endpoint", value)) {
        config.endpoint = value;
      } else if (TakeValue(argc, argv, i, "--shards", value)) {
        config.service.shards = static_cast<unsigned>(std::stoul(value));
      } else if (TakeValue(argc, argv, i, "--parallelism", value)) {
        config.service.parallelism =
            static_cast<unsigned>(std::stoul(value));
      } else if (TakeValue(argc, argv, i, "--max-frame-bytes", value)) {
        config.max_frame_bytes = std::stoul(value);
      } else if (TakeValue(argc, argv, i, "--read-timeout-ms", value)) {
        config.read_timeout = std::chrono::milliseconds(std::stoll(value));
      } else if (TakeValue(argc, argv, i, "--write-timeout-ms", value)) {
        config.write_timeout = std::chrono::milliseconds(std::stoll(value));
      } else if (std::string(argv[i]) == "--fault-planner") {
        fault_planner = true;
      } else if (TakeValue(argc, argv, i, "--fault-length", value)) {
        fault_length = std::stoul(value);
      } else {
        Usage(std::string("unknown flag ") + argv[i]);
      }
    } catch (const std::invalid_argument&) {
      Usage(std::string("bad value for ") + argv[i]);
    } catch (const std::out_of_range&) {
      Usage(std::string("bad value for ") + argv[i]);
    }
  }
  if (fault_planner) {
    config.fault_planner = [fault_length](std::uint64_t seed) {
      return abenc::net::PlanSoakFault(seed, fault_length);
    };
  }

  Server server(std::move(config));
  try {
    server.Start();
  } catch (const std::exception& e) {
    std::cerr << "abenc_serve: " << e.what() << "\n";
    return 2;
  }
  std::cout << "abenc_serve: listening on " << server.endpoint()
            << std::endl;

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  const abenc::net::ServerStats stats = server.stats();
  server.Stop();
  std::cout << "abenc_serve: stopped ("
            << stats.connections_accepted << " connections, "
            << stats.frames_received << " frames in, "
            << stats.frames_sent << " frames out, "
            << stats.protocol_errors << " protocol errors)\n";
  return 0;
}
