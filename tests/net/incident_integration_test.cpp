// End-to-end black-box drill (the ISSUE acceptance scenario): wedge an
// rpc-shard worker on a blocked handler with more requests queued behind it,
// and assert the liveness watchdog produces an incident report within its
// detection window that names the stalled pool and carries the recent ops
// and transitions. Also covers the kIncident / kLogLevel RPC verbs against a
// full TieraServer.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "net/http_metrics.h"
#include "net/rpc.h"
#include "net/tiera_service.h"
#include "obs/flight_recorder.h"
#include "obs/incident.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "test_util.h"

namespace tiera {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Polls the incident dir until a (non-crash) report shows up or `deadline`
// passes; returns its contents (empty = timed out).
std::string wait_for_report(const Duration deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    const auto paths = IncidentHub::global().list();
    if (!paths.empty()) return slurp(paths.front());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return {};
}

TEST(IncidentIntegrationTest, ShardStallProducesReportNamingThePool) {
  testing::TempDir dir;
  IncidentConfig config;
  config.dir = dir.path();
  // One report is all the test wants; the default 30s gap also prevents a
  // second one mid-assertion.
  ASSERT_TRUE(IncidentHub::global().configure(std::move(config)).ok());

  // A reactor with one loop and one shard, so every data request lands on
  // the worker we are about to wedge.
  ReactorOptions options;
  options.loops = 1;
  options.shards = 1;
  ReactorServer server(0, options);

  std::mutex wedge_mu;
  std::condition_variable wedge_cv;
  bool wedged = true;
  server.register_handler(1, [&](ByteView body) -> Result<Bytes> {
    const std::string_view text(reinterpret_cast<const char*>(body.data()),
                                body.size());
    {
      TraceScope span;
      record_span(span, FlightOp::kPut, flight_tenant(), text, "",
                  StatusCode::kOk, std::chrono::microseconds(10));
    }
    if (text == "wedge") {
      // A labeled breadcrumb beside the span: the report names this request.
      FlightRecorder::global().record_transition("wedge-marker", 0, 1);
      std::unique_lock<std::mutex> lock(wedge_mu);
      wedge_cv.wait(lock, [&] { return !wedged; });
    }
    return Bytes{};
  });
  server.set_shard_key([](std::uint8_t, ByteView) -> std::uint64_t {
    return 0;  // everything on rpc-shard-0
  });

  Watchdog watchdog;
  server.attach_watchdog(&watchdog);
  ASSERT_TRUE(server.start().ok());

  // Wedge the shard, then queue more work behind the blocked handler so the
  // watchdog sees progress frozen WITH a non-empty queue.
  std::vector<std::thread> callers;
  callers.emplace_back([port = server.port()] {
    auto client = RpcClient::connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok());
    const std::string body = "wedge";
    (void)(*client)->call(1, as_view(body));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 0; i < 3; ++i) {
    callers.emplace_back([port = server.port(), i] {
      auto client = RpcClient::connect("127.0.0.1", port);
      ASSERT_TRUE(client.ok());
      const std::string body = "queued-" + std::to_string(i);
      (void)(*client)->call(1, as_view(body));
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // 50ms x 2 checks: detection inside ~150ms; the report must land well
  // within the polling deadline below.
  WatchdogOptions wd;
  wd.interval = std::chrono::milliseconds(50);
  wd.stall_checks = 2;
  watchdog.start(wd);

  const std::string report = wait_for_report(std::chrono::seconds(10));
  ASSERT_FALSE(report.empty()) << "no incident report within the deadline";

  // Names the stalled pool...
  EXPECT_NE(report.find("rpc-shard-0"), std::string::npos);
  EXPECT_NE(report.find("reason: watchdog-stall"), std::string::npos);
  // ...and carries the recent ops and the stall transition.
  EXPECT_NE(report.find("op put obj=wedge"), std::string::npos);
  EXPECT_NE(report.find("wedge-marker"), std::string::npos);
  EXPECT_NE(report.find("watchdog:rpc-shard-0"), std::string::npos);
  EXPECT_NE(report.find("end-incident"), std::string::npos);
  EXPECT_TRUE(watchdog.stalled("rpc-shard-0"));

  // Unblock; progress resumes and the episode re-arms.
  {
    std::lock_guard<std::mutex> lock(wedge_mu);
    wedged = false;
  }
  wedge_cv.notify_all();
  for (auto& t : callers) t.join();
  for (int i = 0; i < 100 && watchdog.stalled("rpc-shard-0"); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_FALSE(watchdog.stalled("rpc-shard-0"));
  watchdog.stop();
  server.stop();
}

TEST(IncidentIntegrationTest, IncidentAndLogLevelVerbsEndToEnd) {
  testing::TempDir dir;
  InstanceConfig config;
  config.name = "incident-e2e";
  config.data_dir = dir.sub("data");
  config.tiers.push_back(TierSpec("memcached", "tier1", 32ull << 20));
  auto instance = TieraInstance::create(std::move(config));
  ASSERT_TRUE(instance.ok());

  TieraServer server(**instance, 0, /*request_threads=*/2);
  ASSERT_TRUE(server.enable_incident_reporting(dir.sub("incidents")).ok());
  ASSERT_TRUE(server.start().ok());

  auto client = RemoteTieraClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Some traffic so the report's event timeline is non-trivial.
  for (int i = 0; i < 5; ++i) {
    const std::string id = "obj-" + std::to_string(i);
    ASSERT_TRUE((*client)->put(id, as_view(std::string_view("payload"))).ok());
    ASSERT_TRUE((*client)->get(id).ok());
  }

  auto path = (*client)->incident_trigger();
  ASSERT_TRUE(path.ok());
  EXPECT_NE(path->find("incident-"), std::string::npos);

  auto listing = (*client)->incident_list();
  ASSERT_TRUE(listing.ok());
  EXPECT_NE(listing->find(*path), std::string::npos);

  auto latest = (*client)->incident_latest();
  ASSERT_TRUE(latest.ok());
  EXPECT_NE(latest->find("tiera-incident v1"), std::string::npos);
  EXPECT_NE(latest->find("reason: rpc"), std::string::npos);
  EXPECT_NE(latest->find("== events =="), std::string::npos);
  EXPECT_NE(latest->find("== state =="), std::string::npos);
  EXPECT_NE(latest->find("end-incident"), std::string::npos);

  // Runtime log-level control round-trips and rejects garbage.
  EXPECT_TRUE((*client)->set_log_level("error").ok());
  EXPECT_EQ(log_level(), LogLevel::kError);
  EXPECT_FALSE((*client)->set_log_level("shouting").ok());
  EXPECT_TRUE((*client)->set_log_level("info").ok());
  EXPECT_EQ(log_level(), LogLevel::kInfo);

  server.stop();
}

TEST(IncidentIntegrationTest, MetricsEndpointServesPrometheus) {
  MetricsHttpServer http(0);
  ASSERT_TRUE(http.start().ok());
  ASSERT_NE(http.port(), 0);

  auto fetch = [port = http.port()](const std::string& request_line) {
    std::string response;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return response;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return response;
    }
    const std::string request = request_line + " HTTP/1.1\r\n\r\n";
    ::send(fd, request.data(), request.size(), 0);
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
  };

  const std::string metrics = fetch("GET /metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("tiera_"), std::string::npos);
  const std::string missing = fetch("GET /nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  EXPECT_GE(http.requests_served(), 2u);
  http.stop();
}

}  // namespace
}  // namespace tiera
