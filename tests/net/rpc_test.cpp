// Wire format, framing, RPC dispatch, and the remote Tiera service.
#include "net/rpc.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "net/tiera_service.h"
#include "test_util.h"

namespace tiera {
namespace {

using testing::TempDir;
using testing::ZeroLatencyScope;

TEST(WireTest, RoundTripAllTypes) {
  WireWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.str("hello");
  w.bytes(as_view(std::string_view("raw\0data", 8)));

  WireReader r(as_view(w.data()));
  std::uint8_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
  std::string s;
  Bytes raw;
  ASSERT_TRUE(r.u8(a).ok());
  ASSERT_TRUE(r.u32(b).ok());
  ASSERT_TRUE(r.u64(c).ok());
  ASSERT_TRUE(r.str(s).ok());
  ASSERT_TRUE(r.bytes(raw).ok());
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFull);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(raw.size(), 8u);
  EXPECT_TRUE(r.at_end());
}

TEST(WireTest, TruncationDetected) {
  WireWriter w;
  w.str("truncate me");
  const Bytes& data = w.data();
  for (std::size_t cut = 0; cut < data.size(); ++cut) {
    WireReader r(ByteView(data.data(), cut));
    std::string s;
    EXPECT_FALSE(r.str(s).ok()) << cut;
  }
}

TEST(TcpTest, FramedEcho) {
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = (*listener)->port();
  ASSERT_GT(port, 0);

  std::thread server([&] {
    auto conn = (*listener)->accept();
    ASSERT_TRUE(conn.ok());
    for (;;) {
      auto frame = (*conn)->recv_frame();
      if (!frame.ok()) return;
      ASSERT_TRUE((*conn)->send_frame(as_view(*frame)).ok());
    }
  });

  auto client = TcpConnection::connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  for (std::size_t size : {0u, 1u, 100u, 100'000u}) {
    const Bytes payload = make_payload(size, size);
    ASSERT_TRUE((*client)->send_frame(as_view(payload)).ok());
    auto echo = (*client)->recv_frame();
    ASSERT_TRUE(echo.ok());
    EXPECT_EQ(*echo, payload);
  }
  (*client)->close();
  server.join();
}

TEST(TcpTest, ConnectToClosedPortFails) {
  // Grab an ephemeral port then release it: connecting should fail fast.
  std::uint16_t dead_port;
  {
    auto listener = TcpListener::listen(0);
    ASSERT_TRUE(listener.ok());
    dead_port = (*listener)->port();
  }
  auto client = TcpConnection::connect("127.0.0.1", dead_port);
  EXPECT_FALSE(client.ok());
  EXPECT_TRUE(client.status().is_unavailable());
}

TEST(RpcTest, DispatchAndErrors) {
  ReactorServer server(0, ReactorOptions{.shards = 4});
  server.register_handler(1, [](ByteView body) -> Result<Bytes> {
    Bytes out(body.begin(), body.end());
    std::reverse(out.begin(), out.end());
    return out;
  });
  server.register_handler(2, [](ByteView) -> Result<Bytes> {
    return Status::NotFound("nothing here");
  });
  ASSERT_TRUE(server.start().ok());

  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  auto reversed = (*client)->call(1, as_view(std::string_view("abc")));
  ASSERT_TRUE(reversed.ok());
  EXPECT_EQ(to_string(as_view(*reversed)), "cba");

  auto missing = (*client)->call(2, {});
  EXPECT_TRUE(missing.status().is_not_found());
  EXPECT_EQ(missing.status().message(), "nothing here");

  auto unknown = (*client)->call(99, {});
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);

  EXPECT_GE(server.requests_served(), 3u);
  server.stop();
}

TEST(RpcTest, ConcurrentClients) {
  ReactorServer server(0, ReactorOptions{.shards = 8});
  server.register_handler(1, [](ByteView body) -> Result<Bytes> {
    return Bytes(body.begin(), body.end());
  });
  ASSERT_TRUE(server.start().ok());

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      auto client = RpcClient::connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < 50; ++i) {
        const Bytes payload = make_payload(512, c * 100 + i);
        auto reply = (*client)->call(1, as_view(payload));
        if (!reply.ok() || *reply != payload) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.requests_served(), 400u);
  server.stop();
}

TEST(RpcTest, DisconnectsAreReapedWithoutNewConnects) {
  ReactorServer server(0, ReactorOptions{.shards = 2});
  server.register_handler(1, [](ByteView body) -> Result<Bytes> {
    return Bytes(body.begin(), body.end());
  });
  ASSERT_TRUE(server.start().ok());

  {
    std::vector<std::unique_ptr<RpcClient>> clients;
    for (int i = 0; i < 16; ++i) {
      auto client = RpcClient::connect("127.0.0.1", server.port());
      ASSERT_TRUE(client.ok());
      // A completed round trip proves the loop adopted the connection.
      ASSERT_TRUE((*client)->call(1, {}).ok());
      clients.push_back(std::move(*client));
    }
    EXPECT_EQ(server.tracked_connections(), 16u);
  }
  // Every client is gone. EOF reaps each connection directly on its event
  // loop — the count must reach zero with NO further connections arriving
  // (the old accept-thread design only reaped on the next accept()).
  std::size_t tracked = server.tracked_connections();
  for (int attempt = 0; attempt < 500 && tracked != 0; ++attempt) {
    std::this_thread::sleep_for(from_ms(5));
    tracked = server.tracked_connections();
  }
  EXPECT_EQ(tracked, 0u);
  server.stop();
}

class TieraServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    InstanceConfig config;
    config.data_dir = dir_.sub("inst");
    config.tiers = {{"Memcached", "tier1", 8 << 20},
                    {"EBS", "tier2", 8 << 20}};
    auto instance = TieraInstance::create(std::move(config));
    ASSERT_TRUE(instance.ok());
    instance_ = std::move(instance).value();
    server_ = std::make_unique<TieraServer>(*instance_, 0);
    ASSERT_TRUE(server_->start().ok());
    auto client = RemoteTieraClient::connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    client_ = std::move(client).value();
  }

  void TearDown() override { server_->stop(); }

  ZeroLatencyScope zero_latency_;
  TempDir dir_;
  InstancePtr instance_;
  std::unique_ptr<TieraServer> server_;
  std::unique_ptr<RemoteTieraClient> client_;
};

TEST_F(TieraServiceTest, PutGetRemoveOverRpc) {
  const Bytes payload = make_payload(4096, 3);
  ASSERT_TRUE(client_->put("remote-obj", as_view(payload), {"tag1"}).ok());
  auto got = client_->get("remote-obj");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, payload);
  ASSERT_TRUE(client_->remove("remote-obj").ok());
  EXPECT_TRUE(client_->get("remote-obj").status().is_not_found());
}

TEST_F(TieraServiceTest, StatReflectsServerState) {
  ASSERT_TRUE(client_->put("obj", as_view(make_payload(100, 1)), {"x"}).ok());
  ASSERT_TRUE(client_->add_tags("obj", {"y"}).ok());
  auto info = client_->stat("obj");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->id, "obj");
  EXPECT_EQ(info->size, 100u);
  ASSERT_EQ(info->locations.size(), 1u);
  EXPECT_EQ(info->locations[0], "tier1");
  EXPECT_EQ(info->tags.size(), 2u);
  EXPECT_TRUE(client_->stat("missing").status().is_not_found());
}

TEST_F(TieraServiceTest, ListTiersAndGrow) {
  auto tiers = client_->list_tiers();
  ASSERT_TRUE(tiers.ok());
  EXPECT_EQ(tiers->size(), 2u);
  ASSERT_TRUE(client_->grow_tier("tier1", 50.0).ok());
  EXPECT_EQ(instance_->tier("tier1")->capacity(), 12u << 20);
  EXPECT_FALSE(client_->grow_tier("tier9", 10.0).ok());
}

TEST_F(TieraServiceTest, SloTableRoundTripsOverRpc) {
  // No objectives declared: the verb answers an empty table, not an error.
  auto empty = client_->slo();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  SloSpec spec;
  spec.name = "tier1.get_p99";
  spec.tier = "tier1";
  spec.target_ms = 2.5;
  spec.window = std::chrono::seconds(30);
  ASSERT_TRUE(instance_->add_slo(spec).ok());

  // Generate some traffic so current/samples are non-trivial, then force an
  // evaluation so violated/violations reflect the window.
  ASSERT_TRUE(client_->put("slo-obj", as_view(make_payload(256, 1))).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(client_->get("slo-obj").ok());
  instance_->slo().evaluate();

  auto rows = client_->slo();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  const RemoteSloRow& row = (*rows)[0];
  EXPECT_EQ(row.name, "tier1.get_p99");
  EXPECT_EQ(row.tier, "tier1");
  EXPECT_EQ(row.signal, "get_p99");
  EXPECT_TRUE(row.is_latency);
  // Doubles cross the wire as micro-units; 2.5 survives exactly.
  EXPECT_DOUBLE_EQ(row.target, 2.5);
  EXPECT_DOUBLE_EQ(row.window_s, 30.0);
  EXPECT_EQ(row.samples, 10u);
  // Under ZeroLatencyScope every GET is far below 2.5 ms.
  EXPECT_FALSE(row.violated);
  EXPECT_EQ(row.violations, 0u);
  EXPECT_LT(row.current, 2.5);

  const auto server_rows = instance_->slo().status();
  ASSERT_EQ(server_rows.size(), 1u);
  EXPECT_NEAR(row.current, server_rows[0].current, 1e-3);
  EXPECT_NEAR(row.burn_short, server_rows[0].burn_short, 1e-3);
}

TEST_F(TieraServiceTest, ErrorsPropagateThroughRpc) {
  instance_->tier("tier1")->inject_failure(FailureMode::kFailStop);
  const Status s = client_->put("x", as_view(make_payload(10, 1)));
  EXPECT_FALSE(s.ok());
  instance_->tier("tier1")->heal();
}

TEST_F(TieraServiceTest, ProfileRoundTripNamesServerFrames) {
  // Drive traffic from a second thread while the kProfile capture blocks the
  // calling client connection, so the sampler has live op frames to see.
  std::atomic<bool> stop{false};
  std::thread load([&] {
    auto client = RemoteTieraClient::connect("127.0.0.1", server_->port());
    if (!client.ok()) return;
    const Bytes payload = make_payload(1024, 9);
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string key = "prof" + std::to_string(i++ % 32);
      (void)(*client)->put(key, as_view(payload));
      (void)(*client)->get(key);
    }
  });

  auto folded = client_->profile(/*duration_ms=*/300, /*interval_us=*/200);
  stop.store(true, std::memory_order_relaxed);
  load.join();

  ASSERT_TRUE(folded.ok());
  EXPECT_FALSE(folded->empty());
  // The shard worker threads carry the op frames pushed by the handlers.
  EXPECT_NE(folded->find("rpc-shard"), std::string::npos) << *folded;
  EXPECT_NE(folded->find("put"), std::string::npos) << *folded;
  // Every line is "stack count".
  EXPECT_NE(folded->find(' '), std::string::npos);

  // Invalid durations are rejected server-side, not crashed on.
  EXPECT_FALSE(client_->profile(/*duration_ms=*/0).ok());
}

TEST_F(TieraServiceTest, HeatReportRoundTripsOverRpc) {
  // Traffic: one hot key, a handful of cold ones, all served from tier1.
  const Bytes payload = make_payload(2048, 7);
  ASSERT_TRUE(client_->put("hot-obj", as_view(payload)).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        client_->put("cold-" + std::to_string(i), as_view(payload)).ok());
  }
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(client_->get("hot-obj").ok());
  // Advance modelled time so the cost meter has accrued something — half a
  // half-life, so heat estimates are not decayed mid-assertion.
  instance_->tick_observability(std::chrono::seconds(30));

  auto report = client_->heat(/*top_n=*/5);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report->enabled);
  EXPECT_DOUBLE_EQ(report->half_life_s, 60.0);  // config default
  EXPECT_GT(report->memory_bytes, 0u);

  ASSERT_EQ(report->tiers.size(), 1u);  // only tier1 saw traffic
  const RemoteTierHeat& tier = report->tiers[0];
  EXPECT_EQ(tier.tier, "tier1");
  ASSERT_FALSE(tier.top.empty());
  EXPECT_LE(tier.top.size(), 5u);  // top_n honored
  EXPECT_EQ(tier.top[0].key, "hot-obj");
  EXPECT_GE(tier.top[0].estimate, 41u);  // 40 GETs + 1 PUT, never undercounts
  EXPECT_GT(tier.top[0].rate_per_s, 0.0);
  EXPECT_EQ(tier.histogram.size(),
            static_cast<std::size_t>(CountMinSketch::kHistogramBuckets));
  EXPECT_GE(tier.records, 46u);
  EXPECT_GT(tier.bytes, 0u);

  // Cost section mirrors the server-side snapshot. Byte totals compare
  // against the server's own view, not absolute values — the per-tier byte
  // counters are global registry series shared across the tests in this
  // binary.
  const auto server_cost = instance_->cost_meter()->snapshot();
  EXPECT_NEAR(report->total_dollars, server_cost.total_dollars, 1e-6);
  EXPECT_GE(report->modelled_seconds, 30.0);
  ASSERT_EQ(report->tier_costs.size(), 2u);
  std::uint64_t read_bytes = 0;
  std::uint64_t server_read_bytes = 0;
  for (const auto& cost : report->tier_costs) read_bytes += cost.read_bytes;
  for (const auto& tier : server_cost.tiers) {
    server_read_bytes += tier.client_read_bytes;
  }
  EXPECT_EQ(read_bytes, server_read_bytes);
  EXPECT_GE(read_bytes, 40u * 2048u);
  // Default placement runs with no rule context: everything lands on the
  // "unattributed" rule-0 account.
  ASSERT_FALSE(report->rule_costs.empty());
  EXPECT_EQ(report->rule_costs[0].rule_id, 0u);
  EXPECT_EQ(report->rule_costs[0].name, "unattributed");
  EXPECT_EQ(report->rule_costs[0].bytes, 6u * 2048u);
}

TEST_F(TieraServiceTest, StatsTopSectionsFilter) {
  ASSERT_TRUE(client_->put("obj", as_view(make_payload(128, 1))).ok());
  // Full top view includes every table.
  auto full = client_->stats("top");
  ASSERT_TRUE(full.ok());
  EXPECT_NE(full->find("TIER"), std::string::npos);
  EXPECT_NE(full->find("HEAT"), std::string::npos);
  EXPECT_NE(full->find("COST"), std::string::npos);
  // A sections filter renders only the named tables.
  auto filtered = client_->stats("top:heat,cost");
  ASSERT_TRUE(filtered.ok());
  EXPECT_NE(filtered->find("HEAT"), std::string::npos);
  EXPECT_NE(filtered->find("COST"), std::string::npos);
  EXPECT_EQ(filtered->find("instance "), std::string::npos);  // header gone
  auto slo_only = client_->stats("top:slo");
  ASSERT_TRUE(slo_only.ok());
  EXPECT_EQ(slo_only->find("HEAT"), std::string::npos);
}

}  // namespace
}  // namespace tiera
