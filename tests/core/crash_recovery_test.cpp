// Crash recovery of acknowledged PUTs: a forked child runs a synced
// MemcachedEBS instance and reports every acked PUT over a pipe; the parent
// SIGKILLs it at a seeded random moment, reopens the instance from the same
// directory and checks that nothing acked was lost.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <thread>

#include "core/templates.h"
#include "test_util.h"

namespace tiera {
namespace {

using testing::TempDir;
using testing::ZeroLatencyScope;

// Op i overwrites one of kKeys keys round-robin with bytes derived from i,
// so a read-back names the op that wrote it.
constexpr std::uint64_t kKeys = 16;

std::string key_of(std::uint64_t op) {
  return "k" + std::to_string(op % kKeys);
}

Bytes payload_of(std::uint64_t op) {
  return make_payload(512 + op % 7 * 100, op + 1);
}

TemplateOptions synced_options(const std::string& dir) {
  TemplateOptions opts;
  opts.data_dir = dir;
  opts.persist_metadata = true;
  opts.journal_sync = true;
  opts.response_threads = 2;
  return opts;
}

// Child side: PUT forever, reporting each acked op index. Never returns.
[[noreturn]] void run_writer(const std::string& dir, int ack_fd) {
  auto instance = make_memcached_ebs_instance(synced_options(dir), 8 << 20,
                                              8 << 20);
  if (!instance.ok()) ::_exit(2);
  for (std::uint64_t op = 0;; ++op) {
    const Bytes payload = payload_of(op);
    if (!(*instance)->put(key_of(op), as_view(payload)).ok()) ::_exit(3);
    if (::write(ack_fd, &op, sizeof(op)) != sizeof(op)) ::_exit(4);
  }
}

bool read_op(int fd, std::uint64_t* op) {
  std::size_t got = 0;
  auto* out = reinterpret_cast<char*>(op);
  while (got < sizeof(*op)) {
    const ssize_t n = ::read(fd, out + got, sizeof(*op) - got);
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

class CrashRecoveryTest : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  ZeroLatencyScope zero_latency_;
  TempDir dir_;
};

TEST_P(CrashRecoveryTest, AckedPutsSurviveSigkill) {
  const std::string data_dir = dir_.sub("mebs");
  std::mt19937 rng(GetParam());
  const auto kill_after = std::chrono::microseconds(
      std::uniform_int_distribution<int>(0, 50000)(rng));

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(fds[0]);
    run_writer(data_dir, fds[1]);
  }
  ::close(fds[1]);

  // Last acked op per key, and the highest acked op overall.
  std::map<std::string, std::uint64_t> acked;
  std::uint64_t last = 0;
  std::uint64_t op = 0;
  // Wait for the first ack, so the kill lands among PUTs, not in startup.
  ASSERT_TRUE(read_op(fds[0], &op)) << "writer died before its first ack";
  acked[key_of(op)] = last = op;
  std::this_thread::sleep_for(kill_after);
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "writer exited on its own: "
                                    << WEXITSTATUS(wstatus);
  while (read_op(fds[0], &op)) acked[key_of(op)] = last = op;
  ::close(fds[0]);

  auto reopened = make_memcached_ebs_instance(synced_options(data_dir),
                                              8 << 20, 8 << 20);
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  TieraInstance& instance = **reopened;
  for (const auto& [key, acked_op] : acked) {
    SCOPED_TRACE("key " + key + ", last acked op " + std::to_string(acked_op) +
                 " of " + std::to_string(last));
    auto got = instance.get(key);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    // The acked bytes, or those of a later PUT the kill caught: the writer
    // reports op i before it starts op i + 1, so past the last report only
    // op last + 1 (done, unreported) and op last + 2 (in flight) can exist.
    bool matches = *got == payload_of(acked_op);
    for (std::uint64_t later = last + 1; later <= last + 2; ++later) {
      matches = matches || (key_of(later) == key && *got == payload_of(later));
    }
    EXPECT_TRUE(matches) << "read back bytes of no acked or in-flight PUT";

    const auto meta = instance.stat(key);
    ASSERT_TRUE(meta.ok());
    // Write-through: every acked PUT reached EBS and cleared dirty.
    EXPECT_TRUE(meta->in_tier("tier2"));
    EXPECT_FALSE(meta->dirty);
    // Every durable location really holds the object. (The Memcached tier
    // is volatile and restarts empty; reads fall through past it.)
    for (const auto& label : meta->locations) {
      const TierPtr tier = instance.tier(label);
      ASSERT_NE(tier, nullptr) << label;
      if (tier->durable()) {
        EXPECT_TRUE(tier->contains(meta->storage_key())) << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryTest,
                         ::testing::Range(1u, 13u));

}  // namespace
}  // namespace tiera
