#include "obs/flight_recorder.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/clock.h"
#include "common/profile_stack.h"

namespace tiera {

namespace {

// Slot payload as relaxed atomic words so the seqlock read side is clean
// under TSan: 15 data words (120 bytes) + the stamp word = 128 bytes/slot.
constexpr int kPayloadWords = 15;
constexpr std::size_t kPayloadBytes = kPayloadWords * 8;
static_assert(offsetof(FlightEvent, thread) == kPayloadBytes,
              "a flight event's stored fields must fill the payload words");
static_assert(kPayloadBytes + 8 == FlightRecorder::kSlotBytes,
              "payload words + stamp make one slot");

std::size_t env_capacity() {
  std::size_t capacity = 512;
  if (const char* env = std::getenv("TIERA_FLIGHT_CAPACITY")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end && *end == '\0') capacity = static_cast<std::size_t>(v);
  }
  if (capacity == 0) return 0;
  // Round up to a power of two so the ring index is a mask.
  std::size_t pow2 = 1;
  while (pow2 < capacity && pow2 < (1u << 20)) pow2 <<= 1;
  return pow2;
}

std::int64_t steady_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             now().time_since_epoch())
      .count();
}

thread_local char t_flight_tenant[24] = {};

// --- async-signal-safe formatting helpers --------------------------------

// Appends unsigned decimal to buf, returns new length. No libc calls.
std::size_t put_u64(char* buf, std::size_t len, std::uint64_t v) {
  char tmp[20];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) buf[len++] = tmp[--n];
  return len;
}

std::size_t put_str(char* buf, std::size_t len, const char* s) {
  while (*s != '\0') buf[len++] = *s++;
  return len;
}

void write_all(int fd, const char* buf, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, buf + off, len - off);
    if (n <= 0) return;  // nothing recoverable inside a signal handler
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

void set_flight_tenant(std::string_view tenant) {
  // copy(), not memcpy: an empty view may carry a null data pointer.
  const std::size_t n =
      tenant.copy(t_flight_tenant, sizeof(t_flight_tenant) - 1);
  t_flight_tenant[n] = '\0';
}

std::string_view flight_tenant() {
  return std::string_view(t_flight_tenant);
}

std::string_view to_string(FlightOp op) {
  switch (op) {
    case FlightOp::kPut: return "PUT";
    case FlightOp::kGet: return "GET";
    case FlightOp::kDelete: return "DELETE";
    case FlightOp::kEvent: return "EVENT";
    case FlightOp::kResponse: return "RESPONSE";
    case FlightOp::kRetry: return "RETRY";
    case FlightOp::kHedge: return "HEDGE";
  }
  return "?";
}

std::string_view FlightEvent::name() const {
  if (is_request()) return to_string(op);
  return std::string_view(label, strnlen(label, sizeof(label)));
}

// One thread's ring. The owner thread is the only writer; readers (render,
// watchdog, signal handler) go through the per-slot stamp seqlock.
struct FlightRecorder::ThreadRing {
  explicit ThreadRing(std::size_t capacity)
      : capacity(capacity),
        mask(capacity - 1),
        stamps(new std::atomic<std::uint64_t>[capacity]),
        words(new std::atomic<std::uint64_t>[capacity * kPayloadWords]) {
    for (std::size_t i = 0; i < capacity; ++i) {
      stamps[i].store(0, std::memory_order_relaxed);
    }
  }

  void record(const FlightEvent& ev) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    const std::size_t slot = h & mask;
    std::uint64_t image[kPayloadWords];
    std::memcpy(image, &ev, kPayloadBytes);
    // Seqlock write: invalidate, fill, publish with the (nonzero) sequence.
    stamps[slot].store(0, std::memory_order_release);
    for (int w = 0; w < kPayloadWords; ++w) {
      words[slot * kPayloadWords + w].store(image[w],
                                            std::memory_order_relaxed);
    }
    stamps[slot].store(h + 1, std::memory_order_release);
    head.store(h + 1, std::memory_order_release);
  }

  // Copies slot `index` (absolute sequence) into `out`'s stored fields;
  // false on a torn or overwritten slot.
  bool read(std::uint64_t index, FlightEvent* out) const {
    const std::size_t slot = index & mask;
    const std::uint64_t before = stamps[slot].load(std::memory_order_acquire);
    if (before != index + 1) return false;
    std::uint64_t image[kPayloadWords];
    for (int w = 0; w < kPayloadWords; ++w) {
      image[w] = words[slot * kPayloadWords + w].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (stamps[slot].load(std::memory_order_acquire) != index + 1) return false;
    std::memcpy(static_cast<void*>(out), image, kPayloadBytes);
    return true;
  }

  // A thread claiming a ring its previous owner left: drop that owner's
  // events and name, so nothing reads as the new thread's.
  void reset_for_new_owner() {
    for (std::size_t i = 0; i < capacity; ++i) {
      stamps[i].store(0, std::memory_order_relaxed);
    }
    for (auto& c : name) c.store('\0', std::memory_order_relaxed);
    named = false;
  }

  // Owner thread stamps its name into the ring once (atomic chars so the
  // dump path can read concurrently).
  void maybe_name() {
    if (named) return;
    const char* n = this_thread_profile_stack().name();
    if (n == nullptr) return;
    for (std::size_t i = 0; i < sizeof_name - 1 && n[i] != '\0'; ++i) {
      name[i].store(n[i], std::memory_order_relaxed);
    }
    named = true;
  }

  void read_name(char* out, std::size_t out_size) const {
    std::size_t i = 0;
    for (; i < sizeof_name - 1 && i < out_size - 1; ++i) {
      const char c = name[i].load(std::memory_order_relaxed);
      if (c == '\0') break;
      out[i] = c;
    }
    out[i] = '\0';
  }

  const std::size_t capacity;
  const std::uint64_t mask;
  std::atomic<std::uint64_t> head{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> stamps;
  std::unique_ptr<std::atomic<std::uint64_t>[]> words;
  static constexpr std::size_t sizeof_name = 32;
  std::atomic<char> name[sizeof_name] = {};
  // Held by a live thread; its exit clears it and hands the ring back.
  std::atomic<bool> in_use{true};
  bool named = false;  // owner-thread only
};

namespace {

// Set when the thread's ring lease has run its destructor. Trivially
// destructible, so records from later thread-exit code can still read it.
thread_local bool t_ring_released = false;

// Hands the thread's ring back when the thread exits.
struct RingLease {
  std::atomic<bool>* in_use = nullptr;
  ~RingLease() {
    t_ring_released = true;
    if (in_use != nullptr) in_use->store(false, std::memory_order_release);
  }
};

}  // namespace

FlightRecorder::FlightRecorder() : capacity_(env_capacity()) {}

FlightRecorder& FlightRecorder::global() {
  // Leaked on purpose: rings must stay readable from the fatal-signal
  // handler no matter when the process dies.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::ThreadRing* FlightRecorder::claim_free_ring() {
  const std::size_t rings =
      std::min(ring_count_.load(std::memory_order_acquire), kMaxThreads);
  for (std::size_t r = 0; r < rings; ++r) {
    ThreadRing* ring = rings_[r].load(std::memory_order_acquire);
    if (ring == nullptr || ring->in_use.load(std::memory_order_relaxed)) {
      continue;
    }
    bool free = false;
    if (ring->in_use.compare_exchange_strong(free, true,
                                             std::memory_order_acquire)) {
      ring->reset_for_new_owner();
      return ring;
    }
  }
  return nullptr;
}

FlightRecorder::ThreadRing* FlightRecorder::ring_for_this_thread() {
  thread_local ThreadRing* t_ring = nullptr;
  thread_local bool t_tried = false;
  // After the lease ran, the ring may belong to another thread: drop.
  if (t_ring != nullptr) return t_ring_released ? nullptr : t_ring;
  if (t_tried) return nullptr;  // over the thread cap: drop, don't retry
  t_tried = true;
  ThreadRing* ring = claim_free_ring();
  if (ring == nullptr) {
    const std::size_t index =
        ring_count_.fetch_add(1, std::memory_order_relaxed);
    if (index >= kMaxThreads) return nullptr;
    ring = new ThreadRing(capacity_);  // never freed (see header)
    rings_[index].store(ring, std::memory_order_release);
  }
  // Constructed here, off the fast path: only a thread that holds a ring
  // registers the exit hook that hands it back.
  thread_local RingLease t_lease;
  t_lease.in_use = &ring->in_use;
  t_ring = ring;
  return ring;
}

std::size_t FlightRecorder::memory_used_bytes() const {
  const std::size_t rings =
      std::min(ring_count_.load(std::memory_order_relaxed), kMaxThreads);
  return rings * capacity_ * kSlotBytes;
}

void FlightRecorder::record(const FlightEvent& ev) {
  if (!recording()) return;
  ThreadRing* ring = ring_for_this_thread();
  if (ring == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ring->maybe_name();
  ring->record(ev);
}

void FlightRecorder::record_transition(std::string_view component,
                                       std::uint64_t from, std::uint64_t to) {
  FlightEvent ev;
  ev.t_us = steady_us();
  ev.a = from;
  ev.b = to;
  ev.kind = FlightKind::kTransition;
  copy_flight_text(ev.label, component);
  record(ev);
}

void FlightRecorder::record_metric(std::string_view name, std::uint64_t prev,
                                   std::uint64_t now_value) {
  FlightEvent ev;
  ev.t_us = steady_us();
  ev.a = prev;
  ev.b = now_value;
  ev.kind = FlightKind::kMetric;
  copy_flight_text(ev.label, name);
  record(ev);
}

std::vector<FlightEvent> FlightRecorder::merged(std::size_t max_events) const {
  std::vector<FlightEvent> out;
  const std::size_t rings =
      std::min(ring_count_.load(std::memory_order_acquire), kMaxThreads);
  for (std::size_t r = 0; r < rings; ++r) {
    const ThreadRing* ring = rings_[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    char thread_name[32];
    ring->read_name(thread_name, sizeof(thread_name));
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t first =
        head > ring->capacity ? head - ring->capacity : 0;
    for (std::uint64_t i = first; i < head; ++i) {
      FlightEvent ev;
      if (!ring->read(i, &ev)) continue;
      if (thread_name[0] != '\0') {
        std::snprintf(ev.thread, sizeof(ev.thread), "%s", thread_name);
      } else {
        std::snprintf(ev.thread, sizeof(ev.thread), "t%zu", r);
      }
      out.push_back(ev);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     return x.t_us < y.t_us;
                   });
  if (max_events != 0 && out.size() > max_events) {
    out.erase(out.begin(),
              out.begin() + static_cast<long>(out.size() - max_events));
  }
  return out;
}

std::string render_flight_event(const FlightEvent& ev) {
  char line[320];
  const double t_s = static_cast<double>(ev.t_us) / 1e6;
  switch (ev.kind) {
    case FlightKind::kSpan: {
      char verb[16];
      std::size_t n = 0;
      for (const char c : to_string(ev.op)) {
        if (n + 1 < sizeof(verb)) verb[n++] = static_cast<char>(std::tolower(c));
      }
      verb[n] = '\0';
      const std::string_view status = to_string(ev.code());
      std::snprintf(line, sizeof(line),
                    "%14.6f [%s] op %s obj=%s tier=%s %s=%s status=%.*s "
                    "lat_us=%llu stages=0x%02x trace=%llu span=%llu "
                    "parent=%llu",
                    t_s, ev.thread, verb, ev.object[0] ? ev.object : "-",
                    ev.tier[0] ? ev.tier : "-",
                    ev.is_request() ? "tenant" : "name",
                    ev.label[0] != '\0' ? ev.label : "-",
                    static_cast<int>(status.size()), status.data(),
                    static_cast<unsigned long long>(ev.b / 1000), ev.digest,
                    static_cast<unsigned long long>(ev.trace_id),
                    static_cast<unsigned long long>(ev.span_id),
                    static_cast<unsigned long long>(ev.parent_span_id));
      break;
    }
    case FlightKind::kTransition:
      std::snprintf(line, sizeof(line),
                    "%14.6f [%s] transition %s %llu -> %llu", t_s, ev.thread,
                    ev.label, static_cast<unsigned long long>(ev.a),
                    static_cast<unsigned long long>(ev.b));
      break;
    case FlightKind::kMetric:
      std::snprintf(line, sizeof(line),
                    "%14.6f [%s] metric %s +%llu = %llu", t_s, ev.thread,
                    ev.label,
                    static_cast<unsigned long long>(ev.b - ev.a),
                    static_cast<unsigned long long>(ev.b));
      break;
  }
  return line;
}

std::string FlightRecorder::render(std::size_t max_events) const {
  std::string out;
  for (const FlightEvent& ev : merged(max_events)) {
    out += render_flight_event(ev);
    out += '\n';
  }
  return out;
}

void FlightRecorder::dump_signal_safe(int fd) const {
  const std::size_t rings =
      std::min(ring_count_.load(std::memory_order_relaxed), kMaxThreads);
  char buf[320];
  for (std::size_t r = 0; r < rings; ++r) {
    const ThreadRing* ring = rings_[r].load(std::memory_order_relaxed);
    if (ring == nullptr) continue;
    char thread_name[32];
    ring->read_name(thread_name, sizeof(thread_name));
    const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
    const std::uint64_t first =
        head > ring->capacity ? head - ring->capacity : 0;
    for (std::uint64_t i = first; i < head; ++i) {
      FlightEvent ev;
      if (!ring->read(i, &ev)) continue;
      ev.label[sizeof(ev.label) - 1] = '\0';
      ev.object[sizeof(ev.object) - 1] = '\0';
      std::size_t len = 0;
      len = put_str(buf, len, "t_us=");
      len = put_u64(buf, len, static_cast<std::uint64_t>(ev.t_us));
      len = put_str(buf, len, " thread=");
      len = put_str(buf, len, thread_name[0] != '\0' ? thread_name : "?");
      switch (ev.kind) {
        case FlightKind::kSpan:
          len = put_str(buf, len, " op verb=");
          len = put_u64(buf, len, static_cast<std::uint64_t>(ev.op));
          len = put_str(buf, len, " status=");
          len = put_u64(buf, len, ev.status);
          len = put_str(buf, len, " lat_us=");
          len = put_u64(buf, len, ev.b / 1000);
          len = put_str(buf, len, " trace=");
          len = put_u64(buf, len, ev.trace_id);
          len = put_str(buf, len, " span=");
          len = put_u64(buf, len, ev.span_id);
          len = put_str(buf, len, " parent=");
          len = put_u64(buf, len, ev.parent_span_id);
          len = put_str(buf, len, " obj=");
          len = put_str(buf, len, ev.object);
          len = put_str(buf, len, " label=");
          len = put_str(buf, len, ev.label);
          break;
        case FlightKind::kTransition:
          len = put_str(buf, len, " transition ");
          len = put_str(buf, len, ev.label);
          len = put_str(buf, len, " from=");
          len = put_u64(buf, len, ev.a);
          len = put_str(buf, len, " to=");
          len = put_u64(buf, len, ev.b);
          break;
        case FlightKind::kMetric:
          len = put_str(buf, len, " metric ");
          len = put_str(buf, len, ev.label);
          len = put_str(buf, len, " now=");
          len = put_u64(buf, len, ev.b);
          break;
      }
      buf[len++] = '\n';
      write_all(fd, buf, len);
    }
  }
}

}  // namespace tiera
