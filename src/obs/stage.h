// Hot-path cost attribution: per-stage latency breakdown for every
// application operation.
//
// The bench floor says an instance PUT burns ~87µs while a bare tier PUT is
// ~360ns — but until this subsystem nothing in the repo could measure where
// the other 86µs go. StageClock splits each PUT/GET/DELETE (and each
// background response) into named stages — `rpc.decode`, `policy.eval`,
// `metadata.lookup`, `journal.append`, `tier.io`, `response.build` — and
// aggregates them into per-(op, stage) latency histograms exposed as
// `tiera_op_stage_latency_ms{op,stage}`. Two derived series make the
// numbers self-checking:
//   * stage="other"  — whole-op time not covered by any named stage
//     (instrumentation gaps; should stay small), and
//   * stage="total"  — the whole-op span, recorded from the same sampled
//     ops, so Σ(named stages + other) ≈ total by construction and
//     Σ(named stages) / total is the attribution coverage.
//
// Accounting model: stages nest (a response fired under `policy.eval` does
// tier I/O and metadata updates), and each stage is charged its *self*
// time — time spent in a nested stage is charged to the inner stage only.
// The per-thread state is a small stack plus a segment clock; a push
// charges the elapsed segment to the parent, a pop charges it to the
// popped stage.
//
// Overhead: recording is sampled 1-in-N per thread (default 8, like the
// tier latency sampling; `TIERA_STAGE_SAMPLE_N` or set_stage_sample_every()
// override — 1 records every op for bench-grade breakdowns, 0 disables).
// A non-sampled op costs one thread-local branch per stage scope; a sampled
// PUT costs ~25 steady-clock reads, well under the repo's 5% hot-path
// budget. Stage scopes double as profiler frames (see obs/profiler.h), so
// folded stacks name the same taxonomy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/profile_stack.h"

namespace tiera {

enum class Stage : std::uint8_t {
  kRpcDecode = 0,
  kPolicyEval,
  kMetadataLookup,
  kJournalAppend,
  kTierIo,
  kResponseBuild,
  // Derived at flush time, never passed to StageTimer:
  kOther,  // whole-op minus every named stage (instrumentation gap)
  kTotal,  // the whole-op span
};
inline constexpr int kNamedStageCount = 6;
inline constexpr int kStageSlotCount = 8;  // named + other + total
const char* stage_name(Stage stage);

enum class StageOp : std::uint8_t {
  kPut = 0,
  kGet,
  kDelete,
  kBackground,  // control-layer responses and timer/threshold firings
};
inline constexpr int kStageOpCount = 4;
const char* stage_op_name(StageOp op);

// Effective sampling rate (ops between recorded breakdowns; 0 = disabled).
// First read consults TIERA_STAGE_SAMPLE_N; set_stage_sample_every()
// overrides at runtime (benches record unsampled with 1). The live value is
// exported as the `tiera_stage_sample_every` gauge.
std::uint64_t stage_sample_every();
void set_stage_sample_every(std::uint64_t n);

// True when the calling thread is inside a recording (sampled) op scope.
bool stage_recording_active();

// Bitmask of (1 << Stage) for the named stages entered during the current
// outermost op on this thread. Maintained for every op (not just sampled
// ones — one thread-local OR per StageTimer); reset when a new outermost
// OpStageScope opens. Each request span in the flight recorder carries it.
std::uint8_t current_stage_digest();

// RAII over one whole application operation. The outermost scope on a
// thread owns the breakdown; nested scopes (an instance PUT served under an
// RPC op scope, a put() issued by a background response) are inert, so
// their stages fold into the enclosing op. Flushes to the registry on
// destruction.
class OpStageScope {
 public:
  explicit OpStageScope(StageOp op);
  ~OpStageScope();

  OpStageScope(const OpStageScope&) = delete;
  OpStageScope& operator=(const OpStageScope&) = delete;

  bool recording() const { return recording_; }

 private:
  bool owner_ = false;      // outermost scope on this thread
  bool recording_ = false;  // owner and sampled
  bool pushed_frame_ = false;
};

// RAII over one named stage within the current op. Cheap no-op when the
// thread has no recording op scope. Also pushes a profiler frame while a
// capture is running, so stage names appear in folded stacks even on
// threads whose ops were not stage-sampled.
class StageTimer {
 public:
  explicit StageTimer(Stage stage);
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  bool recording_ = false;
  bool pushed_frame_ = false;
};

// One (op, stage) aggregate read back from the registry histograms.
struct StageRow {
  std::string op;
  std::string stage;
  std::uint64_t count = 0;
  double sum_ms = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
};

// Snapshot of every (op, stage) series with at least one sample.
std::vector<StageRow> stage_breakdown();

// Human-readable per-op stage table with a reconciliation line per op:
// coverage = Σ named-stage time / total time, gap = other / total.
std::string render_stage_report();

// Worst-op absolute reconciliation error: |Σ(named+other) - total| / total
// across ops with samples (0 when nothing was recorded). Σ(named+other)
// equals total by construction, so anything beyond double-rounding noise
// means the accounting itself is broken; CI asserts this stays under 10%.
double stage_reconciliation_error();

// Worst-op attribution gap: max over ops of other/total (0 when nothing was
// recorded). This is the instrumentation-coverage number the stage smoke
// gate watches.
double stage_attribution_gap();

}  // namespace tiera
