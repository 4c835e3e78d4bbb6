#include "core/control.h"

#include <algorithm>

#include "common/logging.h"
#include "common/profile_stack.h"
#include "common/trace_context.h"
#include "core/instance.h"
#include "obs/stage.h"
#include "obs/trace.h"

namespace tiera {

ControlLayer::ControlLayer(TieraInstance& instance,
                           std::size_t response_threads, Duration timer_tick)
    : instance_(instance),
      response_pool_(response_threads, "tiera-responses"),
      timer_tick_(timer_tick) {
  MetricsRegistry& reg = MetricsRegistry::global();
  metrics_.events_fired = &reg.counter("tiera_control_events_fired_total");
  metrics_.responses_failed =
      &reg.counter("tiera_control_responses_failed_total");
  metrics_.rules_evaluated = &reg.counter("tiera_control_rules_evaluated_total");
  metrics_.queue_depth = &reg.gauge("tiera_control_queue_depth");
  metrics_.pool_active_workers = &reg.gauge("tiera_control_pool_active_workers");
  metrics_.active_responses = &reg.gauge("tiera_control_active_responses");
  metrics_.rules = &reg.gauge("tiera_control_rules");
  metrics_.response_latency =
      &reg.histogram("tiera_control_response_latency_ms");
  // The observer outlives the pool (gauges live in the process-wide
  // registry), so capture the gauges, not `this`.
  Gauge* queue_depth = metrics_.queue_depth;
  Gauge* workers = metrics_.pool_active_workers;
  response_pool_.set_observer(
      [queue_depth, workers](std::size_t depth, std::size_t running) {
        queue_depth->set(static_cast<double>(depth));
        workers->set(static_cast<double>(running));
      });
}

ControlLayer::~ControlLayer() { stop(); }

void ControlLayer::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  timer_thread_ = std::thread([this] { timer_loop(); });
}

void ControlLayer::stop() {
  if (!running_.exchange(false)) return;
  if (timer_thread_.joinable()) timer_thread_.join();
  response_pool_.shutdown();
}

std::uint64_t ControlLayer::add_rule(Rule rule) {
  rule.id = next_rule_id_.fetch_add(1);
  // Per-rule attribution series. The id labels every series so rules with
  // the same (or no) name stay distinguishable; the name label keeps the
  // exposition human-readable.
  {
    const MetricsRegistry::Labels labels = {
        {"rule", std::to_string(rule.id)}, {"name", rule.name}};
    MetricsRegistry& reg = MetricsRegistry::global();
    auto stats = std::make_shared<RuleStats>();
    stats->fires = &reg.counter("tiera_rule_fires_total", labels);
    stats->errors = &reg.counter("tiera_rule_errors_total", labels);
    stats->bytes_moved = &reg.counter("tiera_rule_bytes_moved_total", labels);
    stats->objects_touched =
        &reg.counter("tiera_rule_objects_touched_total", labels);
    stats->latency = &reg.histogram("tiera_rule_response_latency_ms", labels);
    rule.stats = std::move(stats);
  }
  if (rule.event.kind == EventKind::kTimer) {
    const auto scaled = std::chrono::duration_cast<Duration>(
        rule.event.timer.period * time_scale());
    rule.next_deadline_ns->store((now() + scaled).time_since_epoch().count());
  }
  if (rule.event.kind == EventKind::kThreshold) {
    rule.threshold_state->store(rule.event.threshold.threshold);
  }
  auto shared = std::make_shared<Rule>(std::move(rule));
  std::unique_lock lock(rules_mu_);
  rules_.push_back(shared);
  metrics_.rules->set(static_cast<double>(rules_.size()));
  return shared->id;
}

Status ControlLayer::remove_rule(std::uint64_t rule_id) {
  std::unique_lock lock(rules_mu_);
  auto it = std::find_if(
      rules_.begin(), rules_.end(),
      [rule_id](const auto& rule) { return rule->id == rule_id; });
  if (it == rules_.end()) return Status::NotFound("no such rule");
  rules_.erase(it);
  metrics_.rules->set(static_cast<double>(rules_.size()));
  return Status::Ok();
}

void ControlLayer::clear_rules() {
  std::unique_lock lock(rules_mu_);
  rules_.clear();
  metrics_.rules->set(0);
}

std::size_t ControlLayer::rule_count() const {
  std::shared_lock lock(rules_mu_);
  return rules_.size();
}

std::vector<ControlLayer::RuleActivity> ControlLayer::rule_activity() const {
  std::vector<std::shared_ptr<Rule>> rules;
  {
    std::shared_lock lock(rules_mu_);
    rules = rules_;
  }
  std::vector<RuleActivity> out;
  out.reserve(rules.size());
  for (const auto& rule : rules) {
    RuleActivity activity;
    activity.id = rule->id;
    activity.name = rule->name;
    activity.event = rule->event.describe();
    if (rule->stats) {
      activity.fires = rule->stats->fires->value();
      activity.errors = rule->stats->errors->value();
      activity.bytes_moved = rule->stats->bytes_moved->value();
      activity.objects_touched = rule->stats->objects_touched->value();
      activity.p50_ms = rule->stats->latency->percentile_ms(0.5);
      activity.p99_ms = rule->stats->latency->percentile_ms(0.99);
      activity.last_error = rule->stats->last_error();
    }
    out.push_back(std::move(activity));
  }
  return out;
}

void ControlLayer::run_responses(const std::shared_ptr<Rule>& rule,
                                 EventContext& ctx) {
  // The rule firing is a span: a child of the triggering request when the
  // ambient context carries one (foreground rules and pool tasks inherit it
  // via ThreadPool), a new root for timer/threshold firings off the timer
  // thread.
  TraceScope event_span;
  events_fired_.fetch_add(1, std::memory_order_relaxed);
  metrics_.events_fired->inc();
  metrics_.active_responses->add(1);
  if (rule->stats) rule->stats->fires->inc();
  // Engine ops attribute data-movement spend to the firing rule (CostMeter).
  // Saved/restored around the loop: a response may re-enter the control
  // layer (dynamic policy change) with its own rule context.
  const std::uint64_t saved_rule_id = ctx.rule_id;
  std::string saved_rule_name = std::move(ctx.rule_name);
  ctx.rule_id = rule->id;
  ctx.rule_name = rule->name;
  const std::uint64_t bytes_before = ctx.bytes_moved;
  const std::uint64_t objects_before = ctx.objects_touched;
  bool all_ok = true;
  Stopwatch watch;
  for (const auto& response : rule->responses) {
    TraceScope response_span;
    const Status s = response->execute(ctx);
    record_span(response_span, FlightOp::kResponse, response->describe(),
                ctx.object_id, "", s.code(), response_span.elapsed(),
                rule->id);
    if (!s.ok()) {
      all_ok = false;
      responses_failed_.fetch_add(1, std::memory_order_relaxed);
      metrics_.responses_failed->inc();
      if (rule->stats) {
        rule->stats->errors->inc();
        rule->stats->record_error(s.to_string());
      }
      TIERA_LOG(kDebug, "control")
          << "response failed: " << response->describe() << " -> "
          << s.to_string();
    }
  }
  const Duration elapsed = watch.elapsed();
  metrics_.response_latency->record(elapsed);
  if (rule->stats) {
    rule->stats->latency->record(elapsed);
    rule->stats->bytes_moved->inc(ctx.bytes_moved - bytes_before);
    rule->stats->objects_touched->inc(ctx.objects_touched - objects_before);
  }
  record_span(event_span, FlightOp::kEvent,
              rule->name.empty() ? "rule:" + std::to_string(rule->id)
                                 : "rule:" + rule->name,
              ctx.object_id, "",
              all_ok ? StatusCode::kOk : StatusCode::kInternal,
              event_span.elapsed(), rule->id);
  ctx.rule_id = saved_rule_id;
  ctx.rule_name = std::move(saved_rule_name);
  metrics_.active_responses->add(-1);
}

void ControlLayer::execute_rule(const std::shared_ptr<Rule>& rule,
                                EventContext ctx) {
  // Single entry point for pool-dispatched and timer-fired rules: give the
  // whole execution a "background" op breakdown (its engine calls re-charge
  // to tier.io / metadata.lookup / journal.append as usual).
  OpStageScope stage_scope(StageOp::kBackground);
  StageTimer policy_stage(Stage::kPolicyEval);
  run_responses(rule, ctx);
}

bool ControlLayer::action_rule_matches(const Rule& rule, ActionType action,
                                       const EventContext& ctx,
                                       std::string_view tier) const {
  if (rule.event.kind != EventKind::kAction) return false;
  if (rule.event.action.action != action) return false;
  if (rule.event.action.tier_filter != tier) return false;
  if (!rule.event.action.tag_filter.empty()) {
    const auto meta = instance_.metadata().get(ctx.object_id);
    if (!meta || !meta->has_tag(rule.event.action.tag_filter)) return false;
  }
  return true;
}

void ControlLayer::on_action(ActionType action, EventContext& ctx,
                             const std::vector<std::string>& tiers_touched,
                             MatchScope scope) {
  // Snapshot matching rules under the shared lock, run them outside it (a
  // response may itself add/remove rules — dynamic policy change).
  std::vector<std::shared_ptr<Rule>> foreground;
  std::vector<std::shared_ptr<Rule>> background;
  {
    std::shared_lock lock(rules_mu_);
    metrics_.rules_evaluated->inc(rules_.size());
    for (const auto& rule : rules_) {
      bool matches = false;
      if (scope != MatchScope::kFilteredOnly) {
        matches = action_rule_matches(*rule, action, ctx, "");
      }
      if (!matches && scope != MatchScope::kUnfilteredOnly) {
        for (const auto& tier : tiers_touched) {
          if (action_rule_matches(*rule, action, ctx, tier)) {
            matches = true;
            break;
          }
        }
      }
      if (!matches) continue;
      (rule->event.background ? background : foreground).push_back(rule);
    }
  }
  for (const auto& rule : foreground) {
    run_responses(rule, ctx);
  }
  for (const auto& rule : background) {
    // Background responses get their own context copy; the payload is shared
    // (immutable) so inserts can still be stored asynchronously.
    response_pool_.submit(
        [this, rule, ctx_copy = ctx]() mutable { execute_rule(rule, ctx_copy); });
  }
}

void ControlLayer::evaluate_thresholds() {
  std::vector<std::shared_ptr<Rule>> to_fire_fg;
  std::vector<std::shared_ptr<Rule>> to_fire_bg;
  {
    std::shared_lock lock(rules_mu_);
    metrics_.rules_evaluated->inc(rules_.size());
    for (const auto& rule : rules_) {
      if (rule->event.kind != EventKind::kThreshold) continue;
      const ThresholdEventDef& def = rule->event.threshold;
      double value = 0;
      if (def.attribute == TierAttribute::kSloViolated) {
        // SLO events carry the SLO name in `tier`; their value comes from
        // the engine, not a tier lookup.
        value = instance_.slo().violated_value(def.tier);
      } else {
        const TierPtr tier = instance_.tier(def.tier);
        if (!tier) continue;
        switch (def.attribute) {
          case TierAttribute::kFillFraction:
            value = tier->fill_fraction();
            break;
          case TierAttribute::kUsedBytes:
            value = static_cast<double>(tier->used());
            break;
          case TierAttribute::kObjectCount:
            value = static_cast<double>(tier->object_count());
            break;
          case TierAttribute::kBreakerState:
            value = static_cast<double>(
                static_cast<int>(tier->breaker_state()));
            break;
          case TierAttribute::kSloViolated:
            break;  // handled above
        }
      }
      const double current = rule->threshold_state->load();
      const bool over = value >= current;
      if (over) {
        if (def.sliding) {
          // Advance to the next multiple beyond the observed value so a burst
          // fires once, then fire.
          double next = current;
          while (next <= value) next += def.threshold;
          double expected_thr = current;
          if (rule->threshold_state->compare_exchange_strong(expected_thr,
                                                             next)) {
            (rule->event.background ? to_fire_bg : to_fire_fg).push_back(rule);
          }
        } else {
          bool expected = true;
          if (rule->armed->compare_exchange_strong(expected, false)) {
            (rule->event.background ? to_fire_bg : to_fire_fg).push_back(rule);
          }
        }
      } else if (!def.sliding) {
        rule->armed->store(true);  // re-arm once back below the threshold
      }
    }
  }
  EventContext ctx;
  ctx.instance = &instance_;
  for (const auto& rule : to_fire_fg) run_responses(rule, ctx);
  for (const auto& rule : to_fire_bg) {
    response_pool_.submit([this, rule] {
      EventContext bg_ctx;
      bg_ctx.instance = &instance_;
      execute_rule(rule, bg_ctx);
    });
  }
}

void ControlLayer::request_threshold_evaluation() {
  thresholds_requested_.store(true, std::memory_order_release);
}

void ControlLayer::timer_loop() {
  profile_set_thread_name("tiera-timer");
  while (running_.load(std::memory_order_relaxed)) {
    // Tick in scaled wall time so modelled timer periods stay proportional.
    const double scale = time_scale();
    const auto wall_tick = std::chrono::duration_cast<Duration>(
        timer_tick_ * (scale > 0 ? scale : 1.0));
    precise_sleep(std::max<Duration>(wall_tick, from_ms(1)));

    // Heat decay and cost accrual advance in modelled time, one tick per
    // pass (mirroring how timer periods scale).
    ticks_.fetch_add(1, std::memory_order_relaxed);
    instance_.tick_observability(timer_tick_);

    // SLO objectives are re-measured every tick; a compliance flip makes
    // `slo.* == violated` rules fire (or re-arm) on this same pass.
    bool thresholds_due =
        thresholds_requested_.exchange(false, std::memory_order_acq_rel);
    if (instance_.slo().evaluate()) thresholds_due = true;
    if (thresholds_due) {
      OpStageScope stage_scope(StageOp::kBackground);
      StageTimer policy_stage(Stage::kPolicyEval);
      evaluate_thresholds();
    }

    std::vector<std::shared_ptr<Rule>> due;
    {
      std::shared_lock lock(rules_mu_);
      const auto t = now().time_since_epoch().count();
      for (const auto& rule : rules_) {
        if (rule->event.kind != EventKind::kTimer) continue;
        if (rule->next_deadline_ns->load() <= t) {
          const auto period_scaled = std::chrono::duration_cast<Duration>(
              rule->event.timer.period * (scale > 0 ? scale : 1.0));
          rule->next_deadline_ns->store(
              (now() + period_scaled).time_since_epoch().count());
          due.push_back(rule);
        }
      }
    }
    for (const auto& rule : due) {
      // Paper: the timer thread signals a free pool thread to service the
      // response and keeps checking other timer events.
      response_pool_.submit([this, rule] {
        EventContext ctx;
        ctx.instance = &instance_;
        execute_rule(rule, ctx);
      });
    }
  }
}

void ControlLayer::drain() { response_pool_.wait_idle(); }

}  // namespace tiera
