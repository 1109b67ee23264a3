// Observability-convention fixture: metric names must be
// flint_<subsystem>_* with a subsystem flint-lint knows (obs-metric-name),
// and trace event names must exist in tools/flint-report's
// KNOWN_EVENT_NAMES (obs-trace-name). Never compiled.

namespace flint {

void DeclareMetrics(MetricSet& set) {
  set.AddCounter("tasks_total");                      // finding: no flint_ prefix
  set.AddCounter("flint_engine_tasks_total");         // clean
  set.AddNanos("task_wait_seconds");                  // finding: no flint_ prefix
  set.AddGauge("flint_bogus_queue_depth", Depth);     // finding: unknown subsystem
  set.AddHistogram("flint_Engine_task_seconds", {})   // finding: not lower-case
      .Observe(1.0);
}

void EmitTraces(Tracer& tracer) {
  tracer.RecordInstant("task");           // clean: known event
  tracer.RecordInstant("mystery_event");  // finding: unknown to flint-report
  TraceSpan span("shuffle_stage");        // clean: known event
  TraceSpan bad("not_an_event");          // finding: unknown to flint-report
}

}  // namespace flint
