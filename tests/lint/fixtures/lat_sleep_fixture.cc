// Latency-model fixture: a raw sleep anywhere in src/ outside
// src/common/latency.cc is a lat-raw-sleep finding, because it escapes the
// model_latency switch and the per-layer accounts. Waits through the model
// and retry backoff through WaitSeconds are clean, and a reasoned allow() is
// suppressed. Never compiled.
// flint-lint: pretend-path(src/dfs/lat_sleep_fixture.cc)

namespace flint {

void RawSleepFor(double seconds) {
  std::this_thread::sleep_for(WallDuration(seconds));  // finding
}

void RawPosixSleeps() {
  usleep(1000);             // finding
  nanosleep(&ts, nullptr);  // finding
}

void RawSleepUntil(WallTime deadline) {
  std::this_thread::sleep_until(deadline);  // finding
}

void ThroughTheModel(LatencyModel& latency, uint64_t bytes, double bandwidth) {
  latency.Transfer(Layer::kDfsWrite, bytes, bandwidth);  // clean
}

void Backoff(int step) {
  (void)WaitSeconds(BackoffSeconds(step, 0.002, 0.1));  // clean: always completes OK
}

void Reasoned(double seconds) {
  // flint-lint: allow(lat-raw-sleep) fixture: a reasoned exception is suppressed
  std::this_thread::sleep_for(WallDuration(seconds));  // suppressed
}

}  // namespace flint
