// Latency-model fixture: the model's own wait is the one place in src/ that
// may sleep, so the same raw sleep that is a finding elsewhere is clean
// here. Never compiled.
// flint-lint: pretend-path(src/common/latency.cc)

namespace flint {

void TheOneWait(double seconds) {
  std::this_thread::sleep_for(WallDuration(seconds));  // clean
}

}  // namespace flint
