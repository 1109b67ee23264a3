// Process-global fixture: a function-local leaked singleton (static T* x =
// new T) in src/ is a proc-global finding, because its state is shared by
// every cluster built in the process. Owned state, plain function-local
// statics, class-scope statics and a reasoned allow() are clean.
// Never compiled.
// flint-lint: pretend-path(src/core/proc_global_fixture.cc)

namespace flint {

HealthLedger& HealthLedger::Global() {
  static HealthLedger* ledger = new HealthLedger();  // finding
  return *ledger;
}

std::map<NodeId, double>& Scores() {
  static auto* scores = new std::map<NodeId, double>();  // finding
  return *scores;
}

const std::string& Name() {
  static const std::string name = "flint";  // clean: no leaked pointer
  return name;
}

Widget* Cached() {
  static Widget* cached = nullptr;  // clean: not a leaked allocation
  return cached;
}

class Owner {
  static constexpr int kLimit = 4;  // clean: class scope
  std::unique_ptr<Ledger> ledger_ = std::make_unique<Ledger>();  // clean: owned
};

Shell& Shell::Global() {
  // flint-lint: allow(proc-global) kept for an external caller that still reads it
  static Shell* shell = new Shell();  // suppressed
  return *shell;
}

}  // namespace flint
