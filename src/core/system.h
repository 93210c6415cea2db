// Convenience wiring: one object owning a Machine, a Kernel and the one
// TLB-flush protocol that drives it.
//
// This is the main entry point of the library:
//
//   tlbsim::SystemConfig cfg;
//   cfg.kernel.opts = tlbsim::OptimizationSet::All();
//   tlbsim::System sys(cfg);
//   auto* p = sys.kernel().CreateProcess();
//   auto* t = sys.kernel().CreateThread(p, /*cpu=*/0);
//   sys.machine().engine().Spawn(0, MyProgram(sys, *t));
//   sys.machine().engine().Run();
#ifndef TLBSIM_SRC_CORE_SYSTEM_H_
#define TLBSIM_SRC_CORE_SYSTEM_H_

#include <memory>
#include <string>

#include "src/core/queue_backend.h"
#include "src/core/shootdown.h"
#include "src/hw/machine.h"
#include "src/kernel/kernel.h"

namespace tlbsim {

// Which TLB-flush protocol drives the kernel: the paper's Linux 5.2.8
// call-function-data IPI engine (its optimizations set by KernelConfig::opts),
// or one of the designs it is compared against: the charmos-style per-CPU ring
// queue (src/core/queue_backend.h), FreeBSD's and LATR's (§2.2/§2.3,
// src/core/alternatives.h).
enum class FlushBackendKind {
  kIpi,
  kQueue,
  kFreeBsd,
  kLatr,
};

struct SystemConfig {
  MachineConfig machine;
  KernelConfig kernel;
  FlushBackendKind backend = FlushBackendKind::kIpi;
  // Attach a tlbcheck CheckContext (src/check/) to this system. Requires a
  // checker factory to be installed (linking tlbsim_check does that via
  // EnableTlbCheckEverywhere / InstallTlbCheckFactory); without one the flag
  // is ignored, so tlbsim_core itself never depends on the check library.
  bool check = false;
};

class System;

// Abstract face of the tlbcheck CheckContext, defined here so core code and
// tests can query violation state without linking against src/check/. The
// concrete implementation registers itself through SetSystemCheckerFactory.
class SystemChecker {
 public:
  virtual ~SystemChecker() = default;
  virtual uint64_t violation_count() const = 0;
  virtual std::string Summary() const = 0;
};

using SystemCheckerFactory = std::unique_ptr<SystemChecker> (*)(System&);

// Installs the factory System uses to build a checker when config.check is
// set (called by the check library; idempotent).
void SetSystemCheckerFactory(SystemCheckerFactory factory);

// Forces config.check on for every subsequently constructed System —
// the global "--check" switch used by bench drivers.
void SetCheckEverySystem(bool on);
bool CheckEverySystem();
SystemCheckerFactory GetSystemCheckerFactory();

class System {
 public:
  // Builds the one flush protocol config.backend names; its constructor
  // registers it as the kernel's flush backend.
  explicit System(const SystemConfig& config = SystemConfig{});
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  Machine& machine() { return machine_; }
  Kernel& kernel() { return kernel_; }
  TlbFlushBackend& backend() { return *backend_; }

  // The paper's engine; throws std::bad_cast unless this system runs kIpi.
  ShootdownEngine& shootdown() { return dynamic_cast<ShootdownEngine&>(*backend_); }

  // Non-null iff this system runs the queue backend.
  QueueFlushBackend* queue() { return dynamic_cast<QueueFlushBackend*>(backend_.get()); }

  // Non-null iff checking is attached (config.check or the global switch,
  // with a factory installed).
  SystemChecker* checker() { return checker_.get(); }

 private:
  void MaybeCreateChecker(const SystemConfig& config);

  Machine machine_;
  Kernel kernel_;
  std::unique_ptr<TlbFlushBackend> backend_;
  // Declared last: destroyed first, so the checker drains its reports while
  // machine/kernel state is still alive.
  std::unique_ptr<SystemChecker> checker_;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_CORE_SYSTEM_H_
