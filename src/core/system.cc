#include "src/core/system.h"

#include "src/core/alternatives.h"

namespace tlbsim {

namespace {
SystemCheckerFactory g_checker_factory = nullptr;
bool g_check_every_system = false;
}  // namespace

void SetSystemCheckerFactory(SystemCheckerFactory factory) { g_checker_factory = factory; }

void SetCheckEverySystem(bool on) { g_check_every_system = on; }

bool CheckEverySystem() { return g_check_every_system; }

SystemCheckerFactory GetSystemCheckerFactory() { return g_checker_factory; }

System::System(const SystemConfig& config)
    : machine_(config.machine), kernel_(&machine_, config.kernel) {
  switch (config.backend) {
    case FlushBackendKind::kIpi:
      backend_ = std::make_unique<ShootdownEngine>(&kernel_);
      break;
    case FlushBackendKind::kQueue:
      backend_ = std::make_unique<QueueFlushBackend>(&kernel_);
      break;
    case FlushBackendKind::kFreeBsd:
      backend_ = std::make_unique<FreeBsdShootdownEngine>(&kernel_);
      break;
    case FlushBackendKind::kLatr:
      backend_ = std::make_unique<LatrEngine>(&kernel_);
      break;
  }
  MaybeCreateChecker(config);
}

void System::MaybeCreateChecker(const SystemConfig& config) {
  if ((config.check || g_check_every_system) && g_checker_factory != nullptr) {
    checker_ = g_checker_factory(*this);
  }
}

}  // namespace tlbsim
