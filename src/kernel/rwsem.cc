#include "src/kernel/rwsem.h"

#include "src/hw/check_sink.h"

namespace tlbsim {

void RwSem::NoteAcquired(SimCpu& cpu, bool write) {
  if (HwCheckSink* sink = cpu.check_sink()) {
    sink->OnLockAcquire(cpu, write);
  }
}

Co<void> RwSem::Lock(SimCpu& cpu, bool write) {
  if (TryLock(write)) {
    NoteAcquired(cpu, write);
    co_return;
  }
  if (write) {
    ++waiting_writers_;
  }
  while (true) {
    // Writers bypass the anti-starvation check for themselves.
    if (write) {
      if (!writer_ && readers_ == 0) {
        writer_ = true;
        --waiting_writers_;
        NoteAcquired(cpu, write);
        co_return;
      }
    } else if (TryLock(false)) {
      NoteAcquired(cpu, write);
      co_return;
    }
    co_await cpu.WaitFlag(release_);  // spurious wakes are fine; we re-check
  }
}

void RwSem::Unlock(SimCpu& cpu, bool write) {
  if (HwCheckSink* sink = cpu.check_sink()) {
    sink->OnLockRelease(cpu, write);
  }
  if (write) {
    writer_ = false;
  } else {
    --readers_;
  }
  // Pulse the release flag: wake every waiter to re-contend, then re-arm.
  release_.Set(cpu.now());
  release_.Clear();
}

}  // namespace tlbsim
