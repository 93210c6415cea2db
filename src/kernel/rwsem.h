// Async reader-writer semaphore in virtual time (models mm->mmap_sem).
//
// Writers are exclusive; readers share; queued writers block new readers
// (anti-starvation). Blocking is implemented as an interruptible wait on a
// release flag, so a CPU whose task sleeps on the semaphore still services
// IPIs — exactly like a real core does. (A TLB-shootdown initiator may hold
// mmap_sem while waiting for a responder that is itself blocked on the same
// semaphore; interrupt servicing during the sleep is what avoids deadlock,
// on real hardware and here.)
//
// With a checker attached, every acquisition and release is reported to the
// CPU's HwCheckSink, which enforces the two rules a sleeping lock must keep:
// never taken in IRQ context, and never re-taken by a CPU that holds it
// unless both holds are shared.
#ifndef TLBSIM_SRC_KERNEL_RWSEM_H_
#define TLBSIM_SRC_KERNEL_RWSEM_H_

#include "src/hw/cpu.h"
#include "src/sim/engine.h"
#include "src/sim/flag.h"
#include "src/sim/task.h"

namespace tlbsim {

class RwSem {
 public:
  explicit RwSem(Engine* engine) : release_(engine) {}
  RwSem(const RwSem&) = delete;
  RwSem& operator=(const RwSem&) = delete;

  // Acquires the semaphore, suspending (interruptibly) while contended.
  Co<void> Lock(SimCpu& cpu, bool write);

  // Releases and wakes waiters at `cpu`'s current time.
  void Unlock(SimCpu& cpu, bool write);

  bool locked() const { return writer_ || readers_ > 0; }
  int readers() const { return readers_; }
  bool has_writer() const { return writer_; }
  int waiting_writers() const { return waiting_writers_; }

 private:
  bool TryLock(bool write) {
    if (write) {
      if (writer_ || readers_ > 0) {
        return false;
      }
      writer_ = true;
      return true;
    }
    if (writer_ || waiting_writers_ > 0) {
      return false;
    }
    ++readers_;
    return true;
  }

  // Reports an acquisition to the checker, if one is attached.
  void NoteAcquired(SimCpu& cpu, bool write);

  SimFlag release_;
  bool writer_ = false;
  int readers_ = 0;
  int waiting_writers_ = 0;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_KERNEL_RWSEM_H_
