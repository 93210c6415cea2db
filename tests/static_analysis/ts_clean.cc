// Positive-compile snippet: the annotated idioms src/base/thread_annotations.h
// supports — MutexLock over GUARDED_BY state, a zero-size capability token
// with Acquire/Release for ownership handed over without a lock, and
// AssertHeld as the documented escape for ownership the analysis cannot see.
// Must compile cleanly under BOTH gcc (annotations are no-ops) and clang
// with -Wthread-safety -Werror=thread-safety.
#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"

namespace {

class CAPABILITY("token") Token {
 public:
  void Acquire() const ACQUIRE(this) {}
  void Release() const RELEASE(this) {}
  void AssertHeld() const ASSERT_CAPABILITY(this) {}
};

class Counter {
 public:
  void Inc() {
    tlbsim::MutexLock lk(mu_);
    ++value_;
  }
  int Get() const {
    tlbsim::MutexLock lk(mu_);
    return value_;
  }
  void TokenWrite() {
    tok_.Acquire();
    ++owned_;
    tok_.Release();
  }
  void BarrierWrite() {
    // Ownership established by an external barrier, not a lock.
    tok_.AssertHeld();
    ++owned_;
  }

 private:
  mutable tlbsim::Mutex mu_;
  int value_ GUARDED_BY(mu_) = 0;
  Token tok_;
  int owned_ GUARDED_BY(tok_) = 0;
};

}  // namespace

int main() {
  Counter c;
  c.Inc();
  c.TokenWrite();
  c.BarrierWrite();
  return c.Get();
}
