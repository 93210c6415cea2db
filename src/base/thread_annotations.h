// Clang thread-safety-analysis annotation macros (no-ops on GCC/MSVC).
//
// The macros below let the compiler prove, on every clang build, the
// host-concurrency discipline of the sweep executor (src/exec): mutex-guarded
// state — GUARDED_BY(mu) on members, REQUIRES(mu) on functions — enforced
// through the annotated Mutex/MutexLock wrappers in src/base/mutex.h
// (libstdc++'s std::mutex carries no annotations, so raw std::lock_guard use
// is invisible to the analysis). Any new code that touches GUARDED_BY state
// without its lock is a compile error under -Wthread-safety (promoted to
// -Werror=thread-safety on clang builds, see the top-level CMakeLists.txt).
//
// CAPABILITY classes with no runtime state can also serve as ownership
// tokens handed over by a barrier instead of a lock (Acquire()/Release()/
// AssertHeld() compile to nothing); tests/static_analysis/ts_clean.cc keeps
// that idiom compiling. See docs/CHECKING.md § Static analysis.
#ifndef TLBSIM_SRC_BASE_THREAD_ANNOTATIONS_H_
#define TLBSIM_SRC_BASE_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && !defined(SWIG)
#define TLBSIM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define TLBSIM_THREAD_ANNOTATION(x)  // no-op: GCC parses but ignores nothing
#endif

// Type annotations -----------------------------------------------------------

// Marks a class as a capability (lockable or a pure ownership token).
#define CAPABILITY(x) TLBSIM_THREAD_ANNOTATION(capability(x))

// Marks an RAII class whose constructor acquires and destructor releases.
#define SCOPED_CAPABILITY TLBSIM_THREAD_ANNOTATION(scoped_lockable)

// Member annotations ---------------------------------------------------------

// Data member readable/writable only while holding the given capability.
#define GUARDED_BY(x) TLBSIM_THREAD_ANNOTATION(guarded_by(x))

// Pointer member whose *pointee* is protected by the given capability.
#define PT_GUARDED_BY(x) TLBSIM_THREAD_ANNOTATION(pt_guarded_by(x))

// Lock-ordering declarations (checked under -Wthread-safety-beta; kept for
// documentation value on stable clang).
#define ACQUIRED_BEFORE(...) TLBSIM_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) TLBSIM_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// Function annotations -------------------------------------------------------

// Caller must hold the capability (exclusively / shared) across the call.
#define REQUIRES(...) TLBSIM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) TLBSIM_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

// Function acquires the capability and does not release it before returning.
#define ACQUIRE(...) TLBSIM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) TLBSIM_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

// Function releases a capability the caller held on entry.
#define RELEASE(...) TLBSIM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) TLBSIM_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

// Function tries to acquire; first argument is the success return value.
#define TRY_ACQUIRE(...) TLBSIM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// Caller must NOT hold the capability (non-reentrancy / deadlock guard).
#define EXCLUDES(...) TLBSIM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Informs the analysis that the capability is held at this point. This is
// the sanctioned escape hatch for ownership the analysis cannot see; the
// runtime justification is documented at each use site.
#define ASSERT_CAPABILITY(x) TLBSIM_THREAD_ANNOTATION(assert_capability(x))

// Function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) TLBSIM_THREAD_ANNOTATION(lock_returned(x))

// Turns the analysis off for one function. Must not appear in src/exec,
// src/sim or src/core (enforced by scripts/tlblint.py rule `no-ts-optout`).
#define NO_THREAD_SAFETY_ANALYSIS TLBSIM_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // TLBSIM_SRC_BASE_THREAD_ANNOTATIONS_H_
