//===- guard/Isolate.cpp - Fork-based crash isolation ---------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "guard/Isolate.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <exception>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#define PSEQ_HAVE_FORK 1
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PSEQ_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PSEQ_UNDER_SANITIZER 1
#endif
#endif

using namespace pseq;
using namespace pseq::guard;

bool pseq::guard::underSanitizer() {
#ifdef PSEQ_UNDER_SANITIZER
  return true;
#else
  return false;
#endif
}

const char *pseq::guard::isolateStatusName(IsolateStatus S) {
  switch (S) {
  case IsolateStatus::Ok:
    return "ok";
  case IsolateStatus::Fail:
    return "fail";
  case IsolateStatus::Deadline:
    return "deadline";
  case IsolateStatus::Oom:
    return "oom";
  case IsolateStatus::Crash:
    return "crash";
  case IsolateStatus::Unsupported:
    return "unsupported";
  }
  return "unknown";
}

bool pseq::guard::isolationSupported() {
#ifdef PSEQ_HAVE_FORK
  return true;
#else
  return false;
#endif
}

#ifdef PSEQ_HAVE_FORK

namespace {

/// Maximum bytes drained from a capture child; past this the pipe is
/// closed and the child's writes fail with EPIPE. Matches the server's
/// wire frame cap so a captured payload always fits in one reply.
constexpr size_t CaptureCapBytes = 16u << 20;

/// Child-side rlimits + signal reset. A child inherits the parent's
/// graceful SIGINT/SIGTERM handlers (guard/Signals); those must not run in
/// the child — its death is the parent's signal to classify, not a
/// cooperative shutdown — so the dispositions go back to the default.
void childSetup(const IsolateLimits &Limits) {
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  // A capture child that outlives the parent's drain must die on write,
  // not take down the process group with SIGPIPE.
  std::signal(SIGPIPE, SIG_DFL);
  if (Limits.CpuSeconds) {
    struct rlimit RL;
    RL.rlim_cur = static_cast<rlim_t>(Limits.CpuSeconds);
    RL.rlim_max = static_cast<rlim_t>(Limits.CpuSeconds + 1); // hard SIGKILL
    setrlimit(RLIMIT_CPU, &RL);
  }
  if (Limits.MemBytes && !underSanitizer()) {
    struct rlimit RL;
    RL.rlim_cur = static_cast<rlim_t>(Limits.MemBytes);
    RL.rlim_max = static_cast<rlim_t>(Limits.MemBytes);
    setrlimit(RLIMIT_AS, &RL);
  }
}

/// Maps a body's outcome onto the child exit code. Never returns.
[[noreturn]] void childExit(const std::function<int()> &Body) {
  int Code;
  try {
    Code = Body();
  } catch (const std::bad_alloc &) {
    Code = IsolateOomExit;
  } catch (...) {
    Code = IsolateExceptionExit;
  }
  // _Exit: no static destructors, no atexit, no flushing of parent-shared
  // buffers (the parent flushed before forking).
  std::_Exit(Code & 0xff);
}

IsolateResult classify(int WStatus) {
  IsolateResult R;
  if (WIFEXITED(WStatus)) {
    R.ExitCode = WEXITSTATUS(WStatus);
    if (R.ExitCode == 0)
      R.Status = IsolateStatus::Ok;
    else if (R.ExitCode == IsolateOomExit)
      R.Status = IsolateStatus::Oom;
    else if (R.ExitCode == IsolateExceptionExit)
      R.Status = IsolateStatus::Crash;
    else
      R.Status = IsolateStatus::Fail;
    return R;
  }
  if (WIFSIGNALED(WStatus)) {
    R.Signal = WTERMSIG(WStatus);
    // SIGXCPU: the soft CPU rlimit fired. SIGKILL is ambiguous — the hard
    // CPU limit delivers it, but so does the OOM killer or an external
    // `kill -9` — and is disambiguated by rusage in waitAndClassify.
    // Wall timeouts are classified by the parent before this runs.
    R.Status = (R.Signal == SIGXCPU || R.Signal == SIGKILL)
                   ? IsolateStatus::Deadline
                   : IsolateStatus::Crash;
    return R;
  }
  R.Status = IsolateStatus::Crash;
  return R;
}

void recordUsage(IsolateResult &R, const struct rusage &RU) {
#ifdef __APPLE__
  R.PeakRssKb = static_cast<uint64_t>(RU.ru_maxrss) / 1024; // bytes on macOS
#else
  R.PeakRssKb = static_cast<uint64_t>(RU.ru_maxrss); // KiB on Linux
#endif
  R.UserMs = RU.ru_utime.tv_sec * 1000.0 + RU.ru_utime.tv_usec / 1000.0;
  R.SysMs = RU.ru_stime.tv_sec * 1000.0 + RU.ru_stime.tv_usec / 1000.0;
}

/// Drains whatever is currently readable from \p Fd into \p Output, up to
/// the capture cap. Returns false once the pipe reports EOF.
bool drainPipe(int Fd, std::string &Output) {
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = read(Fd, Buf, sizeof(Buf));
    if (N > 0) {
      if (Output.size() < CaptureCapBytes)
        Output.append(Buf, static_cast<size_t>(
                               std::min<size_t>(static_cast<size_t>(N),
                                                CaptureCapBytes -
                                                    Output.size())));
      continue;
    }
    if (N == 0)
      return false; // EOF: child closed its end (usually by dying)
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }
}

/// Parent-side wait loop shared by both entry points: enforces the wall
/// deadline, drains \p ReadFd (when >= 0) while waiting, reaps with wait4
/// for rusage, classifies. Closes ReadFd before returning.
IsolateResult waitAndClassify(pid_t Pid, const IsolateLimits &Limits,
                              std::chrono::steady_clock::time_point Start,
                              int ReadFd, std::string *Output) {
  auto elapsedMs = [&] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - Start)
        .count();
  };

  IsolateResult R;
  struct rusage RU;
  int WStatus = 0;
  bool TimedOut = false;
  bool NeedPoll = Limits.WallMs != 0 || ReadFd >= 0;
  // Reap probes without a pipe to wait on back off from 50 µs to 2 ms, so
  // a child that exits right after closing its output is reaped at once
  // while a long-running one costs few wakeups.
  long ProbeNs = 50 * 1000;
  for (;;) {
    pid_t Got = wait4(Pid, &WStatus, NeedPoll ? WNOHANG : 0, &RU);
    if (Got == Pid)
      break;
    if (Got < 0) {
      R.Status = IsolateStatus::Crash; // wait4 failure: treat as lost child
      R.ElapsedMs = elapsedMs();
      if (ReadFd >= 0)
        close(ReadFd);
      return R;
    }
    if (Limits.WallMs && elapsedMs() >= static_cast<double>(Limits.WallMs)) {
      if (!TimedOut) {
        TimedOut = true;
        kill(Pid, SIGKILL);
      }
      // Fall through to a blocking reap of the killed child.
      wait4(Pid, &WStatus, 0, &RU);
      break;
    }
    if (ReadFd >= 0) {
      struct pollfd PFD = {ReadFd, POLLIN, 0};
      poll(&PFD, 1, 2);
      if (!drainPipe(ReadFd, *Output)) {
        close(ReadFd);
        ReadFd = -1; // EOF reached; keep waiting for the exit status
        NeedPoll = Limits.WallMs != 0;
      }
    } else {
      struct timespec TS = {0, ProbeNs};
      nanosleep(&TS, nullptr);
      ProbeNs = std::min(2 * ProbeNs, 2L * 1000 * 1000);
    }
  }

  if (ReadFd >= 0) {
    // The child is gone; collect whatever it flushed before dying.
    drainPipe(ReadFd, *Output);
    close(ReadFd);
  }

  R = classify(WStatus);
  if (TimedOut) {
    R.Status = IsolateStatus::Deadline;
    R.Signal = SIGKILL;
  }
  recordUsage(R, RU);
  // Rusage disambiguates a SIGKILL death: the hard CPU rlimit only
  // delivers it once the child has actually consumed its CPU budget. A
  // SIGKILLed child whose CPU time is well short of the limit was killed
  // by something else (OOM killer, external kill -9, chaos injection) —
  // that is a crash to retry, not a deadline to report.
  if (!TimedOut && R.Status == IsolateStatus::Deadline &&
      R.Signal == SIGKILL) {
    double CpuBudgetMs = static_cast<double>(Limits.CpuSeconds) * 1000.0;
    if (Limits.CpuSeconds == 0 || R.UserMs + R.SysMs < CpuBudgetMs - 500.0)
      R.Status = IsolateStatus::Crash;
  }
  R.ElapsedMs = elapsedMs();
  return R;
}

} // namespace

IsolateResult pseq::guard::runIsolated(const std::function<int()> &Body,
                                       const IsolateLimits &Limits) {
  // Shared stdio buffers would otherwise be flushed twice (parent + child).
  std::fflush(stdout);
  std::fflush(stderr);

  std::chrono::steady_clock::time_point Start =
      std::chrono::steady_clock::now();
  pid_t Pid = fork();
  if (Pid < 0)
    return IsolateResult{}; // Unsupported: fork failed (EAGAIN/ENOMEM)
  if (Pid == 0) {
    childSetup(Limits);
    childExit(Body); // never returns
  }
  return waitAndClassify(Pid, Limits, Start, -1, nullptr);
}

IsolateResult
pseq::guard::runIsolatedCapture(const std::function<int(int OutFd)> &Body,
                                const IsolateLimits &Limits,
                                std::string &Output) {
  Output.clear();
  int Fds[2];
  if (pipe(Fds) != 0)
    return IsolateResult{};

  std::fflush(stdout);
  std::fflush(stderr);

  std::chrono::steady_clock::time_point Start =
      std::chrono::steady_clock::now();
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Fds[0]);
    close(Fds[1]);
    return IsolateResult{};
  }
  if (Pid == 0) {
    close(Fds[0]);
    childSetup(Limits);
    int WriteFd = Fds[1];
    childExit([&] { return Body(WriteFd); }); // never returns
  }
  close(Fds[1]);
  // Nonblocking read end: the wait loop interleaves draining with the
  // wall-deadline watch, and must never block on a silent child.
  fcntl(Fds[0], F_SETFL, fcntl(Fds[0], F_GETFL, 0) | O_NONBLOCK);
  return waitAndClassify(Pid, Limits, Start, Fds[0], &Output);
}

#else // !PSEQ_HAVE_FORK

IsolateResult pseq::guard::runIsolated(const std::function<int()> &,
                                       const IsolateLimits &) {
  return IsolateResult{};
}

IsolateResult pseq::guard::runIsolatedCapture(
    const std::function<int(int OutFd)> &, const IsolateLimits &,
    std::string &Output) {
  Output.clear();
  return IsolateResult{};
}

#endif
