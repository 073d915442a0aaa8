#pragma once
// Process-tree accounting from /proc. Eval worker processes are forked by a
// zygote that ignores SIGCHLD, so the kernel reaps them and getrusage
// (RUSAGE_CHILDREN) never sees their memory or CPU time; the benchmark
// reads each live descendant's /proc entries before the pool tears down.

#include <vector>

namespace e2e {

struct ProcSample {
  int pid = 0;
  double cpu_s = 0.0;       // utime + stime over the process's lifetime
  double peak_rss_mb = 0.0; // VmHWM
};

/// Every live descendant of this process (children, grandchildren, ...).
std::vector<ProcSample> live_descendants();

/// Adopt orphaned descendants (PR_SET_CHILD_SUBREAPER): eval workers that
/// outlive their zygote become this process's children, so wait_for_exit
/// can reap them instead of leaving zombies to the container's init.
void become_subreaper();

/// Block until every process in `procs` has exited, reaping the ones this
/// process adopted. Eval workers may outlive their pool's destructor by a
/// moment; one still running after 5 s is killed.
void wait_for_exit(const std::vector<ProcSample>& procs);

/// This process's peak resident set (VmHWM), in MB.
double self_peak_rss_mb();

/// Reset this process's VmHWM to its current resident set, so the next
/// self_peak_rss_mb() reports the peak since now.
void reset_self_peak_rss();

/// CPU seconds (user + system) consumed by every thread of this process.
double self_cpu_s();

}  // namespace e2e
