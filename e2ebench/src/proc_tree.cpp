#include "proc_tree.hpp"

#include <dirent.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace e2e {

namespace {

struct StatLine {
  char state = 0;
  int ppid = 0;
  double cpu_s = 0.0;
};

/// Parse /proc/<pid>/stat. The command name (field 2) may contain spaces
/// and parentheses, so fields are counted from the last ')'.
bool read_stat(int pid, StatLine* out) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return false;
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream fields(line.substr(close + 1));
  std::string field;
  // After the name: state(3) ppid(4) ... utime(14) stime(15).
  long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 3) out->state = field[0];
    if (i == 4) out->ppid = std::atoi(field.c_str());
    if (i == 14) utime = std::atol(field.c_str());
    if (i == 15) stime = std::atol(field.c_str());
  }
  out->cpu_s = static_cast<double>(utime + stime) /
               static_cast<double>(sysconf(_SC_CLK_TCK));
  return true;
}

double peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 12, '\n');
  }
  return 0.0;
}

}  // namespace

std::vector<ProcSample> live_descendants() {
  std::map<int, StatLine> stats;
  if (DIR* dir = opendir("/proc")) {
    while (const dirent* entry = readdir(dir)) {
      const int pid = std::atoi(entry->d_name);
      StatLine s;
      if (pid > 0 && read_stat(pid, &s)) stats[pid] = s;
    }
    closedir(dir);
  }
  std::vector<ProcSample> out;
  std::vector<int> frontier{static_cast<int>(getpid())};
  while (!frontier.empty()) {
    const int parent = frontier.back();
    frontier.pop_back();
    for (const auto& [pid, s] : stats) {
      if (s.ppid != parent) continue;
      out.push_back({pid, s.cpu_s, peak_rss_mb(pid)});
      frontier.push_back(pid);
    }
  }
  return out;
}

void become_subreaper() { prctl(PR_SET_CHILD_SUBREAPER, 1); }

void wait_for_exit(const std::vector<ProcSample>& procs) {
  constexpr int kPollsBeforeKill = 5000;  // 1 ms apart
  for (const ProcSample& p : procs) {
    for (int polls = 0;; ++polls) {
      // Our (adopted) child: reaped once it exits. Anyone else's: gone
      // once /proc shows no entry or a zombie.
      const pid_t reaped = waitpid(p.pid, nullptr, WNOHANG);
      if (reaped == p.pid) break;
      StatLine s;
      if (reaped < 0 &&
          (!read_stat(p.pid, &s) || s.state == 'Z' || s.state == 'X')) {
        break;
      }
      if (polls == kPollsBeforeKill) kill(p.pid, SIGKILL);
      usleep(1000);
    }
  }
}

double self_peak_rss_mb() { return peak_rss_mb(static_cast<int>(getpid())); }

void reset_self_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double self_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

}  // namespace e2e
