#include "eval/process_pool_backend.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "trace/names.hpp"
#include "trace/trace.hpp"
#include "util/fmt.hpp"

namespace autockt::eval {
namespace {

// ---- binary wire format ---------------------------------------------------
// Little-endian, length-prefixed frames. Doubles travel as raw IEEE bit
// patterns (util/fmt.hpp casts) so replies are bitwise-identical to what
// the child computed — the foundation of the serial-parity contract.

void put_u8(std::string* b, std::uint8_t v) {
  b->push_back(static_cast<char>(v));
}
void put_u32(std::string* b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    b->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}
void put_u64(std::string* b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    b->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}
void put_i64(std::string* b, std::int64_t v) {
  put_u64(b, static_cast<std::uint64_t>(v));
}
void put_double(std::string* b, double v) {
  put_u64(b, util::double_to_bits(v));
}
void put_bytes(std::string* b, const std::string& s) {
  put_u32(b, static_cast<std::uint32_t>(s.size()));
  b->append(s);
}

/// Bounds-checked reader; any overrun flips `ok` and subsequent reads
/// return zeros (the caller checks `ok` once at the end).
struct Reader {
  const std::string& buf;
  std::size_t pos = 0;
  bool ok = true;

  bool need(std::size_t n) {
    if (!ok || buf.size() - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return static_cast<std::uint8_t>(buf[pos++]);
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[pos++]))
           << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[pos++]))
           << (8 * i);
    }
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return util::bits_to_double(u64()); }
  /// Non-consuming guard for count-prefixed arrays: true only when `count`
  /// elements of at least `min_size` bytes each could still fit in the
  /// remaining buffer. Checked BEFORE any resize(count), so a garbled count
  /// in an otherwise complete frame cannot provoke a multi-GB allocation
  /// (a bad_alloc thrown inside a shard thread would terminate the parent
  /// instead of taking the kill-and-retry path).
  bool bound(std::uint64_t count, std::size_t min_size) {
    if (!ok || count > (buf.size() - pos) / min_size) ok = false;
    return ok;
  }
  std::string bytes() {
    std::uint32_t n = u32();
    if (!need(n)) return {};
    std::string s = buf.substr(pos, n);
    pos += n;
    return s;
  }
};

void encode_hint(std::string* b, const SimHint* hint) {
  if (hint == nullptr) {
    put_u8(b, 0);
    return;
  }
  put_u8(b, 1);
  put_u32(b, static_cast<std::uint32_t>(hint->ops.size()));
  for (const OpHint& op : hint->ops) {
    put_u8(b, op.valid ? 1 : 0);
    put_u32(b, static_cast<std::uint32_t>(op.node_v.size()));
    for (double v : op.node_v) put_double(b, v);
    put_u32(b, static_cast<std::uint32_t>(op.branch_i.size()));
    for (double v : op.branch_i) put_double(b, v);
  }
}

/// Returns true when a hint was present; fills *hint either way.
bool decode_hint(Reader* r, SimHint* hint) {
  hint->ops.clear();
  if (r->u8() == 0) return false;
  const std::uint32_t nops = r->u32();
  if (!r->bound(nops, 9)) return false;  // 9 = valid byte + two counts
  hint->ops.resize(nops);
  for (std::uint32_t i = 0; i < nops; ++i) {
    OpHint& op = hint->ops[i];
    op.valid = r->u8() != 0;
    const std::uint32_t nv = r->u32();
    if (!r->bound(nv, 8)) return false;
    op.node_v.resize(nv);
    for (double& v : op.node_v) v = r->f64();
    const std::uint32_t ni = r->u32();
    if (!r->bound(ni, 8)) return false;
    op.branch_i.resize(ni);
    for (double& v : op.branch_i) v = r->f64();
  }
  return true;
}

void encode_result(std::string* b, const EvalResult& result) {
  if (result.ok()) {
    put_u8(b, 1);
    const SpecVector& specs = result.value();
    put_u32(b, static_cast<std::uint32_t>(specs.size()));
    for (double v : specs) put_double(b, v);
  } else {
    put_u8(b, 0);
    const util::Error& err = result.error();
    put_i64(b, err.code);
    put_u64(b, err.line);
    put_u64(b, err.col);
    put_bytes(b, err.message);
  }
}

EvalResult decode_result(Reader* r) {
  if (r->u8() != 0) {
    const std::uint32_t nv = r->u32();
    if (!r->bound(nv, 8)) {
      return EvalResult(
          util::Error{"process pool: garbled worker reply",
                      /*code=*/kTransportErrorCode});
    }
    SpecVector specs(nv);
    for (double& v : specs) v = r->f64();
    return EvalResult(std::move(specs));
  }
  util::Error err;
  err.code = static_cast<int>(r->i64());
  err.line = static_cast<std::size_t>(r->u64());
  err.col = static_cast<std::size_t>(r->u64());
  err.message = r->bytes();
  return EvalResult(std::move(err));
}

void encode_stats(std::string* b, const EvalStats& s) {
  put_i64(b, s.simulations);
  put_i64(b, s.cache_hits);
  put_i64(b, s.cache_misses);
  put_i64(b, s.batch_calls);
  put_i64(b, s.batch_points);
  put_i64(b, s.max_batch);
  put_double(b, s.sim_seconds);
  put_i64(b, s.newton_iterations);
  put_i64(b, s.symbolic_factorizations);
  put_i64(b, s.numeric_factorizations);
  put_i64(b, s.dense_fallbacks);
  put_i64(b, s.warm_start_attempts);
  put_i64(b, s.warm_start_hits);
  put_i64(b, s.batch_refactorizations);
  put_i64(b, s.disk_hits);
  put_i64(b, s.disk_appends);
  put_i64(b, s.worker_dispatches);
  put_i64(b, s.worker_retries);
  put_i64(b, s.worker_restarts);
}

EvalStats decode_stats(Reader* r) {
  EvalStats s;
  s.simulations = r->i64();
  s.cache_hits = r->i64();
  s.cache_misses = r->i64();
  s.batch_calls = r->i64();
  s.batch_points = r->i64();
  s.max_batch = r->i64();
  s.sim_seconds = r->f64();
  s.newton_iterations = r->i64();
  s.symbolic_factorizations = r->i64();
  s.numeric_factorizations = r->i64();
  s.dense_fallbacks = r->i64();
  s.warm_start_attempts = r->i64();
  s.warm_start_hits = r->i64();
  s.batch_refactorizations = r->i64();
  s.disk_hits = r->i64();
  s.disk_appends = r->i64();
  s.worker_dispatches = r->i64();
  s.worker_retries = r->i64();
  s.worker_restarts = r->i64();
  return s;
}

bool send_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    // MSG_NOSIGNAL: a crashed peer must surface as EPIPE, not kill the
    // parent with SIGPIPE.
    ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool send_frame(int fd, const std::string& payload) {
  std::string frame;
  frame.reserve(payload.size() + 4);
  put_u32(&frame, static_cast<std::uint32_t>(payload.size()));
  frame.append(payload);
  return send_all(fd, frame.data(), frame.size());
}

/// Blocking receive (no deadline) — the child side, which waits forever
/// for the next request and exits on EOF.
bool recv_all_blocking(int fd, char* data, std::size_t n) {
  while (n > 0) {
    ssize_t r = ::recv(fd, data, n, 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;  // EOF or error
    data += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool recv_frame_blocking(int fd, std::string* payload) {
  char len_buf[4];
  if (!recv_all_blocking(fd, len_buf, 4)) return false;
  std::string len_str(len_buf, 4);
  Reader r{len_str};
  const std::uint32_t len = r.u32();
  payload->assign(len, '\0');
  return len == 0 || recv_all_blocking(fd, payload->data(), len);
}

/// Deadline-bounded receive — the parent side. Returns false on timeout,
/// EOF or error.
bool recv_all_deadline(int fd, char* data, std::size_t n,
                       std::chrono::steady_clock::time_point deadline) {
  while (n > 0) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    const long wait_ms = static_cast<long>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count() +
        1);
    struct pollfd pfd{fd, POLLIN, 0};
    int p = ::poll(&pfd, 1, static_cast<int>(wait_ms));
    if (p < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (p == 0) return false;  // timed out
    ssize_t r = ::recv(fd, data, n, 0);
    if (r < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (r <= 0) return false;
    data += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool recv_frame_deadline(int fd, std::string* payload,
                         std::chrono::steady_clock::time_point deadline) {
  char len_buf[4];
  if (!recv_all_deadline(fd, len_buf, 4, deadline)) return false;
  std::string len_str(len_buf, 4);
  Reader r{len_str};
  const std::uint32_t len = r.u32();
  payload->assign(len, '\0');
  return len == 0 || recv_all_deadline(fd, payload->data(), len, deadline);
}

/// Deadline-bounded send — the parent side. MSG_DONTWAIT keeps each send
/// partial instead of blocking until everything is buffered; a full socket
/// buffer is waited out with poll(POLLOUT) only until the deadline. A child
/// that is alive but not reading (wedged mid-request) with a request larger
/// than the socketpair buffer therefore trips the same kill-and-retry path
/// as a crash, instead of blocking the shard thread forever while it holds
/// the worker mutex.
bool send_all_deadline(int fd, const char* data, std::size_t n,
                       std::chrono::steady_clock::time_point deadline) {
  while (n > 0) {
    ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return false;
      const long wait_ms = static_cast<long>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
              .count() +
          1);
      struct pollfd pfd{fd, POLLOUT, 0};
      int p = ::poll(&pfd, 1, static_cast<int>(wait_ms));
      if (p < 0 && errno != EINTR) return false;
      continue;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool send_frame_deadline(int fd, const std::string& payload,
                         std::chrono::steady_clock::time_point deadline) {
  std::string frame;
  frame.reserve(payload.size() + 4);
  put_u32(&frame, static_cast<std::uint32_t>(payload.size()));
  frame.append(payload);
  return send_all_deadline(fd, frame.data(), frame.size(), deadline);
}

// ---- zygote control channel (SCM_RIGHTS fd passing) -----------------------

/// Zygote -> parent: one fixed-size status message (ok byte + worker pid),
/// with the worker's parent-end socket attached as ancillary data when ok.
bool send_spawn_reply(int sock, int worker_fd, pid_t worker_pid) {
  char payload[1 + sizeof(std::int64_t)];
  payload[0] = worker_fd >= 0 ? 1 : 0;
  const std::int64_t pid64 = static_cast<std::int64_t>(worker_pid);
  std::memcpy(payload + 1, &pid64, sizeof(pid64));
  struct iovec iov{payload, sizeof(payload)};
  struct msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  alignas(struct cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))];
  if (worker_fd >= 0) {
    std::memset(cbuf, 0, sizeof(cbuf));
    msg.msg_control = cbuf;
    msg.msg_controllen = sizeof(cbuf);
    struct cmsghdr* cm = CMSG_FIRSTHDR(&msg);
    cm->cmsg_level = SOL_SOCKET;
    cm->cmsg_type = SCM_RIGHTS;
    cm->cmsg_len = CMSG_LEN(sizeof(int));
    std::memcpy(CMSG_DATA(cm), &worker_fd, sizeof(int));
  }
  ssize_t w;
  do {
    w = ::sendmsg(sock, &msg, MSG_NOSIGNAL);
  } while (w < 0 && errno == EINTR);
  return w == static_cast<ssize_t>(sizeof(payload));
}

/// Parent side of send_spawn_reply. Returns false only when the channel
/// itself is broken (EOF/error/short read) — a well-formed "fork failed"
/// reply returns true with *worker_fd left at -1.
bool recv_spawn_reply(int sock, int* worker_fd, pid_t* worker_pid) {
  *worker_fd = -1;
  *worker_pid = -1;
  char payload[1 + sizeof(std::int64_t)];
  struct iovec iov{payload, sizeof(payload)};
  struct msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  alignas(struct cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))];
  msg.msg_control = cbuf;
  msg.msg_controllen = sizeof(cbuf);
  ssize_t r;
  do {
    r = ::recvmsg(sock, &msg, MSG_CMSG_CLOEXEC);
  } while (r < 0 && errno == EINTR);
  if (r != static_cast<ssize_t>(sizeof(payload))) return false;
  int received_fd = -1;
  for (struct cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr;
       cm = CMSG_NXTHDR(&msg, cm)) {
    if (cm->cmsg_level == SOL_SOCKET && cm->cmsg_type == SCM_RIGHTS) {
      std::memcpy(&received_fd, CMSG_DATA(cm), sizeof(int));
    }
  }
  if (payload[0] == 0) {
    if (received_fd >= 0) ::close(received_fd);  // malformed: drop the fd
    return true;
  }
  if (received_fd < 0) return true;  // malformed success: treat as failed
  std::int64_t pid64 = -1;
  std::memcpy(&pid64, payload + 1, sizeof(pid64));
  *worker_fd = received_fd;
  *worker_pid = static_cast<pid_t>(pid64);
  return true;
}

}  // namespace

// ---- lifecycle ------------------------------------------------------------

ProcessPoolBackend::ProcessPoolBackend(InnerFactory inner_factory,
                                       const Options& options)
    : inner_factory_(std::move(inner_factory)), options_(options) {
  // The zygote MUST fork here, while this process is still single-threaded
  // (the trainer has not spawned rollout threads yet) — that quiescent fork
  // is what makes every later worker spawn safe.
  start_zygote();
  const std::size_t n = std::max<std::size_t>(1, options_.workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    spawn_worker_locked(*workers_.back());
  }
}

ProcessPoolBackend::~ProcessPoolBackend() {
  for (auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mutex);
    if (worker->fd >= 0) {
      unregister_parent_fd(worker->fd);
      ::close(worker->fd);  // EOF tells the child to _exit cleanly
      worker->fd = -1;
    }
    if (worker->pid > 0) {
      if (worker->direct) {
        // Only fallback-forked workers are our children; zygote-spawned
        // ones are the zygote's (the kernel reaps them — see zygote_main).
        int status = 0;
        ::waitpid(worker->pid, &status, 0);
      }
      worker->pid = -1;
    }
  }
  shutdown_zygote();
}

void ProcessPoolBackend::register_parent_fd(int fd) {
  std::lock_guard<std::mutex> lock(parent_fds_mutex_);
  parent_fds_.push_back(fd);
}

void ProcessPoolBackend::unregister_parent_fd(int fd) {
  std::lock_guard<std::mutex> lock(parent_fds_mutex_);
  parent_fds_.erase(std::remove(parent_fds_.begin(), parent_fds_.end(), fd),
                    parent_fds_.end());
}

void ProcessPoolBackend::start_zygote() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return;
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return;
  }
  if (pid == 0) {
    ::close(fds[0]);
    zygote_main(fds[1]);  // never returns
  }
  ::close(fds[1]);
  zygote_fd_ = fds[0];
  zygote_pid_ = pid;
  register_parent_fd(zygote_fd_);
}

void ProcessPoolBackend::shutdown_zygote() {
  std::lock_guard<std::mutex> lock(zygote_mutex_);
  if (zygote_fd_ >= 0) {
    unregister_parent_fd(zygote_fd_);
    ::close(zygote_fd_);  // EOF: the zygote loop exits
    zygote_fd_ = -1;
  }
  if (zygote_pid_ > 0) {
    int status = 0;
    ::waitpid(zygote_pid_, &status, 0);
    zygote_pid_ = -1;
  }
}

void ProcessPoolBackend::zygote_main(int control_fd) {
  // The zygote stays single-threaded for its whole life, so its forks are
  // always safe: a worker may malloc and start threads immediately.
  // With SIGCHLD ignored the kernel reaps exited workers — no zombie
  // accumulates even though the parent never waits on grandchildren.
  ::signal(SIGCHLD, SIG_IGN);
  char cmd = 0;
  while (recv_all_blocking(control_fd, &cmd, 1)) {
    int pair[2] = {-1, -1};
    pid_t pid = -1;
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) == 0) {
      pid = ::fork();
      if (pid == 0) {
        // The worker: shed the zygote's descriptors, then serve. It
        // inherits nothing else — sibling workers' sockets live only in
        // the parent process.
        ::close(control_fd);
        ::close(pair[0]);
        child_main(pair[1]);  // never returns
      }
      ::close(pair[1]);
      if (pid < 0) {
        ::close(pair[0]);
        pair[0] = -1;
      }
    }
    const bool sent = send_spawn_reply(control_fd, pair[0], pid);
    if (pair[0] >= 0) ::close(pair[0]);  // parent holds its own copy now
    if (!sent) break;
  }
  ::_exit(0);
}

bool ProcessPoolBackend::spawn_via_zygote(int* fd, pid_t* pid) {
  std::lock_guard<std::mutex> lock(zygote_mutex_);
  if (zygote_fd_ < 0) return false;
  char cmd = 'S';
  if (!send_all(zygote_fd_, &cmd, 1) ||
      !recv_spawn_reply(zygote_fd_, fd, pid)) {
    // The control channel is broken — the zygote is gone. Close our end so
    // every later spawn falls straight back to direct forks.
    unregister_parent_fd(zygote_fd_);
    ::close(zygote_fd_);
    zygote_fd_ = -1;
    return false;
  }
  return *fd >= 0;
}

void ProcessPoolBackend::spawn_direct(int* out_fd, pid_t* out_pid) {
  // Snapshot the pool's open fds BEFORE forking, under the registry lock —
  // never by walking workers_ in the child, where a concurrent kill/spawn
  // could be mid-update and a reused fd number would make us close a
  // stranger's descriptor.
  std::vector<int> inherited;
  {
    std::lock_guard<std::mutex> lock(parent_fds_mutex_);
    inherited = parent_fds_;
  }
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return;
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return;
  }
  if (pid == 0) {
    ::close(fds[0]);
    for (int f : inherited) ::close(f);
    child_main(fds[1]);  // never returns
  }
  ::close(fds[1]);
  *out_fd = fds[0];
  *out_pid = pid;
}

void ProcessPoolBackend::spawn_worker_locked(Worker& worker) {
  worker.fd = -1;
  worker.pid = -1;
  worker.direct = false;
  if (spawn_via_zygote(&worker.fd, &worker.pid)) {
    register_parent_fd(worker.fd);
    return;
  }
  spawn_direct(&worker.fd, &worker.pid);
  if (worker.fd >= 0) {
    worker.direct = true;
    register_parent_fd(worker.fd);
  }
}

void ProcessPoolBackend::kill_worker_locked(Worker& worker) {
  if (worker.fd >= 0) {
    unregister_parent_fd(worker.fd);
    ::close(worker.fd);
    worker.fd = -1;
  }
  if (worker.pid > 0) {
    ::kill(worker.pid, SIGKILL);
    if (worker.direct) {
      int status = 0;
      ::waitpid(worker.pid, &status, 0);
    }
    worker.pid = -1;
  }
}

// ---- child ----------------------------------------------------------------

void ProcessPoolBackend::child_main(int fd) {
  // Build the evaluation stack fresh in this process: anything the factory
  // creates (threads included) is born after the fork and works.
  std::shared_ptr<EvalBackend> inner;
  try {
    inner = inner_factory_();
  } catch (...) {
    ::_exit(3);
  }
  if (!inner) ::_exit(3);

  std::string request;
  std::string reply;
  std::vector<ParamVector> points;
  std::vector<SimHint> hints;
  std::vector<SimHint*> hint_ptrs;

  while (recv_frame_blocking(fd, &request)) {
    Reader r{request};
    const std::uint32_t n = r.u32();
    if (!r.bound(n, 4)) ::_exit(2);  // 4 = each point's own count prefix
    points.assign(n, ParamVector{});
    for (auto& p : points) {
      const std::uint32_t np = r.u32();
      if (!r.bound(np, 8)) ::_exit(2);
      p.resize(np);
      for (int& k : p) k = static_cast<int>(r.i64());
    }
    hints.assign(n, SimHint{});
    hint_ptrs.assign(n, nullptr);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (decode_hint(&r, &hints[i])) hint_ptrs[i] = &hints[i];
    }
    if (!r.ok) ::_exit(2);

    EvalStats before = inner->stats();
    if (options_.leaf_stats) before += options_.leaf_stats();

    std::vector<EvalResult> results;
    try {
      results = dispatch_batch(*inner, points, hint_ptrs);
    } catch (...) {
      ::_exit(2);  // parent sees the closed socket and retries per point
    }

    EvalStats after = inner->stats();
    if (options_.leaf_stats) after += options_.leaf_stats();

    reply.clear();
    put_u32(&reply, static_cast<std::uint32_t>(results.size()));
    for (const EvalResult& result : results) encode_result(&reply, result);
    for (std::uint32_t i = 0; i < n; ++i) {
      encode_hint(&reply, hint_ptrs[i]);
    }
    encode_stats(&reply, after.since(before));
    if (!send_frame(fd, reply)) break;
  }
  // EOF (normal shutdown) or a send failure: exit without running atexit
  // handlers — this process shares the parent's global state images.
  ::_exit(0);
}

// ---- parent ---------------------------------------------------------------

ProcessPoolBackend::Worker& ProcessPoolBackend::pick_worker() {
  const std::size_t i =
      next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  return *workers_[i];
}

bool ProcessPoolBackend::round_trip(Worker& worker,
                                    const std::string& request,
                                    std::string* reply) {
  std::lock_guard<std::mutex> lock(worker.mutex);
  if (worker.fd < 0) spawn_worker_locked(worker);
  if (worker.fd < 0) return false;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.request_timeout_ms);
  if (send_frame_deadline(worker.fd, request, deadline) &&
      recv_frame_deadline(worker.fd, reply, deadline)) {
    return true;
  }
  // Crash or deadline miss: replace the worker so the retry (and every
  // later request) lands on a healthy process.
  kill_worker_locked(worker);
  spawn_worker_locked(worker);
  counters_.add_worker_restart();
  trace::counter(trace::names::kEvalWorkerRestart);
  return false;
}

void ProcessPoolBackend::run_on_worker(Worker& worker,
                                       const std::vector<ParamVector>& points,
                                       const std::vector<SimHint*>& hints,
                                       std::vector<EvalResult>* out) {
  auto encode_request = [&](std::size_t begin, std::size_t end) {
    std::string request;
    put_u32(&request, static_cast<std::uint32_t>(end - begin));
    for (std::size_t i = begin; i < end; ++i) {
      put_u32(&request, static_cast<std::uint32_t>(points[i].size()));
      for (int k : points[i]) put_i64(&request, k);
    }
    for (std::size_t i = begin; i < end; ++i) {
      encode_hint(&request, hint_at(hints, i));
    }
    return request;
  };

  // Decode a reply for points [begin, end): results by input index, hint
  // write-back, and the child's stats delta folded into child_stats_.
  auto apply_reply = [&](const std::string& reply, std::size_t begin,
                         std::size_t end) {
    Reader r{reply};
    const std::uint32_t n = r.u32();
    if (n != end - begin) return false;
    for (std::size_t i = begin; i < end; ++i) {
      (*out)[i] = decode_result(&r);
    }
    SimHint decoded;
    for (std::size_t i = begin; i < end; ++i) {
      const bool present = decode_hint(&r, &decoded);
      SimHint* target = hint_at(hints, i);
      if (present && target != nullptr) target->ops = std::move(decoded.ops);
    }
    EvalStats delta = decode_stats(&r);
    if (!r.ok) return false;
    {
      std::lock_guard<std::mutex> lock(child_stats_mutex_);
      child_stats_ += delta;
    }
    return true;
  };

  auto dispatch = [&](std::size_t begin, std::size_t end) {
    trace::TraceSpan span(trace::names::kEvalWorkerDispatch);
    trace::counter(trace::names::kEvalWorkerPoints,
                   static_cast<std::int64_t>(end - begin));
    counters_.add_worker_dispatch();
    std::string reply;
    return round_trip(worker, encode_request(begin, end), &reply) &&
           apply_reply(reply, begin, end);
  };

  if (dispatch(0, points.size())) return;

  // The chunk failed (worker crash, timeout, or garbled reply). Retry each
  // point individually — once — so one poison point cannot poison its
  // chunk-mates' results.
  for (std::size_t i = 0; i < points.size(); ++i) {
    counters_.add_worker_retry();
    trace::counter(trace::names::kEvalWorkerRetry);
    if (dispatch(i, i + 1)) continue;
    (*out)[i] = util::Error{
        "process pool: worker crashed or timed out evaluating this point "
        "(retried once)",
        /*code=*/kTransportErrorCode};
  }
}

EvalResult ProcessPoolBackend::do_evaluate(const ParamVector& params,
                                           SimHint* hint) {
  std::vector<EvalResult> out(1, EvalResult(SpecVector{}));
  run_on_worker(pick_worker(), {params}, {hint}, &out);
  return out[0];
}

std::vector<EvalResult> ProcessPoolBackend::do_evaluate_batch(
    const std::vector<ParamVector>& points,
    const std::vector<SimHint*>& hints) {
  std::vector<EvalResult> out(points.size(), EvalResult(SpecVector{}));
  if (points.empty()) return out;

  // Contiguous, balanced shards — one request per worker. Reassembly is by
  // input index, so the output order (and content) matches the serial path
  // regardless of which worker finishes first.
  const std::size_t n_shards = std::min(workers_.size(), points.size());
  std::vector<std::pair<std::size_t, std::size_t>> shards;
  shards.reserve(n_shards);
  const std::size_t base = points.size() / n_shards;
  const std::size_t extra = points.size() % n_shards;
  std::size_t begin = 0;
  for (std::size_t s = 0; s < n_shards; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    shards.emplace_back(begin, begin + len);
    begin += len;
  }

  auto run_shard = [&](std::size_t s) {
    const auto [lo, hi] = shards[s];
    std::vector<ParamVector> shard_points(points.begin() + lo,
                                          points.begin() + hi);
    std::vector<SimHint*> shard_hints;
    shard_hints.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      shard_hints.push_back(hint_at(hints, i));
    }
    std::vector<EvalResult> shard_out(hi - lo, EvalResult(SpecVector{}));
    run_on_worker(*workers_[s % workers_.size()], shard_points, shard_hints,
                  &shard_out);
    for (std::size_t i = lo; i < hi; ++i) out[i] = shard_out[i - lo];
  };

  // The calling thread drives shard 0; one std::thread per further shard
  // keeps all round trips in flight concurrently.
  std::vector<std::thread> threads;
  threads.reserve(n_shards - 1);
  for (std::size_t s = 1; s < n_shards; ++s) {
    threads.emplace_back(run_shard, s);
  }
  run_shard(0);
  for (auto& t : threads) t.join();
  return out;
}

EvalStats ProcessPoolBackend::inner_stats() const {
  std::lock_guard<std::mutex> lock(child_stats_mutex_);
  return child_stats_;
}

void ProcessPoolBackend::reset_inner_stats() {
  std::lock_guard<std::mutex> lock(child_stats_mutex_);
  child_stats_ = EvalStats{};
}

}  // namespace autockt::eval
