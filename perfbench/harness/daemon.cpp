// daemon_stream: iscope_serve as a child process, driven over its unix
// socket by one load generator on one connection.
//
// A session spawns the daemon, admits the generated jobs open-loop (each
// ADMIT timed from its due time), ADVANCEs the clock once per supply epoch
// of admitted submit time, probes DECIDE_NOW and takes a CHECKPOINT
// periodically, drains, and checks RESULT against a batch SimHost twin
// built from the same options. It then SIGTERMs the daemon, times a
// --resume restart and checks RESULT again.
// A run first makes one unpaced session to measure the connection's
// capacity for this traffic; the measured sessions then run at a fixed
// fraction of it. They repeat for the requested seconds, and until every
// reported p99 has at least ten samples beyond it.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "measure.hpp"
#include "sched/policy.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/synthetic.hpp"
#include "workload/urgency.hpp"

namespace perfbench {

using namespace iscope;
using namespace iscope::service;

namespace {

/// 960 CPUs / 1 600 jobs: small enough that the matcher is a minor share
/// of the daemon's time, so the service path itself shows.
constexpr double kScale = 2.0;
/// Open-loop ADMIT rate as a share of the measured closed-loop capacity:
/// half load leaves the one-connection generator slack to keep its
/// schedule, so ADMIT latency shows the daemon's stalls (an ADVANCE,
/// DECIDE_NOW or CHECKPOINT ahead of an ADMIT on the connection), not a
/// backlog that grows through the session.
constexpr double kLoadFraction = 0.5;
/// One DECIDE_NOW per this many ADMITs: a monitoring poll, 4% of the
/// frames, too few to shift ADMIT latency.
constexpr std::size_t kDecideEvery = 25;
/// CHECKPOINTs per session, evenly spaced in the trace, so checkpoint time
/// and size are sampled as the history grows; the last holds all of it.
constexpr std::size_t kCheckpoints = 4;
/// Samples each reported p99 needs: ten beyond it.
constexpr std::size_t kMinTailSamples = 1000;
const char* const kSocket = "serve.sock";
const char* const kCheckpoint = "serve.ckpt";

/// A running iscope_serve; killed and reaped on destruction. (The tests'
/// service_client.hpp spawns the daemon the same way but keeps the child's
/// pid private, and the daemon's CPU and VmHWM readings need it.)
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args) {
    int out[2];
    if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
    start_ = wall_s();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(binary.c_str()));
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    stdout_fd_ = out[0];
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Seconds from spawn to the readiness line.
  double wait_ready() {
    std::string seen;
    pollfd p{stdout_fd_, POLLIN, 0};
    while (seen.find("listening on") == std::string::npos) {
      if (wall_s() - start_ > 60.0) throw std::runtime_error("daemon not ready");
      if (::poll(&p, 1, 100) <= 0) continue;
      char buf[256];
      const ssize_t n = ::read(stdout_fd_, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("daemon exited before readiness");
      seen.append(buf, static_cast<std::size_t>(n));
    }
    return wall_s() - start_;
  }
  pid_t pid() const { return pid_; }
  /// SIGTERM (checkpoint and exit); returns the exit code.
  int terminate() {
    ::kill(pid_, SIGTERM);
    return reap();
  }
  int reap() {
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  double start_ = 0.0;
};

/// Blocking wire client on one unix-socket connection.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    for (int tries = 0;; ++tries) {
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0)
        break;
      if (tries > 200) throw std::runtime_error("connect failed");
      ::usleep(10'000);
    }
    timeval tv{};
    tv.tv_sec = 60;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(MsgType type, const std::vector<std::uint8_t>& payload = {}) {
    const std::vector<std::uint8_t> f = encode_frame(type, payload);
    std::size_t off = 0;
    while (off < f.size()) {
      const ssize_t w = ::send(fd_, f.data() + off, f.size() - off, MSG_NOSIGNAL);
      if (w < 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(w);
    }
  }
  Frame recv() {
    Frame f;
    while (!reader_.next(f)) {
      std::uint8_t buf[65536];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) throw std::runtime_error("daemon closed the connection");
      reader_.feed(buf, static_cast<std::size_t>(n));
    }
    return f;
  }
  /// Send and wait for a reply of type `want`, collecting streamed
  /// decisions on the way.
  Frame call(MsgType type, const std::vector<std::uint8_t>& payload,
             MsgType want, std::vector<TimelineEvent>* decisions = nullptr) {
    send(type, payload);
    while (true) {
      Frame f = recv();
      if (f.type == MsgType::kDecision && decisions != nullptr) {
        decisions->push_back(parse_decision(f.payload));
        continue;
      }
      if (f.type != want) throw std::runtime_error("unexpected reply from daemon");
      return f;
    }
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

void wait_until(double t) {
  // Sleep most of the gap, spin the rest: a sleep alone overshoots by the
  // scheduler's wakeup latency, which would read as generator lag.
  while (true) {
    const double left = t - wall_s();
    if (left <= 0.0) return;
    if (left > 6e-4) {
      const double nap = left - 4e-4;
      timespec ts{static_cast<time_t>(nap), static_cast<long>(1e9 * (nap - std::floor(nap)))};
      ::nanosleep(&ts, nullptr);
    }
  }
}

bool same_summary(const ResultSummary& s, const SimResult& r) {
  return s.wind_j == r.energy.wind.joules() &&
         s.utility_j == r.energy.utility.joules() &&
         s.curtailed_j == r.wind_curtailed.joules() &&
         s.battery_delivered_j == r.battery_delivered.joules() &&
         s.battery_losses_j == r.battery_losses.joules() &&
         s.cost_usd == r.cost.dollars() &&
         s.tasks_completed == r.tasks_completed &&
         s.deadline_misses == r.deadline_misses &&
         s.mean_wait_s == r.mean_wait.seconds() &&
         s.makespan_s == r.makespan.seconds() &&
         s.events_processed == r.events_processed &&
         s.rematches == r.dvfs_rematch_count &&
         s.task_requeues == r.faults.task_requeues &&
         s.tasks_failed == r.faults.tasks_failed;
}

bool same_decisions(const std::vector<TimelineEvent>& a,
                    const std::vector<TimelineEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].time_s != b[i].time_s || a[i].kind != b[i].kind ||
        a[i].task_id != b[i].task_id || a[i].value != b[i].value)
      return false;
  return true;
}

/// The highest supply-epoch boundary strictly before `submit_s`: advancing
/// to it never passes a job that is still to be admitted.
double epoch_before(double submit_s, double epoch_s) {
  double b = std::floor(submit_s / epoch_s) * epoch_s;
  if (b >= submit_s) b -= epoch_s;
  return b;
}

struct Inputs {
  ServiceOptions opt;
  std::vector<std::string> args;
  std::vector<Task> tasks;  ///< submit order
  double epoch_s = 600.0;
};

Inputs make_inputs(const Options& o) {
  const ExperimentConfig cfg = ExperimentConfig::paper_small().scaled(kScale);
  Inputs in;
  in.opt.scheme = Scheme::kScanFair;
  in.opt.scale = kScale;
  in.opt.socket_path = kSocket;
  in.opt.checkpoint_path = kCheckpoint;
  in.args = {"--socket", kSocket, "--scheme", "ScanFair", "--scale", "2",
             "--seed", std::to_string(in.opt.seed), "--checkpoint", kCheckpoint};
  in.epoch_s = cfg.sim.epoch_s;
  // make_tasks() of the daemon's own preset, jittered by the seed: the
  // daemon only ever sees these through ADMIT frames.
  SyntheticWorkloadConfig wl = cfg.workload;
  wl.max_cpus = std::min(wl.max_cpus, cfg.cluster.num_processors);
  in.tasks = generate_workload(wl);
  assign_deadlines(in.tasks, cfg.urgency);
  jitter_arrivals(in.tasks, o.variant);
  return in;
}

/// What one session measured.
struct Session {
  double setup_s = 0.0;
  double resume_s = 0.0;
  double run_s = 0.0;  ///< ADVANCE + DRAIN round trips
  double stream_s = 0.0;  ///< first ADMIT due to the end of the ADMIT loop
  double cpu_s = 0.0;  ///< daemon CPU from readiness to RESULT
  double rss_mb = 0.0;
  double advance_s = 0.0;
  std::size_t advance_events = 0;
  std::size_t decisions = 0;
  std::size_t busy = 0;
  std::size_t errors = 0;
  std::size_t admits = 0;
  std::vector<double> admit_us;
  std::vector<double> lag_us;
  std::vector<double> advance_ms;
  std::vector<double> decide_us;
  std::vector<double> checkpoint_ms;
  double checkpoint_bytes = 0.0;
  ResultSummary result;
};

Session run_session(const Options& o, const Inputs& in, const SimResult& batch,
                    double admit_rate, Report& report) {
  Session s;
  ::unlink(kCheckpoint);
  Daemon daemon(o.serve_bin, in.args);
  s.setup_s = daemon.wait_ready();
  const double cpu0 = child_cpu_s(daemon.pid());
  std::vector<TimelineEvent> decisions;
  {
    Client c(kSocket);
    c.call(MsgType::kHello, encode_hello(), MsgType::kHelloOk);
    double clock = 0.0;
    const double t0 = wall_s() + 0.01;
    for (std::size_t i = 0; i < in.tasks.size(); ++i) {
      const Task& task = in.tasks[i];
      const double boundary = epoch_before(task.submit_s, in.epoch_s);
      if (boundary > clock) {
        const double a0 = wall_s();
        const Frame f = c.call(MsgType::kAdvance, encode_advance(boundary),
                               MsgType::kAdvanceDone, &decisions);
        const double dt = wall_s() - a0;
        s.advance_ms.push_back(1e3 * dt);
        s.advance_s += dt;
        s.advance_events += parse_advance_done(f.payload).events_run;
        clock = boundary;
      }
      const double due = t0 + static_cast<double>(i) / admit_rate;
      wait_until(due);
      const double sent = wall_s();
      c.send(MsgType::kAdmit, encode_admit(task));
      const Frame reply = c.recv();
      const double done = wall_s();
      s.lag_us.push_back(1e6 * (sent - due));
      s.admit_us.push_back(1e6 * (done - due));
      if (reply.type == MsgType::kAdmitOk) ++s.admits;
      else if (reply.type == MsgType::kBusy) ++s.busy;
      else ++s.errors;
      report.op(reply.type == MsgType::kAdmitOk, "ADMIT refused");
      if ((i + 1) % kDecideEvery == 0) {
        const double d0 = wall_s();
        const Frame snap = c.call(MsgType::kDecideNow, {}, MsgType::kSnapshot);
        s.decide_us.push_back(1e6 * (wall_s() - d0));
        report.op(parse_snapshot(snap.payload).now_s == clock,
                  "DECIDE_NOW clock differs from the last ADVANCE");
      }
      if ((i + 1) % (in.tasks.size() / kCheckpoints) == 0) {
        const double k0 = wall_s();
        c.call(MsgType::kCheckpoint, encode_text(""), MsgType::kCheckpointOk);
        s.checkpoint_ms.push_back(1e3 * (wall_s() - k0));
        struct stat st {};
        const bool written = ::stat(kCheckpoint, &st) == 0 && st.st_size > 0;
        s.checkpoint_bytes = static_cast<double>(st.st_size);
        report.op(written, "CHECKPOINT wrote no file");
      }
    }
    s.stream_s = wall_s() - t0;
    const double d0 = wall_s();
    c.call(MsgType::kDrain, {}, MsgType::kDrained, &decisions);
    s.run_s = s.advance_s + (wall_s() - d0);
    s.result = parse_result_summary(
        c.call(MsgType::kResult, {}, MsgType::kResultSummary).payload);
    s.cpu_s = child_cpu_s(daemon.pid()) - cpu0;
    s.rss_mb = peak_rss_mb(daemon.pid());
    s.decisions = decisions.size();
    report.op(same_summary(s.result, batch), "RESULT differs from the batch twin");
    report.op(same_decisions(decisions, batch.timeline),
              "streamed decisions differ from the batch twin");
  }
  report.op(daemon.terminate() == 0, "daemon did not exit cleanly on SIGTERM");

  // Restart from the SIGTERM checkpoint: the drained state must come back.
  Daemon resumed(o.serve_bin, [&] {
    std::vector<std::string> a = in.args;
    a.push_back("--resume");
    return a;
  }());
  s.resume_s = resumed.wait_ready();
  {
    Client c(kSocket);
    c.call(MsgType::kHello, encode_hello(), MsgType::kHelloOk);
    const ResultSummary again = parse_result_summary(
        c.call(MsgType::kResult, {}, MsgType::kResultSummary).payload);
    report.op(same_summary(again, batch), "resumed RESULT differs");
    c.call(MsgType::kShutdown, {}, MsgType::kShutdownOk);
  }
  report.op(resumed.reap() == 0, "resumed daemon did not shut down cleanly");
  return s;
}

/// In-process replay of a session's ADMIT/ADVANCE sequence on a SimHost --
/// the daemon's own engine -- for the span ledger, which cannot leave the
/// daemon's process. `host` must be freshly built. Returns the replay's
/// wall time; `result` gets the outcome.
double replay(const Inputs& in, SimHost& host, SimResult& result) {
  DatacenterSim& sim = host.sim();
  const double t0 = wall_s();
  sim.prepare({}, {});
  double clock = 0.0;
  for (const Task& task : in.tasks) {
    const double boundary = epoch_before(task.submit_s, in.epoch_s);
    if (boundary > clock) {
      sim.step_until(boundary);
      clock = boundary;
    }
    sim.admit(task);
  }
  sim.advance_before(std::numeric_limits<double>::infinity());
  result = sim.finish();
  return wall_s() - t0;
}

}  // namespace

void run_daemon_stream(const Options& o, Report& report) {
  const Inputs in = make_inputs(o);
  // The batch twin: same options, same construction (SimHost), whole trace
  // handed to run() -- the streamed daemon must reproduce it exactly.
  SimResult batch;
  {
    SimHost twin(in.opt);
    batch = twin.sim().run(in.tasks);
  }
  const std::string label = scheme_name(in.opt.scheme);
  if (o.emit_expected) {
    emit_expected(o, label, outcome_of(batch));
    return;
  }
  // Every session's RESULT must equal the twin's, and the twin the table.
  check_expected(o, label, outcome_of(batch), report, "daemon batch twin");

  // Closed loop: with no pacing every ADMIT is due at once, so the
  // session's traffic goes out as fast as the daemon answers it.
  const Session unpaced = run_session(
      o, in, batch, std::numeric_limits<double>::infinity(), report);
  const double capacity =
      static_cast<double>(in.tasks.size()) / unpaced.stream_s;
  const double admit_rate = kLoadFraction * capacity;

  // Traced runs make the same sessions: the service.* figures come from
  // them.
  std::vector<Session> sessions;
  std::vector<double> setup, resume, run, cpu, rss, admit, lag, advance,
      decide, ckpt;
  double advance_s = 0.0;
  std::size_t advance_events = 0;
  const double start = wall_s();
  while (wall_s() - start < o.seconds ||
         std::min({admit.size(), advance.size(), decide.size()}) <
             kMinTailSamples) {
    sessions.push_back(run_session(o, in, batch, admit_rate, report));
    const Session& s = sessions.back();
    setup.push_back(s.setup_s);
    resume.push_back(s.resume_s);
    run.push_back(s.run_s);
    cpu.push_back(s.cpu_s);
    rss.push_back(s.rss_mb);
    admit.insert(admit.end(), s.admit_us.begin(), s.admit_us.end());
    lag.insert(lag.end(), s.lag_us.begin(), s.lag_us.end());
    advance.insert(advance.end(), s.advance_ms.begin(), s.advance_ms.end());
    decide.insert(decide.end(), s.decide_us.begin(), s.decide_us.end());
    ckpt.insert(ckpt.end(), s.checkpoint_ms.begin(), s.checkpoint_ms.end());
    advance_s += s.advance_s;
    advance_events += s.advance_events;
  }
  const Session& last = sessions.back();

  if (!o.trace) {
    report.set("setup_s", median(setup), "s");
    report.set("run_s", median(run), "s");
    report.set("events_per_s",
               static_cast<double>(last.result.events_processed) / median(run),
               "1/s");
    report.set("cpu_s", median(cpu), "s");
    report.set("peak_rss_mb", median(rss), "MB");
    return;
  }

  declare_layers(report);
  report.set("sim.events", static_cast<double>(last.result.events_processed), "count");
  report.set("sim.rematches", static_cast<double>(last.result.rematches), "count");
  report.set("sim.tasks_completed",
             static_cast<double>(last.result.tasks_completed), "count");
  report.set("sim.run_s.ScanFair", last.run_s, "s");
  report.set("service.admits", static_cast<double>(last.admits), "count");
  report.set("service.busy", static_cast<double>(last.busy), "count");
  report.set("service.errors", static_cast<double>(last.errors), "count");
  report.set("service.generator_lag_p99_us", quantile(lag, 0.99), "us");
  report.set("service.admit_p50_us", quantile(admit, 0.5), "us");
  report.set("service.admit_p99_us", quantile(admit, 0.99), "us");
  report.set("service.admit_samples", static_cast<double>(admit.size()), "count");
  report.set("service.advance_p50_ms", quantile(advance, 0.5), "ms");
  report.set("service.advance_p99_ms", quantile(advance, 0.99), "ms");
  report.set("service.advance_samples", static_cast<double>(advance.size()),
             "count");
  report.set("service.decide_now_p99_us", quantile(decide, 0.99), "us");
  report.set("service.decide_now_samples", static_cast<double>(decide.size()),
             "count");
  report.set("service.peak_admits_per_s", capacity, "1/s");
  report.set("service.offered_admits_per_s", admit_rate, "1/s");
  report.set("service.resume_s", median(resume), "s");
  report.set("service.decisions", static_cast<double>(last.decisions), "count");
  report.set("service.advance_events_per_s",
             static_cast<double>(advance_events) / advance_s, "1/s");
  report.set("service.checkpoint_ms", median(ckpt), "ms");
  report.set("service.checkpoint_samples", static_cast<double>(ckpt.size()),
             "count");
  report.set("service.checkpoint_bytes", last.checkpoint_bytes, "bytes");

  // Setup layers of the daemon's engine, timed in this process.
  const SetupLayers layers =
      time_setup_layers(ExperimentConfig::paper_small().scaled(kScale));
  const double h0 = wall_s();
  { SimHost host(in.opt); }
  const double host_s = wall_s() - h0;
  const double m0 = wall_s();
  { [[maybe_unused]] const Inputs again = make_inputs(o); }
  const double make_tasks_s = wall_s() - m0;
  report_setup_layers(layers, host_s + make_tasks_s, make_tasks_s, report);

  SimResult plain_result;
  SimResult traced_result;
  SimHost plain_host(in.opt);
  SimHost traced_host(in.opt);
  double plain_s = 0.0;
  double traced_s = 0.0;
  {
    const PinnedToOneCpu pin;
    plain_s = replay(in, plain_host, plain_result);
    telemetry::reset_global_telemetry();
    telemetry::set_enabled(true);
    traced_s = replay(in, traced_host, traced_result);
    telemetry::set_enabled(false);
  }
  report.set("sim.ns_per_event",
             ns_per_event(plain_result.events_processed, plain_s), "ns");
  const SpanLedger ledger = ledger_from_local_trace();
  report.op(report_ledger(ledger, traced_s, plain_s, report),
            "daemon span ledger incomplete");
  report.op(plain_result.events_processed == batch.events_processed &&
                traced_result.events_processed == batch.events_processed &&
                plain_result.cost.dollars() == batch.cost.dollars() &&
                traced_result.cost.dollars() == batch.cost.dollars(),
            "in-process streamed replay differs from the batch twin");
}

}  // namespace perfbench
