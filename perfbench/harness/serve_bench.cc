// The serve_pull workload: the real bdisk_serve binary over AF_UNIX
// datagrams, paced at a slot rate the host sustains, driven by an
// open-loop Poisson pull stream from this process.

#include "serve_bench.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/system.h"
#include "sim/rng.h"
#include "transport/datagram_client.h"
#include "transport/wire.h"
#include "workload/access_generator.h"

extern char** environ;

namespace perfbench {

namespace {

namespace wire = bdisk::transport::wire;
using bdisk::transport::DatagramClientChannel;
using bdisk::transport::DatagramClientOptions;

// Each bdisk_serve runs under a name: it binds NAME.sock and logs to
// NAME.log in the run directory.
constexpr char kMeasuredName[] = "serve";
constexpr char kLaunchName[] = "launch";  // Set-up launches.
constexpr char kOverloadName[] = "overload";
constexpr std::uint32_t kOverloadSlotUs = 1;   // 1M slots/s: overload probe.
// The offered load is the pull stream of the simulated light-load system
// (ipp_light, the same default config bdisk_serve runs), put on the wall
// clock: its virtual client submits 0.5002 arrivals/slot x 0.3799 submit
// ratio = 0.190 pulls per slot (30 s traced ipp_light run), times the
// requested 50k slots/s.
constexpr double kSubmitsPerSlot = 0.190;
constexpr double kPullRate = kSubmitsPerSlot * 1e6 / kServeSlotUs;  // 9500/s.
constexpr double kPullTimeoutS = 0.2;          // Unanswered by then: failed.
constexpr double kWarmupS = 0.2;
constexpr int kChannels = 2;
// Set-up time comes from launches of their own, in bursts between
// stretches of the measured load, so that the median spans the run's host
// time rather than one moment of it. The very first launch, with cold
// caches, is dropped.
constexpr int kLoadStretches = 5;
constexpr int kLaunchesPerBurst = 24;

// One bdisk_serve child. The destructor kills and reaps it, so no exit
// path leaves it running.
class ServeProcess {
 public:
  explicit ServeProcess(const std::string& name)
      : socket_(name + ".sock"), log_(name + ".log") {}
  ~ServeProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  const std::string& socket() const { return socket_; }
  const std::string& log() const { return log_; }

  bool Spawn(const std::string& binary, std::uint32_t slot_us,
             std::uint64_t seed, std::string* error) {
    const std::vector<std::string> args = {
        binary,        "--socket", socket_, "--slot-us",
        std::to_string(slot_us),  "--seed",   std::to_string(seed)};
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    // A stale socket would look like a live server.
    ::unlink(socket_.c_str());
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log_.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      *error = "cannot launch " + binary + ": " + std::strerror(rc);
      return false;
    }
    return true;
  }

  // SIGTERM (graceful drain), then reap. Reports the exit status and the
  // child's peak resident set. SIGKILL after 5 s of no exit.
  bool Stop(int* status, double* peak_rss_mib) {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    rusage usage{};
    const double deadline = NowSeconds() + 5.0;
    for (;;) {
      const pid_t r = ::wait4(pid_, status, WNOHANG, &usage);
      if (r == pid_) break;
      if (r < 0) {
        pid_ = -1;
        return false;
      }
      if (NowSeconds() > deadline) ::kill(pid_, SIGKILL);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    *peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return true;
  }

 private:
  std::string socket_;
  std::string log_;
  pid_t pid_ = -1;
};

// HELLO -> WELCOME, retried while the server is still starting (its
// socket not bound yet). Returns false past `deadline`.
bool ConnectWithRetry(DatagramClientChannel* channel, const std::string& socket,
                      const std::string& id, bdisk::sim::Rng* rng,
                      double deadline, std::string* error) {
  DatagramClientOptions options;
  options.server_path = socket;
  options.client_id = id;
  options.backoff.base = 0.005;
  options.backoff.cap = 0.1;
  options.max_connect_attempts = 8;
  for (;;) {
    // A fresh server binds its socket a little after launch; wait for the
    // file in fine steps so set-up time is not quantized by the retry.
    struct stat st {};
    if (::stat(socket.c_str(), &st) == 0 &&
        channel->Connect(options, rng, error)) {
      return true;
    }
    if (NowSeconds() > deadline) {
      if (error->empty()) *error = "serve socket never appeared";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

std::string ChannelId(const char* prefix, int index) {
  std::string id = prefix;
  id += std::to_string(index);
  return id;
}

struct Pending {
  std::uint64_t id;
  double due;
  std::uint64_t seq_at_send;
};

struct CapturedSlot {
  std::uint64_t seq;
  bdisk::broadcast::PageId page;
  bdisk::server::SlotKind kind;
  double sim_time;
};

// What one or more stretches of open-loop load measured.
struct LoadResult {
  std::uint64_t due = 0;          // Pulls the schedule called for.
  std::uint64_t send_failed = 0;  // Refused by the kernel until timeout.
  std::uint64_t answered = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t slots_heard = 0;  // Channel 0, within the window.
  double window_s = 0;
  std::vector<double> rtt_us;
  std::vector<std::vector<double>> rtt_us_by_second;  // By due time.
  // Spans and per-layer samples (traced stretches only).
  std::vector<double> pull_wait_slots;
  std::vector<double> gen_lag_us;
  std::vector<double> slot_offset_us;  // Arrival - seq * slot period.
  double send_s = 0;
  std::uint64_t sends = 0;
  double poll_s = 0;
  std::uint64_t polled_msgs = 0;
  std::vector<CapturedSlot> captured;
};

// Quantile `q` of the round-trip times of each one-second window of due
// times, median over the windows: a host stall that hits a minority of
// the windows moves this far less than a quantile of the pooled samples.
double WindowedQuantile(const LoadResult& r, double q) {
  std::vector<double> per_window;
  for (std::vector<double> window : r.rtt_us_by_second) {
    if (window.size() >= 100) per_window.push_back(Quantile(&window, q));
  }
  return Median(per_window);
}

// Open-loop Poisson pulls at `rate` for `duration` seconds, alternating
// channels, each for a page drawn from the clients' access pattern; each
// pull is timed from its due time to the first SLOT on its channel that
// carries the page. Afterwards waits out the pull timeout so every pull is
// either answered or failed. Adds what it measured to `*out`.
void RunLoad(std::vector<std::unique_ptr<DatagramClientChannel>>* chans,
             const bdisk::workload::AccessGenerator& pages,
             bdisk::sim::Rng* rng, double rate, double duration,
             double slot_period_s, bool traced, LoadResult* out) {
  LoadResult& r = *out;
  const std::size_t first_window = r.rtt_us_by_second.size();
  const std::uint32_t db = (*chans)[0]->welcome().db_size;
  std::vector<std::vector<std::vector<Pending>>> by_page(
      kChannels, std::vector<std::vector<Pending>>(db));
  struct Pull {
    std::uint64_t id;
    int ch;
    bdisk::broadcast::PageId page;
    double due;
  };
  std::deque<Pull> unsent;  // Due, not yet accepted by the kernel.
  std::deque<Pull> fifo;    // Sent, in send order, until answered or late.
  std::vector<std::uint8_t> done;  // By Pull::id.
  std::vector<std::uint64_t> last_seq(kChannels, 0);
  std::vector<wire::Message> messages;
  if (traced) r.captured.reserve(200000);
  // SLOTs queued while the generator paused belong to no stretch.
  for (auto& c : *chans) {
    while (c->PollMessages(0, &messages) > 0) messages.clear();
  }

  const double start = NowSeconds();
  const double stop_sending = start + duration;
  double next_due = start + rng->NextExponential(1.0 / rate);
  double next_ping = start + 1.0;
  for (;;) {
    const double now = NowSeconds();
    if (now >= stop_sending && fifo.empty() && unsent.empty()) break;
    if (now >= stop_sending + kPullTimeoutS + 0.05) break;
    while (next_due <= now && next_due < stop_sending) {
      const bdisk::broadcast::PageId page = pages.Next(*rng);
      if (traced) r.gen_lag_us.push_back((now - next_due) * 1e6);
      unsent.push_back(Pull{done.size(), static_cast<int>(r.due % kChannels),
                            page, next_due});
      ++r.due;
      done.push_back(0);
      next_due += rng->NextExponential(1.0 / rate);
    }
    // Sends go out in due order. One the kernel refuses (the server's
    // socket queue is full) is retried until the pull times out, so
    // backpressure shows up as round-trip time, not as a lost pull.
    while (!unsent.empty()) {
      const Pull u = unsent.front();
      const double t0 = traced ? NowSeconds() : 0.0;
      const bool sent = (*chans)[u.ch]->SendPull(u.page);
      if (traced) {
        r.send_s += NowSeconds() - t0;
        ++r.sends;
      }
      if (sent) {
        by_page[u.ch][u.page].push_back(Pending{u.id, u.due, last_seq[u.ch]});
        fifo.push_back(u);
      } else if (now - u.due >= kPullTimeoutS) {
        ++r.send_failed;
      } else {
        break;
      }
      unsent.pop_front();
    }
    if (now >= next_ping) {
      for (auto& c : *chans) c->SendPing();
      next_ping = now + 1.0;
    }
    for (int ch = 0; ch < kChannels; ++ch) {
      messages.clear();
      const double t0 = traced ? NowSeconds() : 0.0;
      const int n = (*chans)[ch]->PollMessages(0, &messages);
      if (n == 0) continue;
      const double t_rx = NowSeconds();
      if (traced) {
        r.poll_s += t_rx - t0;
        r.polled_msgs += static_cast<std::uint64_t>(n);
      }
      for (const wire::Message& msg : messages) {
        if (msg.type != wire::MsgType::kSlot) continue;
        last_seq[ch] = msg.seq;
        if (ch == 0 && t_rx >= start && t_rx < stop_sending) {
          ++r.slots_heard;
          if (traced) {
            r.slot_offset_us.push_back(
                (t_rx - static_cast<double>(msg.seq) * slot_period_s) * 1e6);
            if (r.captured.size() < r.captured.capacity()) {
              r.captured.push_back(
                  CapturedSlot{msg.seq, msg.page, msg.kind, msg.sim_time});
            }
          }
        }
        if (msg.page >= db) continue;  // kNoPage: an idle slot.
        std::vector<Pending>& waiting = by_page[ch][msg.page];
        for (const Pending& p : waiting) {
          const double rtt = (t_rx - p.due) * 1e6;
          r.rtt_us.push_back(rtt);
          const std::size_t second =
              first_window + static_cast<std::size_t>(p.due - start);
          if (second >= r.rtt_us_by_second.size()) {
            r.rtt_us_by_second.resize(second + 1);
          }
          r.rtt_us_by_second[second].push_back(rtt);
          if (traced) {
            r.pull_wait_slots.push_back(
                static_cast<double>(msg.seq - p.seq_at_send));
          }
          done[p.id] = 1;
          ++r.answered;
        }
        waiting.clear();
      }
    }
    while (!fifo.empty()) {
      const Pull& e = fifo.front();
      if (done[e.id] == 0) {
        if (now - e.due < kPullTimeoutS) break;
        std::vector<Pending>& waiting = by_page[e.ch][e.page];
        for (std::size_t i = 0; i < waiting.size(); ++i) {
          if (waiting[i].id == e.id) {
            waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
        done[e.id] = 1;
        ++r.timed_out;
      }
      fifo.pop_front();
    }
  }
  // Anything still waiting at the hard stop has failed too.
  for (const Pull& e : fifo) {
    if (done[e.id] == 0) ++r.timed_out;
  }
  r.send_failed += unsent.size();
  r.window_s += duration;
}

// BYE -> STATS on every channel: the server's pulls_rx must equal the
// pulls this side sent, and its slots_tx_epoch the slots this side heard.
struct Reconcile {
  bool exact = true;
  std::uint64_t pulls_sent = 0, pulls_rx = 0;
  std::uint64_t slots_tx = 0, slots_dropped = 0;
};

Reconcile Goodbye(std::vector<std::unique_ptr<DatagramClientChannel>>* chans) {
  Reconcile rec;
  for (auto& c : *chans) {
    wire::PeerStats stats;
    const std::uint64_t sent = c->counters().pulls_sent;
    if (!c->Goodbye(&stats, 2000)) {
      std::printf("reconcile: no STATS reply to BYE\n");
      rec.exact = false;
      continue;
    }
    const std::uint64_t heard = c->counters().slots_rx_epoch;
    if (stats.pulls_rx != sent || stats.slots_tx_epoch != heard) {
      std::printf("reconcile: MISMATCH pulls rx=%" PRIu64 " sent=%" PRIu64
                  ", slots tx_epoch=%" PRIu64 " heard=%" PRIu64 "\n",
                  stats.pulls_rx, sent, stats.slots_tx_epoch, heard);
      rec.exact = false;
    }
    rec.pulls_sent += sent;
    rec.pulls_rx += stats.pulls_rx;
    rec.slots_tx += stats.slots_tx_epoch;
    rec.slots_dropped +=
        stats.drop_backpressure + stats.drop_dead_peer + stats.drop_fault;
  }
  return rec;
}

std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  std::stringstream body;
  body << file.rdbuf();
  return body.str();
}

bool LogShowsOptimizedServer(const ServeProcess& serve) {
  const std::string log = ReadFile(serve.log());
  return log.find("build=Release") != std::string::npos ||
         log.find("build=RelWithDebInfo") != std::string::npos ||
         log.find("build=MinSizeRel") != std::string::npos;
}

// The slot rate bdisk_serve reports in its exit summary ("... (N slots/s
// sustained)"); 0 when the summary is missing.
double LoggedSustainedSlotRate(const ServeProcess& serve) {
  const std::string log = ReadFile(serve.log());
  const std::size_t end = log.find(" slots/s sustained");
  if (end == std::string::npos) return 0.0;
  const std::size_t begin = log.rfind('(', end);
  if (begin == std::string::npos) return 0.0;
  return std::strtod(log.c_str() + begin + 1, nullptr);
}

// Launch -> first WELCOME, then an orderly shutdown.
bool MeasureLaunch(const std::string& binary, std::uint64_t seed,
                   double* setup_s, std::string* error) {
  ServeProcess serve(kLaunchName);
  bdisk::sim::Rng rng(seed);
  DatagramClientChannel channel;
  const double t0 = NowSeconds();
  if (!serve.Spawn(binary, kServeSlotUs, seed, error)) return false;
  if (!ConnectWithRetry(&channel, serve.socket(), "setup", &rng, t0 + 10.0,
                        error)) {
    return false;
  }
  *setup_s = NowSeconds() - t0;
  channel.Goodbye(nullptr, 500);
  int status = 0;
  double rss = 0;
  serve.Stop(&status, &rss);
  return true;
}

// bdisk_serve runs the default SystemConfig (only --seed is passed). The
// pulls draw pages from that config's canonical access pattern, the one
// the simulated clients draw from.
const bdisk::core::SystemConfig& ServedConfig() {
  static const bdisk::core::SystemConfig config;
  return config;
}

bdisk::workload::AccessGenerator ServedPages() {
  return bdisk::workload::AccessGenerator(
      bdisk::core::CanonicalPatternForConfig(ServedConfig()));
}

// The WELCOME must describe the served config's database and program.
bool WelcomeMatchesServedConfig(const DatagramClientChannel& channel,
                                std::string* error) {
  const bdisk::core::SystemConfig& config = ServedConfig();
  const std::uint32_t cycle_len =
      bdisk::core::ProgramForConfig(config).Length();
  const auto& welcome = channel.welcome();
  if (welcome.db_size == config.server_db_size &&
      welcome.cycle_len == cycle_len) {
    return true;
  }
  *error = "bdisk_serve WELCOME (db_size " + std::to_string(welcome.db_size) +
           ", cycle_len " + std::to_string(welcome.cycle_len) +
           ") does not match the default config (db_size " +
           std::to_string(config.server_db_size) + ", cycle_len " +
           std::to_string(cycle_len) + ")";
  return false;
}

struct Overload {
  double slot_rate_ratio = 0;
  double pull_fail_share = 1;
};

// Report-only: the same generator against a pacing the host cannot
// sustain. Whatever happens is recorded; nothing here is gated.
Overload ProbeOverload(const std::string& binary, std::uint64_t seed,
                       double duration) {
  Overload o;
  std::string error;
  ServeProcess serve(kOverloadName);
  if (!serve.Spawn(binary, kOverloadSlotUs, seed, &error)) return o;
  bdisk::sim::Rng rng(seed);
  std::vector<std::unique_ptr<DatagramClientChannel>> chans;
  bool connected = true;
  for (int i = 0; i < kChannels && connected; ++i) {
    chans.push_back(std::make_unique<DatagramClientChannel>());
    connected =
        ConnectWithRetry(chans.back().get(), serve.socket(),
                         ChannelId("ovl", i), &rng, NowSeconds() + 1.0, &error);
  }
  if (connected) {
    LoadResult r;
    RunLoad(&chans, ServedPages(), &rng, kPullRate, duration,
            kOverloadSlotUs * 1e-6, false, &r);
    o.pull_fail_share =
        r.due > 0 ? static_cast<double>(r.timed_out + r.send_failed) /
                        static_cast<double>(r.due)
                  : 1.0;
    for (auto& c : chans) c->Goodbye(nullptr, 200);
  } else {
    std::printf("  overload probe: no WELCOME within 1 s (%s)\n",
                error.c_str());
  }
  int status = 0;
  double rss = 0;
  serve.Stop(&status, &rss);
  // The server's own count: with no peer connected, no slot is heard.
  o.slot_rate_ratio =
      LoggedSustainedSlotRate(serve) / (1e6 / kOverloadSlotUs);
  return o;
}

}  // namespace

bool RunServeWorkload(const RunOptions& options, RunOutcome* out,
                      std::string* error) {
  ::mkdir(options.run_dir.c_str(), 0755);
  if (::chdir(options.run_dir.c_str()) != 0) {
    *error = "cannot enter " + options.run_dir + ": " + std::strerror(errno);
    return false;
  }
  bdisk::sim::Rng rng(options.seed);
  const bdisk::workload::AccessGenerator pages = ServedPages();
  const double slot_period_s = kServeSlotUs * 1e-6;

  // The measured server: launch, two channels, warm-up.
  double peak_rss_mib = 0;
  int status = 0;
  std::vector<LoadResult> stretches;
  std::vector<double> setup_s;
  Reconcile rec;
  {
    ServeProcess serve(kMeasuredName);
    std::vector<std::unique_ptr<DatagramClientChannel>> chans;
    if (!serve.Spawn(options.serve_binary, kServeSlotUs, options.seed,
                     error)) {
      return false;
    }
    const double deadline = NowSeconds() + 10.0;
    for (int i = 0; i < kChannels; ++i) {
      chans.push_back(std::make_unique<DatagramClientChannel>());
      if (!ConnectWithRetry(chans.back().get(), serve.socket(),
                            ChannelId("load", i), &rng, deadline, error)) {
        return false;
      }
    }
    if (!WelcomeMatchesServedConfig(*chans[0], error)) return false;
    if (!LogShowsOptimizedServer(serve)) {
      *error = "bdisk_serve is not an optimized build (see its banner)";
      return false;
    }
    LoadResult warmup;
    RunLoad(&chans, pages, &rng, kPullRate, kWarmupS, slot_period_s, false,
            &warmup);

    // Untraced: the load in stretches, a burst of set-up launches after
    // each (the generator pauses; the measured server keeps serving).
    // Traced: an untraced and a traced stretch of equal length (their RTT
    // ratio is the tracing overhead), leaving time for the overload probe.
    const double fixed_s = 1.0 + kWarmupS + (options.trace ? 1.5 : 0.0);
    const double load_s = std::max(2.0, options.seconds - fixed_s);
    if (options.trace) {
      stretches.resize(2);
      RunLoad(&chans, pages, &rng, kPullRate, load_s / 2, slot_period_s,
              false, &stretches[0]);
      RunLoad(&chans, pages, &rng, kPullRate, load_s / 2, slot_period_s, true,
              &stretches[1]);
    } else {
      stretches.resize(1);
      std::uint64_t launches = 0;
      for (int k = 0; k < kLoadStretches; ++k) {
        RunLoad(&chans, pages, &rng, kPullRate, load_s / kLoadStretches,
                slot_period_s, false, &stretches[0]);
        while (setup_s.size() < (k + 1) * std::size_t{kLaunchesPerBurst}) {
          double s = 0;
          if (!MeasureLaunch(options.serve_binary,
                             DeriveSeed(options.seed, launches), &s, error)) {
            return false;
          }
          if (launches++ > 0) setup_s.push_back(s);
        }
      }
    }
    rec = Goodbye(&chans);
    if (!serve.Stop(&status, &peak_rss_mib)) {
      *error = "lost track of the bdisk_serve process";
      return false;
    }
  }

  const LoadResult& measured = stretches.back();
  for (const LoadResult& r : stretches) {
    out->attempted += r.due;
    out->failed += r.timed_out + r.send_failed;
  }
  const bool exited_cleanly = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  out->correct = rec.exact && exited_cleanly;
  if (!exited_cleanly) std::printf("bdisk_serve did not exit cleanly\n");

  for (const LoadResult& r : stretches) {
    std::printf("  stretch: %" PRIu64 " pulls due, %" PRIu64 " answered, %"
                PRIu64 " timed out, %" PRIu64 " never sent (kernel refused)\n",
                r.due, r.answered, r.timed_out, r.send_failed);
  }
  std::vector<double> rtt = measured.rtt_us;
  std::printf("workload serve_pull: slot %uus, %g pulls/s offered over %d "
              "channels, %zu round-trip samples in %zu one-second windows "
              "(pooled p50 %.2f us, p99 %.2f us), reconcile %s\n",
              kServeSlotUs, kPullRate, kChannels, rtt.size(),
              measured.rtt_us_by_second.size(), Quantile(&rtt, 0.50),
              Quantile(&rtt, 0.99), rec.exact ? "exact" : "FAILED");
  const double slots_per_s = Ratio(static_cast<double>(measured.slots_heard),
                                   measured.window_s);
  if (!options.trace) {
    std::vector<double> launches = setup_s;
    std::printf("  set-up: %zu launches to first WELCOME, p25 %.3f ms, p50 "
                "%.3f ms, p75 %.3f ms\n",
                launches.size(), Quantile(&launches, 0.25) * 1e3,
                Quantile(&launches, 0.50) * 1e3,
                Quantile(&launches, 0.75) * 1e3);
    out->Add("slots_per_s", slots_per_s, "1/s");
    out->Add("pulls_per_s",
             Ratio(static_cast<double>(measured.answered), measured.window_s), "1/s");
    out->Add("pull_rtt_p50_us", WindowedQuantile(measured, 0.50), "us");
    out->Add("pull_rtt_p99_us", WindowedQuantile(measured, 0.99), "us");
    out->Add("setup_s", Median(setup_s), "s");
    out->Add("peak_rss_mib", peak_rss_mib, "MiB");
    return true;
  }

  // Wire replay over the captured slot stream.
  std::vector<double> format_ns, parse_ns;
  std::vector<std::string> datagrams(measured.captured.size());
  std::uint64_t checksum = 0;
  for (int rep = 0; rep < 5 && !measured.captured.empty(); ++rep) {
    double t0 = NowSeconds();
    for (std::size_t i = 0; i < measured.captured.size(); ++i) {
      const CapturedSlot& s = measured.captured[i];
      wire::FormatSlot(s.seq, s.page, s.kind, s.sim_time, &datagrams[i]);
    }
    double t1 = NowSeconds();
    format_ns.push_back((t1 - t0) * 1e9 /
                        static_cast<double>(measured.captured.size()));
    wire::Message msg;
    t0 = NowSeconds();
    for (const std::string& d : datagrams) {
      if (wire::ParseMessage(d, &msg, nullptr)) checksum += msg.seq;
    }
    t1 = NowSeconds();
    parse_ns.push_back((t1 - t0) * 1e9 /
                       static_cast<double>(measured.captured.size()));
  }
  std::printf("  wire replay over %zu captured slots, checksum %" PRIu64 "\n",
              measured.captured.size(), checksum);

  std::vector<double> lateness = measured.slot_offset_us;
  double min_offset = lateness.empty() ? 0.0 : lateness[0];
  for (const double x : lateness) min_offset = std::min(min_offset, x);
  for (double& x : lateness) x -= min_offset;
  std::vector<double> wait = measured.pull_wait_slots;
  std::vector<double> lag = measured.gen_lag_us;

  const double overload_s = 1.0;
  const Overload overload = ProbeOverload(
      options.serve_binary, DeriveSeed(options.seed, 99), overload_s);

  out->Add("wire.parse_ns", Median(parse_ns), "ns");
  out->Add("wire.format_slot_ns", Median(format_ns), "ns");
  out->Add("client.send_pull_us",
           Ratio(measured.send_s * 1e6, static_cast<double>(measured.sends)), "us");
  out->Add("client.poll_us_per_msg",
           Ratio(measured.poll_s * 1e6, static_cast<double>(measured.polled_msgs)),
           "us");
  out->Add("serve.slot_rate_ratio", slots_per_s * slot_period_s, "ratio");
  out->Add("serve.slot_lateness_us_p50", Quantile(&lateness, 0.50), "us");
  out->Add("serve.slot_lateness_us_p99", Quantile(&lateness, 0.99), "us");
  out->Add("serve.pull_wait_slots_p50", Quantile(&wait, 0.50), "slots");
  out->Add("serve.pull_wait_slots_p99", Quantile(&wait, 0.99), "slots");
  out->Add("serve.rtt_samples", static_cast<double>(measured.rtt_us.size()),
           "count");
  out->Add("serve.overload_slot_rate_ratio", overload.slot_rate_ratio,
           "ratio");
  out->Add("serve.overload_pull_fail_share", overload.pull_fail_share,
           "ratio");
  out->Add("transport.pull_rx_ratio",
           Ratio(static_cast<double>(rec.pulls_rx),
                 static_cast<double>(rec.pulls_sent)),
           "ratio");
  out->Add("transport.slot_drop_ratio",
           Ratio(static_cast<double>(rec.slots_dropped),
                 static_cast<double>(rec.slots_tx + rec.slots_dropped)),
           "ratio");
  out->Add("load.gen_lag_us_p99", Quantile(&lag, 0.99), "us");
  out->Add("prof.overhead_ratio",
           Ratio(WindowedQuantile(measured, 0.5),
                 WindowedQuantile(stretches.front(), 0.5)),
           "ratio");
  return true;
}

}  // namespace perfbench
