// The daemon under conditions set on its own process: a low fd limit,
// and armed fault points.  Each test forks an `elpc serve` so that the
// limit and the fault configuration (both process-wide) reach the
// daemon only, never the test's clients, which run in the parent.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "experiments/cli_app.hpp"
#include "util/fault_injector.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace elpc::daemon {
namespace {

using Counters = std::map<std::string, std::uint64_t>;

std::string socket_path(const std::string& tag) {
  return ::testing::TempDir() + "/elpc_forked_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun run(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  CliRun result;
  result.code = experiments::run_cli(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

/// `elpc serve --socket <path> <flags>` in a forked child, after
/// `prepare` ran there.  When the daemon stops, the child writes the
/// fault injector's counters to a pipe as "point=count" lines.
class ForkedDaemon {
 public:
  ForkedDaemon(std::string path, std::vector<std::string> flags,
               const std::function<void()>& prepare)
      : path_(std::move(path)) {
    int report[2];
    if (::pipe(report) != 0) {
      throw std::runtime_error("pipe");
    }
    pid_ = ::fork();
    if (pid_ == 0) {
      ::close(report[0]);
      int code = 1;
      try {
        prepare();
        std::vector<std::string> args = {"serve", "--socket", path_};
        args.insert(args.end(), flags.begin(), flags.end());
        code = run(args).code;
        std::string text;
        for (const auto& [point, fired] :
             util::FaultInjector::instance().counters()) {
          text += point + "=" + std::to_string(fired) + "\n";
        }
        (void)!::write(report[1], text.data(), text.size());
      } catch (...) {
        code = 1;
      }
      ::_exit(code);
    }
    ::close(report[1]);
    report_fd_ = report[0];
    // Up once a connection is served: answered, or closed unanswered
    // by an armed fault.
    for (int attempt = 0; attempt < 500; ++attempt) {
      try {
        util::StreamSocket probe = util::StreamSocket::connect(path_);
        probe.send_line(R"({"verb":"stats"})");
        (void)probe.recv_line();
        return;
      } catch (const util::SocketError&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  ~ForkedDaemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      (void)::waitpid(pid_, nullptr, 0);
    }
    if (report_fd_ >= 0) {
      ::close(report_fd_);
    }
  }

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// The daemon's CPU time so far (user + system), from its /proc stat.
  [[nodiscard]] double cpu_seconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the ")" closing the command name: state is field 3,
    // utime and stime are fields 14 and 15.
    std::istringstream fields(stat.substr(stat.rfind(')') + 2));
    std::string skip;
    for (int field = 3; field < 14; ++field) {
      fields >> skip;
    }
    double utime = 0;
    double stime = 0;
    fields >> utime >> stime;
    return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// Sends `shutdown` (its answer may be lost to an armed fault), waits
  /// for the child, and returns its exit code and fault counters.
  std::pair<int, Counters> stop() {
    try {
      util::StreamSocket client = util::StreamSocket::connect(path_);
      client.send_line(R"({"verb":"shutdown"})");
    } catch (const util::SocketError&) {
      // Already going down.
    }
    std::string text;
    char buffer[256];
    ssize_t n = 0;
    while ((n = ::read(report_fd_, buffer, sizeof(buffer))) > 0) {
      text.append(buffer, static_cast<std::size_t>(n));
    }
    int status = 0;
    (void)::waitpid(pid_, &status, 0);
    pid_ = -1;
    Counters counters;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      const std::size_t eq = line.find('=');
      counters[line.substr(0, eq)] = std::stoull(line.substr(eq + 1));
    }
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, counters};
  }

 private:
  std::string path_;
  pid_t pid_ = -1;
  int report_fd_ = -1;
};

/// One `hello` round trip on `client`; true when it was answered ok.
bool answers(util::StreamSocket& client) {
  client.set_recv_timeout(5000);
  client.send_line(R"({"verb":"hello"})");
  const std::optional<std::string> line = client.recv_line();
  return line.has_value() && util::Json::parse(*line).at("ok").as_bool();
}

/// Connections past the daemon's fd limit are shed, not left pending
/// where they would wake its listener forever: the daemon's CPU stays
/// flat, a client connected before is still answered, and a new client
/// is served once fds free.
TEST(ForkedDaemon, AcceptPastTheFdLimitNeitherSpinsNorLocksOut) {
  constexpr rlim_t kFdLimit = 20;
  ForkedDaemon daemon(socket_path("fdlimit"),
                      {"--threads", "1", "--io-workers", "1"}, [] {
                        const rlimit limit{kFdLimit, kFdLimit};
                        if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) {
                          throw std::runtime_error("setrlimit");
                        }
                      });
  const std::string path = socket_path("fdlimit");
  util::StreamSocket first = util::StreamSocket::connect(path);
  ASSERT_TRUE(answers(first));

  std::vector<util::StreamSocket> crowd;
  for (rlim_t i = 0; i < 2 * kFdLimit; ++i) {
    crowd.push_back(util::StreamSocket::connect(path));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double before = daemon.cpu_seconds();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double spent = daemon.cpu_seconds() - before;
  EXPECT_LT(spent, 0.25) << "CPU seconds in one idle second at the limit";

  EXPECT_TRUE(answers(first));
  crowd.clear();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  util::StreamSocket late = util::StreamSocket::connect(path);
  EXPECT_TRUE(answers(late));

  const auto [code, counters] = daemon.stop();
  EXPECT_EQ(code, 0);
}

/// `client load --wait` against a daemon whose mux writes come out short
/// and whose reads stall still prints what `elpc batch` prints, under
/// each protocol; and a daemon whose sends all fail with EPIPE closes
/// the connection and keeps running until `client shutdown` stops it.
/// The counters show each point fired on the daemon.
TEST(ForkedDaemon, MuxFaultPointsFireOnTheDaemon) {
  const std::string jobs =
      std::string(ELPC_EXAMPLES_DIR) + "/batch_jobs.json";
  const CliRun batch = run({"batch", "--jobs", jobs, "--threads", "1"});
  ASSERT_EQ(batch.code, 0) << batch.err;
  {
    const std::string path = socket_path("short");
    ForkedDaemon daemon(path, {"--threads", "2"}, [] {
      util::FaultInjector::instance().configure(
          "socket_short_write=0.5,socket_recv_slow=0.3:1", /*seed=*/5);
    });
    for (const char* protocol : {"v1", "v2", "auto"}) {
      const CliRun load = run({"client", "load", "--socket", path, "--jobs",
                               jobs, "--wait", "--protocol", protocol});
      ASSERT_EQ(load.code, 0) << protocol << ": " << load.err;
      EXPECT_EQ(load.out, batch.out) << protocol;
    }
    const auto [code, counters] = daemon.stop();
    EXPECT_EQ(code, 0);
    EXPECT_GT(counters.at("socket_short_write"), 0u);
    EXPECT_GT(counters.at("socket_recv_slow"), 0u);
  }
  {
    const std::string path = socket_path("epipe");
    ForkedDaemon daemon(path, {"--threads", "1"}, [] {
      util::FaultInjector::instance().configure("socket_send_epipe=1.0",
                                                /*seed=*/5);
    });
    for (int i = 0; i < 3; ++i) {
      util::StreamSocket client = util::StreamSocket::connect(path);
      client.set_recv_timeout(5000);
      client.send_line(R"({"verb":"hello"})");
      EXPECT_FALSE(client.recv_line().has_value());  // closed, unanswered
    }
    // Its answer lost too, `client shutdown` still sees the daemon go
    // (over v1: a v2 hello would go unanswered first).
    const CliRun down =
        run({"client", "shutdown", "--socket", path, "--protocol", "v1"});
    EXPECT_EQ(down.code, 0) << down.err;
    const auto [code, counters] = daemon.stop();
    EXPECT_EQ(code, 0);
    EXPECT_GE(counters.at("socket_send_epipe"), 3u);
  }
}

}  // namespace
}  // namespace elpc::daemon
