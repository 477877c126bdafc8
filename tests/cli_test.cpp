/**
 * End-to-end process tests of the apexc CLI: exit codes must match
 * exitCodeFor() for success, validation failures, the timeout path
 * and cooperative cancellation, and a SIGKILLed journaled sweep must
 * resume to byte-identical output.
 *
 * Each test shells out to the real binaries (APEXC_PATH and APEXD_PATH
 * are injected by CMake), so these cover the signal handlers and
 * process teardown that in-process tests cannot.
 */
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "core/status.hpp"

namespace apex {
namespace {

namespace fs = std::filesystem;

class ScratchDir {
  public:
    explicit ScratchDir(const std::string &tag)
        : path_(fs::temp_directory_path() / ("apex_cli_test_" + tag))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() { fs::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

/** Run @p cmd through the shell; return its exit code (or the signal
 * number + 128, as the shell reports a killed child). */
int
run(const std::string &cmd)
{
    const int raw = std::system(cmd.c_str());
    if (raw == -1)
        return -1;
    if (WIFEXITED(raw))
        return WEXITSTATUS(raw);
    if (WIFSIGNALED(raw))
        return 128 + WTERMSIG(raw);
    return -1;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

const std::string apexc = APEXC_PATH;

/** An apexd child serving @p socket; SIGTERMed and reaped on scope
 * exit, so a failing assertion never leaks a daemon. */
class Daemon {
  public:
    explicit Daemon(const std::string &socket) : socket_(socket)
    {
        pid_ = ::fork();
        if (pid_ == 0) {
            const int null_fd = ::open("/dev/null", O_WRONLY);
            ::dup2(null_fd, STDOUT_FILENO);
            ::dup2(null_fd, STDERR_FILENO);
            ::execl(APEXD_PATH, APEXD_PATH, "--socket", socket.c_str(),
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
    }
    ~Daemon()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        int status = 0;
        (void)::waitpid(pid_, &status, 0);
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** True once the daemon answers an info request (bounded wait). */
    bool ready() const
    {
        for (int i = 0; i < 100 && pid_ > 0; ++i) {
            if (run(apexc + " client info --socket " + socket_ +
                    " > /dev/null 2>&1") == 0)
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        return false;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

TEST(Cli, SuccessExitsZero)
{
    EXPECT_EQ(run(apexc + " apps > /dev/null"), 0);
}

TEST(Cli, InvalidArgumentsExitWithValidationCode)
{
    const int want = exitCodeFor(ErrorCode::kInvalidArgument);
    EXPECT_EQ(run(apexc + " sweep --level bogus 2> /dev/null"),
              want);
    EXPECT_EQ(run(apexc + " explore no_such_app 2> /dev/null"),
              want);
    // --resume without --cache-dir: there is no journal to replay.
    EXPECT_EQ(run(apexc + " sweep --resume 2> /dev/null"), want);
    // Numeric flags must be whole numbers: no silent 0, no ignored
    // unit suffix.
    for (const std::string args :
         {"sweep --deadline abc", "sweep --deadline 5s",
          "sweep --jobs abc", "sweep --cell-deadline 1x",
          "sweep --cell-retries 2.5", "analyze gaussian --support abc",
          "analyze gaussian --max-nodes ''"})
        EXPECT_EQ(run(apexc + " " + args + " > /dev/null 2>&1"), want)
            << args;
    EXPECT_EQ(run("APEX_JOBS=x " + apexc +
                  " sweep --level map > /dev/null 2>&1"),
              want);
    // apexd parses the same way, before it binds anything.
    EXPECT_EQ(run(std::string(APEXD_PATH) +
                  " --socket /nonexistent/apexd.sock --jobs 2x"
                  " > /dev/null 2>&1"),
              want);
}

TEST(Cli, ExpiredDeadlineExitsWithTimeoutCode)
{
    // The clock-skew fault makes the first deadline poll observe an
    // expired clock, so the timeout path runs without real waiting
    // despite the huge nominal budget.
    const int code =
        run("APEX_FAULT=clock:1:1000000 " + apexc +
            " sweep --level map --deadline 600000 > /dev/null");
    EXPECT_EQ(code, exitCodeFor(ErrorCode::kTimeout));
}

TEST(Cli, AlreadyExpiredDeadlineExitsTimeoutWithCoherentReport)
{
    // --deadline 0 is expired before the first cell can start: the
    // sweep must not wedge or report success — every cell is skipped
    // and the exit code is the timeout code, in both isolate modes.
    ScratchDir dir("deadline_zero");
    const int want = exitCodeFor(ErrorCode::kTimeout);
    for (const std::string isolate : {"thread", "process"}) {
        const std::string out =
            dir.str() + "/report_" + isolate + ".out";
        EXPECT_EQ(run(apexc + " sweep --level map --deadline 0" +
                      " --isolate " + isolate + " > " + out),
                  want)
            << isolate;
        const std::string report = slurp(out);
        EXPECT_NE(report.find("0 evaluated"), std::string::npos)
            << isolate << ": " << report;
    }
}

TEST(Cli, WorkerKillSweepCompletesWithQuarantine)
{
    // A cell that kills its worker on every allowed attempt must be
    // quarantined with its cause in the report while the rest of the
    // sweep completes; transparent recovery (1 kill, retries left)
    // must leave no trace in the report at all.
    ScratchDir dir("worker_kill");
    const std::string ref_out = dir.str() + "/reference.out";
    ASSERT_EQ(run(apexc + " sweep --level map > " + ref_out), 0);

    const std::string recovered = dir.str() + "/recovered.out";
    EXPECT_EQ(run("APEX_FAULT=worker_kill:2 " + apexc +
                  " sweep --level map --isolate process > " +
                  recovered + " 2> /dev/null"),
              0);
    EXPECT_EQ(slurp(ref_out), slurp(recovered));

    // Quarantine does not fail the sweep: the other cells evaluated,
    // so the exit code stays 0 and the failure lives in the report.
    const std::string poisoned = dir.str() + "/poisoned.out";
    EXPECT_EQ(run("APEX_FAULT=worker_kill:1:3 " + apexc +
                  " sweep --level map --isolate process"
                  " --cell-retries 2 > " +
                  poisoned + " 2> /dev/null"),
              0);
    const std::string report = slurp(poisoned);
    EXPECT_NE(report.find("stage 'worker'"), std::string::npos)
        << report;
    EXPECT_NE(report.find("(crash)"), std::string::npos) << report;
}

TEST(Cli, DiagnosticsStageTableComesFromTheTrace)
{
    // apexc folds the spans its sweep recorded into a per-cell
    // stage-time table: under --trace a post-PnR sweep lists a place
    // row; without --trace there are no spans and no table.
    ScratchDir dir("stage_table");
    const std::string traced_err = dir.str() + "/traced.err";
    ASSERT_EQ(run(apexc + " sweep --level pnr --jobs 2 --diagnostics" +
                  " --trace " + dir.str() + "/trace.json > /dev/null 2> " +
                  traced_err),
              0);
    const std::string traced = slurp(traced_err);
    const std::size_t table = traced.find("stage times (ms, from spans):");
    ASSERT_NE(table, std::string::npos) << traced;
    EXPECT_NE(traced.find(" place ", table), std::string::npos) << traced;

    const std::string plain_err = dir.str() + "/plain.err";
    ASSERT_EQ(run(apexc + " sweep --level pnr --jobs 2 --diagnostics" +
                  " > /dev/null 2> " + plain_err),
              0);
    const std::string plain = slurp(plain_err);
    EXPECT_NE(plain.find("runtime: jobs=2"), std::string::npos) << plain;
    EXPECT_EQ(plain.find("stage times"), std::string::npos) << plain;
}

TEST(Cli, SigtermCancelsCooperativelyWithCancelledCode)
{
    // Post-PnR sweeps run for seconds; a SIGTERM shortly after launch
    // lands mid-sweep and must come back as a clean kCancelled exit,
    // not a default-action kill (which the shell would report as 143).
    const int code = run(
        "sh -c '" + apexc +
        " sweep --level pnr > /dev/null & pid=$!; sleep 0.2; "
        "kill -TERM $pid; wait $pid'");
    EXPECT_EQ(code, exitCodeFor(ErrorCode::kCancelled));
}

TEST(Cli, CrashedSweepResumesByteIdentical)
{
    ScratchDir dir("crash_resume");
    const std::string cache = dir.str() + "/cache";
    const std::string ref_out = dir.str() + "/reference.out";
    const std::string resume_out = dir.str() + "/resumed.out";

    // Reference: one uninterrupted, unjournaled sweep.
    ASSERT_EQ(run(apexc + " sweep --level map > " + ref_out), 0);

    // Crash: the fault injector hard-kills the process (as kill -9
    // would) at the 3rd journal append.
    const int crashed =
        run("APEX_FAULT=crash:3 " + apexc +
            " sweep --level map --cache-dir " + cache +
            " > /dev/null 2>&1");
    EXPECT_EQ(crashed, 128 + SIGKILL);
    EXPECT_TRUE(fs::exists(cache + "/sweep.journal"));

    // Resume: replays the journaled prefix, finishes the rest, and
    // prints exactly what the uninterrupted run printed.
    ASSERT_EQ(run(apexc + " sweep --level map --cache-dir " + cache +
                  " --resume > " + resume_out),
              0);
    EXPECT_EQ(slurp(ref_out), slurp(resume_out));
}

TEST(Cli, DiskFullJournalExitsResourceExhausted)
{
    // A journaled sweep whose very first durability write hits a
    // full disk must fail loudly with the resource-exhaustion exit
    // code (DESIGN.md Sec. 7h) — running on silently would leave an
    // unreplayable journal behind for the next --resume.
    ScratchDir dir("disk_full");
    const std::string out = dir.str() + "/report.out";
    EXPECT_EQ(run("APEX_FAULT=disk_full:1 " + apexc +
                  " sweep --level map --cache-dir " + dir.str() +
                  "/cache > " + out + " 2> " + dir.str() + "/err"),
              17);
    EXPECT_NE(slurp(dir.str() + "/err").find("ResourceExhausted"),
              std::string::npos);

    // Without --cache-dir there is no durability promise to break:
    // the same fault must not perturb the sweep, and the report is
    // byte-identical to an undisturbed run.  (The cache's
    // degrade-to-memory-only ladder is covered in-process by
    // durability_test.)
    const std::string ref_out = dir.str() + "/reference.out";
    ASSERT_EQ(run(apexc + " sweep --level map > " + ref_out), 0);
    const std::string degraded_out = dir.str() + "/degraded.out";
    EXPECT_EQ(run("APEX_FAULT=disk_full:1 " + apexc +
                  " sweep --level map > " + degraded_out +
                  " 2> /dev/null"),
              0);
    EXPECT_EQ(slurp(ref_out), slurp(degraded_out));
}

TEST(Cli, MineAndMergeFaultsExitWithTheirStageCode)
{
    // A failed mine or merge is the command's failure: no report of
    // a weaker stand-in PE on stdout, the stage's exit code, and the
    // stage named on stderr.  --jobs 1 keeps fault ordinals on the
    // sequential schedule.
    ScratchDir dir("explorer_faults");
    const std::string out = dir.str() + "/out";
    const std::string err = dir.str() + "/err";
    const struct {
        const char *fault;
        const char *args;
        ErrorCode code;
    } cases[] = {
        {"mine:1", "analyze fast", ErrorCode::kMiningFailed},
        {"mine:1", "explore gaussian --variant ip --level map",
         ErrorCode::kMiningFailed},
        {"mine:1", "explore gaussian --variant biglittle --level map",
         ErrorCode::kMiningFailed},
        {"mine:1", "explore camera --variant spec --level map",
         ErrorCode::kMiningFailed},
        {"merge:1", "explore camera --variant spec --level map",
         ErrorCode::kMergeInfeasible},
    };
    for (const auto &c : cases) {
        const std::string fault = c.fault;
        SCOPED_TRACE(fault + " " + c.args);
        EXPECT_EQ(run("APEX_FAULT=" + fault + " " + apexc + " " +
                      c.args + " --jobs 1 > " + out + " 2> " + err),
                  exitCodeFor(c.code));
        EXPECT_EQ(slurp(out), "");
        const std::string stage = fault.substr(0, fault.find(':'));
        EXPECT_NE(slurp(err).find("stage '" + stage + "'"),
                  std::string::npos)
            << slurp(err);
    }
}

TEST(Cli, VersionReportsBuildIdentityAndProtocol)
{
    ScratchDir dir("version");
    const std::string out = dir.str() + "/version.out";
    ASSERT_EQ(run(apexc + " --version > " + out), 0);
    const std::string text = slurp(out);
    EXPECT_EQ(text.find("apex "), 0u);
    EXPECT_NE(text.find("protocol v"), std::string::npos);
}

TEST(Cli, ClientWithoutDaemonExitsUnavailable)
{
    ScratchDir dir("no_daemon");
    // No daemon listens here; the client must fail fast with the
    // service-stage exit code, not hang or crash.
    EXPECT_EQ(run(apexc + " client sweep --socket " + dir.str() +
                  "/absent.sock > /dev/null 2>&1"),
              exitCodeFor(ErrorCode::kUnavailable));
    EXPECT_EQ(run(apexc + " client info --socket " + dir.str() +
                  "/absent.sock > /dev/null 2>&1"),
              exitCodeFor(ErrorCode::kUnavailable));
}

TEST(Cli, ClientExpiredDeadlineMatchesBatch)
{
    // An explicit, already-spent budget must reach the daemon as an
    // expired bound, not as "unbounded" (0 on the wire): the client
    // exits with the timeout code and prints exactly the batch bytes.
    ScratchDir dir("client_deadline");
    const std::string socket = dir.str() + "/apexd.sock";
    Daemon daemon(socket);
    ASSERT_TRUE(daemon.ready());
    const int want = exitCodeFor(ErrorCode::kTimeout);
    const std::string batch_out = dir.str() + "/batch.out";
    const std::string client_out = dir.str() + "/client.out";
    EXPECT_EQ(run(apexc + " sweep --level map --deadline 0 > " +
                  batch_out),
              want);
    EXPECT_EQ(run(apexc + " client sweep --level map --deadline 0" +
                  " --socket " + socket + " > " + client_out),
              want);
    const std::string batch = slurp(batch_out);
    EXPECT_NE(batch.find("0 evaluated"), std::string::npos) << batch;
    EXPECT_EQ(batch, slurp(client_out));
}

} // namespace
} // namespace apex
