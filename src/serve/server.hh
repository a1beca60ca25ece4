/**
 * @file
 * The sipt-serve daemon core: a Unix-domain-socket server that
 * accepts NDJSON protocol requests (serve/protocol.hh) and feeds
 * submitted jobs through a bounded JobQueue into one
 * sim::SweepRunner, whose file-per-key disk tier (sim/sweep.hh) is
 * the daemon's durable result store: a result is acknowledged
 * ("done") only after its entry file is published, so it survives
 * a restart and is then served "cached" with the same bytes.
 *
 * Dedup is layered: the job id is the hash of the engine's
 * canonical run key, so identical submissions from any client
 * collapse onto one jobs-map entry; the worker then runs the job
 * through the shared SweepRunner, whose memo/in-flight cache dedups
 * again. A unique configuration therefore simulates exactly once
 * no matter how many clients race to submit it — the race tests
 * assert executed == unique keys. A finished job's result is read
 * from the runner's memo, so fetching it never depends on its entry
 * file surviving eviction.
 *
 * Thread model: one accept thread, one thread per connection
 * (joined on stop), N queue workers. The SweepRunner is built with
 * threads=1, which makes enqueue() run inline in the calling
 * worker thread — the JobQueue owns the parallelism, the sweep
 * engine contributes its memo and its store.
 */

// sipt-lint: allow-file(raw-thread) -- accept/connection threads
// are the daemon's job; simulations still go through the engine.

#ifndef SIPT_SERVE_SERVER_HH
#define SIPT_SERVE_SERVER_HH

#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "serve/job_queue.hh"
#include "serve/protocol.hh"
#include "sim/sweep.hh"

namespace sipt::serve
{

struct ServerOptions
{
    /** Unix-domain socket path (stale files are unlinked). */
    std::string socketPath;
    /** Result store: the SweepRunner disk-cache directory. Point
     *  it at a SIPT_RUN_CACHE directory to share results with the
     *  figure benches. */
    std::string storeDir;
    /** Queue worker threads; 0 = accept-but-never-run (used by
     *  the deterministic protocol-fixture tests). */
    unsigned workers = 2;
    /** Bounded queue depth (backpressure beyond it). */
    std::size_t queueDepth = 64;
    /** Store byte budget (LRU eviction beyond it); 0 =
     *  unlimited. */
    std::uint64_t storeBudget = 0;
};

class Server
{
  public:
    explicit Server(const ServerOptions &options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen + spawn the accept thread. Fatal when the
     *  socket cannot be created. */
    void start();

    /** Block until a client sends `shutdown` (or stop() is called
     *  from another thread). */
    void waitShutdown();

    /** start() + waitShutdown() + stop(): the daemon main loop. */
    void serve();

    /** Close the listener and every connection, join all threads,
     *  stop the workers. Idempotent. */
    void stop();

    const std::string &socketPath() const
    {
        return options_.socketPath;
    }

  private:
    enum class JobState : std::uint8_t
    {
        Queued,
        Running,
        Done,
        Failed,
    };
    struct Job
    {
        JobState state = JobState::Queued;
        std::string app;
        sim::SystemConfig config;
        /** The runner's memo entry (Done only). */
        std::shared_future<sim::RunResult> result;
        /** Failure detail (Failed only). */
        std::string detail;
    };

    void acceptLoop();
    void connectionLoop(int fd);
    /** One request line in, one response line out (no '\n').
     *  Sets @p shutdown_seen on a shutdown request. */
    std::string handleLine(const std::string &line,
                           bool &shutdown_seen);

    Json handleSubmit(const Request &request);
    Json handlePoll(const Request &request);
    Json handleResult(const Request &request);
    Json handleStats();

    /** Queue-worker entry: run one submitted job to completion. */
    void runJob(const std::string &job_id);

    static const char *stateName(JobState state);

    ServerOptions options_;
    sim::SweepRunner sweep_;
    std::unique_ptr<JobQueue> queue_;

    std::mutex jobsMu_;
    std::map<std::string, Job> jobs_;
    std::uint64_t rejectedBusy_ = 0;
    std::uint64_t badRequests_ = 0;
    /** Store probes (cached submits, result fetches) that found
     *  the result, and submits that did not. */
    std::uint64_t storeHits_ = 0;
    std::uint64_t storeMisses_ = 0;

    int listenFd_ = -1;
    std::thread acceptThread_;
    std::mutex connsMu_;
    std::vector<int> connFds_;
    std::vector<std::thread> connThreads_;

    std::mutex stopMu_;
    std::condition_variable stopCv_;
    bool stopRequested_ = false;
    bool stopped_ = false;
};

} // namespace sipt::serve

#endif // SIPT_SERVE_SERVER_HH
