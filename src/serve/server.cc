// The server owns raw threads by design: one accept loop, one
// thread per connection, all joined on stop(). The sweep pool's
// thread home covers simulation jobs, not socket lifecycles.
// sipt-lint: allow-file(raw-thread)

#include "serve/server.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.hh"

namespace sipt::serve
{

namespace
{

/** Best-effort full write of a response line to a client. */
void
writeLine(int fd, const std::string &line)
{
    std::string out = line + '\n';
    std::size_t off = 0;
    while (off < out.size()) {
        const ssize_t n =
            ::send(fd, out.data() + off, out.size() - off,
                   MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return; // Client went away; nothing to salvage.
        }
        off += static_cast<std::size_t>(n);
    }
}

} // namespace

Server::Server(const ServerOptions &options)
    : options_(options),
      sweep_(sim::SweepOptions{1, options.storeDir,
                               options.storeBudget})
{
    queue_ = std::make_unique<JobQueue>(
        options_.workers, options_.queueDepth,
        [this](const std::string &job) { runJob(job); });
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    SIPT_ASSERT(!options_.socketPath.empty(),
                "serve: socket path required");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    SIPT_ASSERT(
        options_.socketPath.size() < sizeof(addr.sun_path),
        "serve: socket path too long: ", options_.socketPath);
    std::strncpy(addr.sun_path, options_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    SIPT_ASSERT(listenFd_ >= 0, "serve: socket() failed");
    ::unlink(options_.socketPath.c_str());
    SIPT_ASSERT(::bind(listenFd_,
                       reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr)) == 0,
                "serve: cannot bind ", options_.socketPath);
    SIPT_ASSERT(::listen(listenFd_, 64) == 0,
                "serve: listen() failed");
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
Server::waitShutdown()
{
    std::unique_lock lock(stopMu_);
    stopCv_.wait(lock, [this] { return stopRequested_; });
}

void
Server::serve()
{
    start();
    waitShutdown();
    stop();
}

void
Server::stop()
{
    {
        std::lock_guard lock(stopMu_);
        if (stopped_)
            return;
        stopped_ = true;
        stopRequested_ = true;
    }
    stopCv_.notify_all();

    // shutdown() wakes the blocked accept(); the fd is closed and
    // cleared only after the accept thread, which reads it, exits.
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    {
        std::lock_guard lock(connsMu_);
        for (const int fd : connFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    for (auto &thread : connThreads_)
        if (thread.joinable())
            thread.join();
    connThreads_.clear();
    queue_->stop();
    ::unlink(options_.socketPath.c_str());
}

void
Server::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // Listener closed: we are stopping.
        }
        std::lock_guard lock(connsMu_);
        connFds_.push_back(fd);
        connThreads_.emplace_back(
            [this, fd] { connectionLoop(fd); });
    }
}

void
Server::connectionLoop(int fd)
{
    std::string buffer;
    char chunk[4096];
    bool shutdown_seen = false;
    while (!shutdown_seen) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            break; // EOF or error (including stop()'s shutdown).
        }
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t nl = 0;
        while ((nl = buffer.find('\n')) != std::string::npos) {
            const std::string line = buffer.substr(0, nl);
            buffer.erase(0, nl + 1);
            writeLine(fd, handleLine(line, shutdown_seen));
            if (shutdown_seen)
                break;
        }
    }
    // Deregister before close: once the fd number is free for
    // reuse, stop() must never see it in connFds_.
    {
        std::lock_guard lock(connsMu_);
        connFds_.erase(std::remove(connFds_.begin(),
                                   connFds_.end(), fd),
                       connFds_.end());
    }
    ::close(fd);
    if (shutdown_seen) {
        std::lock_guard lock(stopMu_);
        stopRequested_ = true;
        stopCv_.notify_all();
    }
}

std::string
Server::handleLine(const std::string &line, bool &shutdown_seen)
{
    Request request;
    std::string error;
    if (!parseRequest(line, request, error)) {
        std::lock_guard lock(jobsMu_);
        ++badRequests_;
        return errorResponse("bad-request", error).dump();
    }
    switch (request.op) {
    case Op::Submit:
        return handleSubmit(request).dump();
    case Op::Poll:
        return handlePoll(request).dump();
    case Op::Result:
        return handleResult(request).dump();
    case Op::Stats:
        return handleStats().dump();
    case Op::Shutdown:
        shutdown_seen = true;
        return stoppingResponse().dump();
    }
    return errorResponse("bad-request", "unreachable").dump();
}

Json
Server::handleSubmit(const Request &request)
{
    const std::string id =
        jobIdFor(sim::runKeyJson(request.app, request.config));

    std::lock_guard lock(jobsMu_);
    auto it = jobs_.find(id);
    if (it != jobs_.end()) {
        // Dedup: the submission names a job some client already
        // created; report where it is instead of re-running.
        return stateResponse(id, stateName(it->second.state));
    }
    auto cached = sweep_.lookup(request.app, request.config);
    if (cached.valid()) {
        ++storeHits_;
        Job job;
        job.state = JobState::Done;
        job.app = request.app;
        job.config = request.config;
        job.result = std::move(cached);
        jobs_.emplace(id, std::move(job));
        return stateResponse(id, "cached");
    }
    ++storeMisses_;
    if (!queue_->tryPush(id)) {
        ++rejectedBusy_;
        // Retry hint scales with backlog; derived from queue
        // state, not a clock, so responses stay deterministic.
        return busyResponse(100 * (queue_->pending() + 1));
    }
    Job job;
    job.app = request.app;
    job.config = request.config;
    jobs_.emplace(id, std::move(job));
    return stateResponse(id, "queued");
}

Json
Server::handlePoll(const Request &request)
{
    std::lock_guard lock(jobsMu_);
    auto it = jobs_.find(request.job);
    if (it == jobs_.end())
        return jobErrorResponse("unknown-job", request.job, "",
                                nullptr);
    return stateResponse(request.job,
                         stateName(it->second.state));
}

Json
Server::handleResult(const Request &request)
{
    std::shared_future<sim::RunResult> result;
    {
        std::lock_guard lock(jobsMu_);
        auto it = jobs_.find(request.job);
        if (it == jobs_.end())
            return jobErrorResponse("unknown-job", request.job,
                                    "", nullptr);
        const Job &job = it->second;
        if (job.state == JobState::Failed)
            return jobErrorResponse("job-failed", request.job,
                                    job.detail, "detail");
        if (job.state != JobState::Done)
            return jobErrorResponse("not-ready", request.job,
                                    stateName(job.state),
                                    "state");
        ++storeHits_;
        result = job.result;
    }
    return resultResponse(request.job,
                          metricsPayload(result.get()));
}

Json
Server::handleStats()
{
    Json jobs = Json::object();
    {
        std::lock_guard lock(jobsMu_);
        std::uint64_t counts[4] = {};
        for (const auto &[id, job] : jobs_)
            ++counts[static_cast<unsigned>(job.state)];
        jobs.set("queued", counts[0]);
        jobs.set("running", counts[1]);
        jobs.set("done", counts[2]);
        jobs.set("failed", counts[3]);
        jobs.set("rejectedBusy", rejectedBusy_);
        jobs.set("badRequests", badRequests_);
    }

    Json queue = Json::object();
    queue.set("workers", std::uint64_t{options_.workers});
    queue.set("depth", std::uint64_t{options_.queueDepth});
    queue.set("pending", std::uint64_t{queue_->pending()});
    queue.set("started", queue_->started());

    const sim::SweepStats s = sweep_.stats();
    Json store = Json::object();
    store.set("entries", s.diskEntries);
    store.set("bytes", s.diskBytes);
    {
        std::lock_guard lock(jobsMu_);
        store.set("hits", storeHits_);
        store.set("misses", storeMisses_);
    }
    store.set("evictions", s.evictions);

    Json payload = Json::object();
    payload.set("jobs", std::move(jobs));
    payload.set("queue", std::move(queue));
    payload.set("store", std::move(store));
    return statsResponse(std::move(payload));
}

void
Server::runJob(const std::string &job_id)
{
    std::string app;
    sim::SystemConfig config;
    {
        std::lock_guard lock(jobsMu_);
        auto it = jobs_.find(job_id);
        if (it == jobs_.end())
            return; // Stopped and restarted between push and pop.
        it->second.state = JobState::Running;
        app = it->second.app;
        config = it->second.config;
    }
    // threads=1 makes enqueue() simulate inline right here and
    // publish the entry file before returning; the shared runner's
    // memo still dedups across workers.
    try {
        auto result = sweep_.enqueue(app, config);
        result.get();
        std::lock_guard lock(jobsMu_);
        jobs_[job_id].state = JobState::Done;
        jobs_[job_id].result = std::move(result);
    } catch (const std::exception &e) {
        std::lock_guard lock(jobsMu_);
        jobs_[job_id].state = JobState::Failed;
        jobs_[job_id].detail = e.what();
    }
}

const char *
Server::stateName(JobState state)
{
    switch (state) {
    case JobState::Queued:
        return "queued";
    case JobState::Running:
        return "running";
    case JobState::Done:
        return "done";
    case JobState::Failed:
        return "failed";
    }
    return "?";
}

} // namespace sipt::serve
