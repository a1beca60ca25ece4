#include "common/trace.hh"

#include <cstdlib>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"

namespace sipt::trace
{

namespace
{

std::string
tracePathFromEnv()
{
    if (const char *env = std::getenv("SIPT_TRACE"))
        return env;
    return "";
}

/** Common trace_event envelope: a complete event (ph:"X"). */
Json
completeEvent(const char *name, const char *category,
              std::uint64_t pid, std::uint64_t lane, double ts,
              double dur)
{
    Json j = Json::object();
    j.set("name", name);
    j.set("cat", category);
    j.set("ph", "X");
    j.set("pid", pid);
    j.set("tid", lane);
    j.set("ts", ts);
    j.set("dur", dur);
    return j;
}

} // namespace

Tracer &
Tracer::global()
{
    // Magic-static init is thread-safe and the tracer is internally
    // synchronised; this is sanctioned process-global mutable
    // state (it only sinks diagnostics, no simulation state ever
    // reads it back).
    // sipt-analyze: allow(mutable-static)
    static Tracer tracer(tracePathFromEnv());
    return tracer;
}

Tracer::Tracer(const std::string &path)
{
    if (path.empty())
        return;
    out_.open(path, std::ios::out | std::ios::trunc);
    if (!out_)
        fatal("trace: cannot open SIPT_TRACE file '", path, "'");
    enabled_ = true;
}

Tracer::~Tracer()
{
    if (enabled_)
        out_.flush();
}

std::uint64_t
Tracer::newLane()
{
    std::lock_guard lock(mu_);
    return lanes_++;
}

void
Tracer::write(const std::string &line)
{
    std::lock_guard lock(mu_);
    out_ << line << '\n';
    ++events_;
}

void
Tracer::access(std::uint64_t lane, const AccessEvent &event)
{
    if (!enabled_)
        return;
    Json j = completeEvent("l1-access", "sipt", 1, lane,
                           static_cast<double>(event.cycle),
                           static_cast<double>(event.l1Latency));
    Json args = Json::object();
    args.set("policy", event.policy);
    args.set("outcome", event.outcome);
    args.set("pc", event.pc);
    args.set("vaddr", event.vaddr);
    args.set("tlbLatency", event.tlbLatency);
    args.set("l1Latency", event.l1Latency);
    args.set("hit", event.hit);
    args.set("fast", event.fast);
    j.set("args", std::move(args));
    write(j.dump());
}

void
Tracer::predictor(std::uint64_t lane, const PredictorEvent &event)
{
    if (!enabled_)
        return;
    Json j = completeEvent(event.predictor, "predictor", 1, lane,
                           static_cast<double>(event.seq), 1.0);
    Json args = Json::object();
    args.set("pc", event.pc);
    args.set("decision", event.decision);
    args.set("predicted", std::uint64_t{event.predicted});
    args.set("actual", std::uint64_t{event.actual});
    args.set("correct", event.correct);
    j.set("args", std::move(args));
    write(j.dump());
}

void
Tracer::fill(std::uint64_t lane, Addr paddr, Cycles cycle,
             Cycles latency)
{
    if (!enabled_)
        return;
    Json j = completeEvent("below-fill", "cache", 1, lane,
                           static_cast<double>(cycle),
                           static_cast<double>(latency));
    Json args = Json::object();
    args.set("paddr", paddr);
    j.set("args", std::move(args));
    write(j.dump());
}

void
Tracer::simSpan(const char *category, const char *name,
                std::uint64_t lane, double start_cycle,
                double dur_cycles)
{
    if (!enabled_)
        return;
    write(completeEvent(name, category, 1, lane, start_cycle,
                        dur_cycles)
              .dump());
}

void
Tracer::span(const char *category, const std::string &name,
             std::uint64_t lane, double start_us, double dur_us)
{
    if (!enabled_)
        return;
    Json j = completeEvent(name.c_str(), category, 0, lane,
                           start_us, dur_us);
    write(j.dump());
}

std::uint64_t
Tracer::events() const
{
    std::lock_guard lock(mu_);
    return events_;
}

void
Tracer::flush()
{
    if (!enabled_)
        return;
    std::lock_guard lock(mu_);
    out_.flush();
}

} // namespace sipt::trace
