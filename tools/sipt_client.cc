/**
 * @file
 * sipt-client: command-line client for the sipt-serve daemon.
 *
 *   sipt-client submit --app <name> [config flags] [--wait]
 *     Submit one run. Prints the submit response; with --wait,
 *     polls until the job finishes and prints ONLY the metrics
 *     JSON — byte-identical to `sipt-client local` for the same
 *     flags, which is how CI diffs daemon results against the
 *     standalone engine. A `busy` rejection is retried after the
 *     server's retryAfterMs hint.
 *
 *   sipt-client poll <job>      Print the job's state response.
 *   sipt-client result <job>    Print the result response.
 *   sipt-client stats           Print the daemon stats response.
 *   sipt-client shutdown        Ask the daemon to exit.
 *
 *   sipt-client local --app <name> [config flags]
 *     No daemon: run the config directly through runSingleCore()
 *     and print the same metrics JSON the daemon would serve.
 *
 * Config flags: --preset <l1 design point> (baseline32k8, ...),
 * --policy <vipt|ideal|naive|bypass|combined|vespa|revelator|
 * pcax>, --condition <normal|fragmented|thp-off|no-contig>,
 * --seed N, --refs N, --warmup N.
 *
 * The socket is --socket, else $SIPT_SERVE_SOCKET.
 */

#include <ctime>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/env.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "sim/presets.hh"
#include "sim/system.hh"

namespace
{

int
usage()
{
    std::cerr
        << "usage: sipt-client [--socket <path>] <command>\n"
        << "  submit --app <name> [config flags] [--wait]\n"
        << "  poll <job>\n"
        << "  result <job>\n"
        << "  stats\n"
        << "  shutdown\n"
        << "  local --app <name> [config flags]\n"
        << "config flags: --preset P --policy P --condition C\n"
        << "              --seed N --refs N --warmup N\n";
    return 1;
}

const char *
argValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        std::exit(usage());
    return argv[++i];
}

/** Strict numeric flag values; a bad one exits with usage. */
const sipt::FlagParser flags{"sipt-client", usage};

void
sleepMs(std::uint64_t ms)
{
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(ms / 1000);
    ts.tv_nsec = static_cast<long>((ms % 1000) * 1'000'000);
    ::nanosleep(&ts, nullptr);
}

struct RunSpec
{
    std::string app;
    sipt::sim::SystemConfig config;
    bool wait = false;
};

/** Parse --app + config flags from argv[i..]; exits on errors. */
RunSpec
parseRunSpec(int argc, char **argv, int i)
{
    RunSpec spec;
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--app") {
            spec.app = argValue(argc, argv, i);
        } else if (arg == "--preset") {
            const auto preset = sipt::sim::l1ConfigFromName(
                argValue(argc, argv, i));
            if (!preset) {
                std::cerr << "sipt-client: unknown preset\n";
                std::exit(1);
            }
            spec.config.l1Config = *preset;
        } else if (arg == "--policy") {
            const auto policy = sipt::sim::policyFromName(
                argValue(argc, argv, i));
            if (!policy) {
                std::cerr << "sipt-client: unknown policy\n";
                std::exit(1);
            }
            spec.config.policy = *policy;
        } else if (arg == "--condition") {
            const auto condition = sipt::sim::conditionFromName(
                argValue(argc, argv, i));
            if (!condition) {
                std::cerr << "sipt-client: unknown condition\n";
                std::exit(1);
            }
            spec.config.condition = *condition;
        } else if (arg == "--seed") {
            spec.config.seed =
                flags.u64(argc, argv, i, 0, ~std::uint64_t{0});
        } else if (arg == "--refs") {
            spec.config.measureRefs =
                flags.u64(argc, argv, i, 1, sipt::sim::maxRefs);
        } else if (arg == "--warmup") {
            spec.config.warmupRefs =
                flags.u64(argc, argv, i, 0, sipt::sim::maxRefs);
        } else if (arg == "--wait") {
            spec.wait = true;
        } else {
            std::exit(usage());
        }
    }
    if (spec.app.empty()) {
        std::cerr << "sipt-client: --app is required\n";
        std::exit(1);
    }
    return spec;
}

int
runSubmit(sipt::serve::Client &client, const RunSpec &spec)
{
    sipt::serve::Request request;
    request.op = sipt::serve::Op::Submit;
    request.app = spec.app;
    request.config = spec.config;
    const std::string line =
        sipt::serve::encodeRequest(request);

    sipt::Json response;
    for (;;) {
        const auto parsed =
            sipt::Json::parse(client.requestLine(line));
        if (!parsed) {
            std::cerr << "sipt-client: non-JSON response\n";
            return 1;
        }
        response = *parsed;
        const sipt::Json *error = response.find("error");
        if (spec.wait && error && error->isString() &&
            error->asString() == "busy") {
            const sipt::Json *retry =
                response.find("retryAfterMs");
            sleepMs(retry != nullptr && retry->isUint()
                        ? retry->asUint()
                        : 100);
            continue;
        }
        break;
    }
    if (!spec.wait) {
        std::cout << response.dump() << "\n";
        const sipt::Json *ok = response.find("ok");
        return ok != nullptr && ok->isBool() && ok->asBool()
                   ? 0
                   : 1;
    }

    const sipt::Json *job = response.find("job");
    if (job == nullptr || !job->isString()) {
        std::cerr << "sipt-client: submit failed: "
                  << response.dump() << "\n";
        return 1;
    }
    const std::string id = job->asString();
    for (;;) {
        sipt::serve::Request poll;
        poll.op = sipt::serve::Op::Poll;
        poll.job = id;
        const sipt::Json state = client.request(
            *sipt::Json::parse(
                sipt::serve::encodeRequest(poll)));
        const sipt::Json *s = state.find("state");
        if (s != nullptr && s->isString() &&
            (s->asString() == "done" ||
             s->asString() == "failed"))
            break;
        sleepMs(50);
    }

    sipt::serve::Request result;
    result.op = sipt::serve::Op::Result;
    result.job = id;
    const sipt::Json final_response = client.request(
        *sipt::Json::parse(sipt::serve::encodeRequest(result)));
    const sipt::Json *metrics = final_response.find("metrics");
    if (metrics == nullptr) {
        std::cerr << "sipt-client: job did not produce metrics: "
                  << final_response.dump() << "\n";
        return 1;
    }
    std::cout << metrics->dump() << "\n";
    return 0;
}

int
runLocal(const RunSpec &spec)
{
    const sipt::sim::RunResult result =
        sipt::sim::runSingleCore(spec.app, spec.config);
    std::cout << sipt::serve::metricsPayload(result).dump()
              << "\n";
    return 0;
}

int
runSimpleOp(sipt::serve::Client &client, sipt::serve::Op op,
            const std::string &job)
{
    sipt::serve::Request request;
    request.op = op;
    request.job = job;
    const std::string response = client.requestLine(
        sipt::serve::encodeRequest(request));
    std::cout << response << "\n";
    const auto parsed = sipt::Json::parse(response);
    if (!parsed)
        return 1;
    const sipt::Json *ok = parsed->find("ok");
    return ok != nullptr && ok->isBool() && ok->asBool() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    int i = 1;
    if (i < argc && std::string(argv[i]) == "--socket") {
        socket_path = argValue(argc, argv, i);
        ++i;
    }
    if (i >= argc)
        return usage();
    const std::string command = argv[i++];

    if (command == "local")
        return runLocal(parseRunSpec(argc, argv, i));

    if (socket_path.empty()) {
        const char *env = std::getenv("SIPT_SERVE_SOCKET");
        if (env == nullptr || *env == '\0') {
            std::cerr << "sipt-client: no socket (--socket or "
                         "SIPT_SERVE_SOCKET)\n";
            return 1;
        }
        socket_path = env;
    }
    sipt::serve::Client client(socket_path);

    if (command == "submit")
        return runSubmit(client, parseRunSpec(argc, argv, i));
    if (command == "poll" || command == "result") {
        if (i >= argc)
            return usage();
        return runSimpleOp(client,
                           command == "poll"
                               ? sipt::serve::Op::Poll
                               : sipt::serve::Op::Result,
                           argv[i]);
    }
    if (command == "stats")
        return runSimpleOp(client, sipt::serve::Op::Stats, "");
    if (command == "shutdown")
        return runSimpleOp(client, sipt::serve::Op::Shutdown,
                           "");
    return usage();
}
