/**
 * @file
 * sipt-serve: the long-running sweep daemon.
 *
 *   sipt-serve [--socket <path>] [--store <dir>] [--workers N]
 *              [--queue-depth N] [--store-budget BYTES]
 *
 * Listens on a Unix-domain socket for NDJSON protocol requests
 * (see src/serve/protocol.hh), runs submitted (app, config) jobs
 * through the sim::sweep engine on a bounded worker pool, and
 * keeps results in the engine's file-per-key disk cache under
 * --store — one crash-safe JSON file per run key, evicted least
 * recently used first beyond --store-budget bytes. Point --store
 * at a SIPT_RUN_CACHE directory to share results with the figure
 * benches. Runs until a client sends {"op":"shutdown"}.
 *
 * --socket defaults to $SIPT_SERVE_SOCKET, then
 * <store>/sipt-serve.sock. --store defaults to ./sipt-serve-store.
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/env.hh"
#include "serve/server.hh"

namespace
{

int
usage()
{
    std::cerr
        << "usage: sipt-serve [--socket <path>] [--store <dir>]\n"
        << "           [--workers N] [--queue-depth N]\n"
        << "           [--store-budget BYTES]\n";
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
const sipt::FlagParser flags{"sipt-serve", usage};

} // namespace

int
main(int argc, char **argv)
{
    sipt::serve::ServerOptions options;
    options.storeDir = "sipt-serve-store";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket") {
            options.socketPath = argValue(argc, argv, i);
        } else if (arg == "--store") {
            options.storeDir = argValue(argc, argv, i);
        } else if (arg == "--workers") {
            options.workers = static_cast<unsigned>(
                flags.u64(argc, argv, i, 1, 4096));
        } else if (arg == "--queue-depth") {
            options.queueDepth = static_cast<std::size_t>(
                flags.u64(argc, argv, i, 1, 1u << 20));
        } else if (arg == "--store-budget") {
            options.storeBudget =
                flags.u64(argc, argv, i, 0, ~std::uint64_t{0});
        } else {
            return usage();
        }
    }
    if (options.socketPath.empty()) {
        const char *env = std::getenv("SIPT_SERVE_SOCKET");
        options.socketPath =
            env != nullptr && *env != '\0'
                ? env
                : options.storeDir + "/sipt-serve.sock";
    }

    sipt::serve::Server server(options);
    server.start();
    std::cout << "sipt-serve: listening on "
              << server.socketPath() << "\n"
              << std::flush;
    server.waitShutdown();
    server.stop();
    std::cout << "sipt-serve: shut down\n";
    return 0;
}
