/**
 * @file
 * sipt-trace: record / inspect / verify SIPT trace files.
 *
 * Subcommands:
 *
 *   record --app <name> --out <file> [--seed N] [--refs N]
 *          [--warmup N] [--condition normal|fragmented|thp-off|
 *          no-contig] [--footprint-scale X]
 *     Capture <name>'s reference stream and VA->PA layout the
 *     way runSingleCore() would see them (same seeds, same
 *     conditioning). The file then runs anywhere an app name is
 *     accepted, as "trace:<file>".
 *
 *   info <file>
 *     Print the header (version, app, seed, counts, digest) as
 *     JSON.
 *
 *   verify <file> [--run <l1-preset>]
 *     Structurally verify the file: decode every record and check
 *     the count, byte length, and fnv1a64 digest against the
 *     header. With --run (baseline32k8, sipt32k2, ...), also
 *     replay the trace through the full pipeline with the
 *     differential checker armed and print the functional digest.
 *
 * Exit status: 0 = OK, 1 = bad arguments or failed verification.
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/env.hh"
#include "common/json.hh"
#include "sim/system.hh"
#include "workload/trace_format.hh"

namespace
{

int
usage()
{
    std::cerr
        << "usage: sipt-trace record --app <name> --out <file>\n"
        << "           [--seed N] [--refs N] [--warmup N]\n"
        << "           [--condition normal|fragmented|thp-off|"
           "no-contig]\n"
        << "           [--footprint-scale X]\n"
        << "       sipt-trace info <file>\n"
        << "       sipt-trace verify <file> [--run <l1-preset>]\n";
    return 1;
}

/** The next argv value after a flag, or exit with usage. */
const char *
argValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::cerr << "sipt-trace: " << argv[i]
                  << " needs a value\n";
        std::exit(usage());
    }
    return argv[++i];
}

/** Largest --refs/--warmup accepted (matches SIPT_REFS). */
constexpr std::uint64_t maxRefs = std::uint64_t{1} << 40;

/** Report a rejected flag value; returns the usage exit code. */
int
badValue(const char *flag, const char *value, const char *why)
{
    std::cerr << "sipt-trace: " << flag << " '" << value
              << "': " << why << "\n";
    return usage();
}

/** The next argv value after a flag as a whole number in
 *  [min, max], or exit with usage. */
std::uint64_t
numberValue(int argc, char **argv, int &i, std::uint64_t min,
            std::uint64_t max)
{
    const char *flag = argv[i];
    const char *value = argValue(argc, argv, i);
    const char *why = nullptr;
    const auto v = sipt::parseU64(value, min, max, &why);
    if (!v)
        std::exit(badValue(flag, value, why));
    return *v;
}

int
cmdRecord(int argc, char **argv)
{
    std::string app;
    std::string out;
    sipt::sim::SystemConfig config;
    config.measureRefs = sipt::sim::defaultMeasureRefs();

    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--app") == 0) {
            app = argValue(argc, argv, i);
        } else if (std::strcmp(argv[i], "--out") == 0) {
            out = argValue(argc, argv, i);
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            config.seed = numberValue(argc, argv, i, 0,
                                      ~std::uint64_t{0});
        } else if (std::strcmp(argv[i], "--refs") == 0) {
            config.measureRefs =
                numberValue(argc, argv, i, 1, maxRefs);
        } else if (std::strcmp(argv[i], "--warmup") == 0) {
            config.warmupRefs =
                numberValue(argc, argv, i, 0, maxRefs);
        } else if (std::strcmp(argv[i], "--condition") == 0) {
            const char *name = argValue(argc, argv, i);
            const auto cond = sipt::sim::conditionFromName(name);
            if (!cond) {
                std::cerr << "sipt-trace: unknown condition '"
                          << name << "'\n";
                return usage();
            }
            config.condition = *cond;
        } else if (std::strcmp(argv[i], "--footprint-scale") ==
                   0) {
            const char *flag = argv[i];
            const char *value = argValue(argc, argv, i);
            const char *why = nullptr;
            const auto scale =
                sipt::parseDouble(value, 1e-6, 1e3, &why);
            if (!scale)
                return badValue(flag, value, why);
            config.footprintScale = *scale;
        } else {
            std::cerr << "sipt-trace: unknown option '"
                      << argv[i] << "'\n";
            return usage();
        }
    }
    if (app.empty() || out.empty()) {
        std::cerr << "sipt-trace record: --app and --out are "
                     "required\n";
        return usage();
    }

    sipt::sim::recordTrace(app, config, out);

    std::string error;
    const auto info =
        sipt::workload::readTraceInfo(out, error);
    if (!info) {
        std::cerr << "sipt-trace: recorded file unreadable: "
                  << error << "\n";
        return 1;
    }
    std::cout << "recorded " << info->refCount << " refs of '"
              << app << "' (" << info->mapCount
              << " page mappings) to " << out << "\n";
    return 0;
}

sipt::Json
infoToJson(const std::string &path,
           const sipt::workload::TraceInfo &info)
{
    sipt::Json j = sipt::Json::object();
    j.set("path", path);
    j.set("version", std::uint64_t{info.version});
    j.set("app", info.app);
    j.set("seed", info.seed);
    j.set("refCount", info.refCount);
    j.set("recordBytes", info.recordBytes);
    j.set("recordDigest", info.recordDigest);
    j.set("regionCount", info.regionCount);
    j.set("mapCount", info.mapCount);
    j.set("contentHash",
          sipt::workload::traceContentHash(path));
    return j;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc != 3)
        return usage();
    const std::string path = argv[2];
    std::string error;
    const auto info =
        sipt::workload::readTraceInfo(path, error);
    if (!info) {
        std::cerr << "sipt-trace: " << path << ": " << error
                  << "\n";
        return 1;
    }
    std::cout << infoToJson(path, *info).dump() << "\n";
    return 0;
}

int
cmdVerify(int argc, char **argv)
{
    std::string path;
    std::string run_preset;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--run") == 0) {
            run_preset = argValue(argc, argv, i);
        } else if (path.empty()) {
            path = argv[i];
        } else {
            return usage();
        }
    }
    if (path.empty())
        return usage();

    std::string error;
    if (!sipt::workload::verifyTrace(path, error)) {
        std::cerr << "sipt-trace: " << path << ": FAILED: "
                  << error << "\n";
        return 1;
    }
    const auto info = sipt::workload::readTraceInfo(path, error);
    std::cout << "ok: " << info->refCount << " refs, "
              << info->mapCount << " mappings, digest 0x"
              << std::hex << info->recordDigest << std::dec
              << "\n";

    if (run_preset.empty())
        return 0;

    // Deep verification: replay through the full pipeline with
    // the differential golden-model checker armed.
    const auto l1 = sipt::sim::l1ConfigFromName(run_preset);
    if (!l1) {
        std::cerr << "sipt-trace: unknown L1 preset '"
                  << run_preset << "'\n";
        return usage();
    }
    sipt::sim::SystemConfig config;
    config.measureRefs = sipt::sim::defaultMeasureRefs();
    config.l1Config = *l1;
    // VIPT-feasible geometries run as the paper's baseline; the
    // SIPT geometries need speculative indexing.
    const bool vipt_ok =
        *l1 == sipt::sim::L1Config::Baseline32K8 ||
        *l1 == sipt::sim::L1Config::Small16K4;
    config.policy = vipt_ok
                        ? sipt::IndexingPolicy::Vipt
                        : sipt::IndexingPolicy::SiptCombined;
    config.check = true;
    const sipt::sim::RunResult result =
        sipt::sim::runSingleCore("trace:" + path, config);
    if (!result.checkFailure.empty()) {
        std::cerr << "sipt-trace: replay check FAILED: "
                  << result.checkFailure << "\n";
        return 1;
    }
    std::cout << "replay ok: ipc=" << result.ipc
              << " l1-hit=" << result.l1HitRate
              << " check-digest=0x" << std::hex
              << result.checkDigest << std::dec << " ("
              << result.checkEvents << " events)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    if (std::strcmp(argv[1], "record") == 0)
        return cmdRecord(argc, argv);
    if (std::strcmp(argv[1], "info") == 0)
        return cmdInfo(argc, argv);
    if (std::strcmp(argv[1], "verify") == 0)
        return cmdVerify(argc, argv);
    return usage();
}
