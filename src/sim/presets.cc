#include "sim/presets.hh"

#include <cctype>

#include "common/logging.hh"
#include "energy/cacti_model.hh"

namespace sipt::sim
{

const char *
l1ConfigName(L1Config config)
{
    switch (config) {
      case L1Config::Baseline32K8:
        return "32KiB 8-way (base)";
      case L1Config::Small16K4:
        return "16KiB 4-way";
      case L1Config::Sipt32K2:
        return "32KiB 2-way";
      case L1Config::Sipt32K4:
        return "32KiB 4-way";
      case L1Config::Sipt64K4:
        return "64KiB 4-way";
      case L1Config::Sipt128K4:
        return "128KiB 4-way";
    }
    return "?";
}

std::optional<L1Config>
l1ConfigFromName(std::string_view name)
{
    std::string lower(name);
    for (char &c : lower)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (lower == "baseline32k8")
        return L1Config::Baseline32K8;
    if (lower == "small16k4")
        return L1Config::Small16K4;
    if (lower == "sipt32k2")
        return L1Config::Sipt32K2;
    if (lower == "sipt32k4")
        return L1Config::Sipt32K4;
    if (lower == "sipt64k4")
        return L1Config::Sipt64K4;
    if (lower == "sipt128k4")
        return L1Config::Sipt128K4;
    return std::nullopt;
}

std::optional<IndexingPolicy>
policyFromName(std::string_view name)
{
    std::string lower(name);
    for (char &c : lower)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (lower == "vipt")
        return IndexingPolicy::Vipt;
    if (lower == "ideal")
        return IndexingPolicy::Ideal;
    if (lower == "naive")
        return IndexingPolicy::SiptNaive;
    if (lower == "bypass")
        return IndexingPolicy::SiptBypass;
    if (lower == "combined")
        return IndexingPolicy::SiptCombined;
    if (lower == "vespa")
        return IndexingPolicy::SiptVespa;
    if (lower == "revelator")
        return IndexingPolicy::SiptRevelator;
    if (lower == "pcax")
        return IndexingPolicy::SiptPcax;
    return std::nullopt;
}

const std::vector<L1Config> &
siptConfigs()
{
    static const std::vector<L1Config> configs = {
        L1Config::Sipt32K2,
        L1Config::Sipt32K4,
        L1Config::Sipt64K4,
        L1Config::Sipt128K4,
    };
    return configs;
}

L1Params
l1Preset(L1Config config, IndexingPolicy policy,
         bool way_prediction)
{
    L1Params p;
    p.policy = policy;
    p.wayPrediction = way_prediction;
    p.geometry.lineBytes = 64;

    // Latency / energy / static power are the paper's published
    // CACTI values (Tab. II). The 16 KiB point is not in Tab. II;
    // it comes from our CACTI-like model.
    switch (config) {
      case L1Config::Baseline32K8:
        p.geometry.sizeBytes = 32 * 1024;
        p.geometry.assoc = 8;
        p.hitLatency = 4;
        p.accessEnergyNj = 0.38;
        p.staticPowerMw = 46.0;
        break;
      case L1Config::Small16K4: {
        p.geometry.sizeBytes = 16 * 1024;
        p.geometry.assoc = 4;
        p.hitLatency = 2;
        const energy::ArrayConfig ac{16 * 1024, 4, 1, 1};
        p.accessEnergyNj = energy::CactiModel::accessEnergyNj(ac);
        p.staticPowerMw = energy::CactiModel::staticPowerMw(ac);
        break;
      }
      case L1Config::Sipt32K2:
        p.geometry.sizeBytes = 32 * 1024;
        p.geometry.assoc = 2;
        p.hitLatency = 2;
        p.accessEnergyNj = 0.10;
        p.staticPowerMw = 24.0;
        break;
      case L1Config::Sipt32K4:
        p.geometry.sizeBytes = 32 * 1024;
        p.geometry.assoc = 4;
        p.hitLatency = 3;
        p.accessEnergyNj = 0.185;
        p.staticPowerMw = 30.0;
        break;
      case L1Config::Sipt64K4:
        p.geometry.sizeBytes = 64 * 1024;
        p.geometry.assoc = 4;
        p.hitLatency = 3;
        p.accessEnergyNj = 0.27;
        p.staticPowerMw = 51.0;
        break;
      case L1Config::Sipt128K4:
        p.geometry.sizeBytes = 128 * 1024;
        p.geometry.assoc = 4;
        p.hitLatency = 4;
        p.accessEnergyNj = 0.29;
        p.staticPowerMw = 69.0;
        break;
    }
    p.name = l1ConfigName(config);
    return p;
}

cache::TimingCacheParams
l2Preset()
{
    cache::TimingCacheParams p;
    p.name = "L2";
    p.geometry.sizeBytes = 256 * 1024;
    p.geometry.assoc = 8;
    p.geometry.lineBytes = 64;
    p.latency = 12;
    p.accessEnergyNj = 0.13;
    p.staticPowerMw = 102.0;
    return p;
}

cache::TimingCacheParams
llcPreset(bool out_of_order, std::uint32_t cores)
{
    if (cores == 0)
        fatal("llcPreset: zero cores");
    cache::TimingCacheParams p;
    p.name = "LLC";
    p.geometry.assoc = 16;
    p.geometry.lineBytes = 64;
    if (out_of_order) {
        p.geometry.sizeBytes = 2ull * 1024 * 1024 * cores;
        p.latency = 25;
        p.accessEnergyNj = 0.35;
        p.staticPowerMw = 578.0 * cores;
    } else {
        p.geometry.sizeBytes = 1ull * 1024 * 1024 * cores;
        p.latency = 20;
        p.accessEnergyNj = 0.29;
        p.staticPowerMw = 532.0 * cores;
    }
    return p;
}

vm::MmuParams
mmuPreset()
{
    return vm::MmuParams{};
}

} // namespace sipt::sim
