#include "check/options.hh"

#include <cstdlib>
#include <cstring>

#include "common/env.hh"
#include "common/logging.hh"

namespace sipt::check
{

const char *
mutationName(Mutation mutation)
{
    switch (mutation) {
      case Mutation::None:
        return "none";
      case Mutation::DropTagCheck:
        return "tag";
      case Mutation::DropDirty:
        return "dirty";
      case Mutation::DropWriteback:
        return "writeback";
      case Mutation::CorruptProbe:
        return "probe";
    }
    return "?";
}

Mutation
mutationFromString(const char *name)
{
    if (name == nullptr || *name == '\0' ||
        std::strcmp(name, "none") == 0) {
        return Mutation::None;
    }
    if (std::strcmp(name, "tag") == 0)
        return Mutation::DropTagCheck;
    if (std::strcmp(name, "dirty") == 0)
        return Mutation::DropDirty;
    if (std::strcmp(name, "writeback") == 0)
        return Mutation::DropWriteback;
    if (std::strcmp(name, "probe") == 0)
        return Mutation::CorruptProbe;
    fatal("SIPT_CHECK_MUTATE: unknown mutation '", name,
          "' (expected tag, dirty, writeback, or probe)");
}

Options
Options::fromEnv(bool enabled)
{
    Options options;
    options.enabled = enabled;
    options.abortOnDivergence =
        envU64("SIPT_CHECK_ABORT", 0, 0, 1) == 1;
    options.mutation =
        mutationFromString(std::getenv("SIPT_CHECK_MUTATE"));
    return options;
}

} // namespace sipt::check
