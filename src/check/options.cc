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
    fatal("SIPT_CHECK_MUTATE: unknown mutation '", name,
          "' (expected tag, dirty, or writeback)");
}

Options
Options::fromEnv()
{
    Options options;
    options.enabled = envU64("SIPT_CHECK", 0, 0, 1) == 1;
    options.abortOnDivergence =
        envU64("SIPT_CHECK_ABORT", 0, 0, 1) == 1;
    options.recordEvents = envU64("SIPT_CHECK_RECORD", 0, 0, 1) == 1;
    options.mutation =
        mutationFromString(std::getenv("SIPT_CHECK_MUTATE"));
    return options;
}

} // namespace sipt::check
