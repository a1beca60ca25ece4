#include "common/logging.hh"

#include <cstdlib>
#include <iostream>

namespace sipt
{
namespace detail
{

void
fatalImpl(const std::string &msg, const char *, int)
{
    std::cerr << "fatal: " << msg << std::endl;
    std::exit(1);
}

void
panicImpl(const std::string &msg, const char *, int)
{
    std::cerr << "panic: " << msg << std::endl;
    std::abort();
}

void
warnImpl(const std::string &msg)
{
    std::cerr << "warn: " << msg << std::endl;
}

} // namespace detail
} // namespace sipt
