/**
 * @file
 * Error and status reporting in the gem5 idiom.
 *
 * @c fatal() terminates on a user error (bad configuration) with
 * exit(1); @c panic() terminates on an internal invariant violation
 * with abort(); @c warn() reports suspicious-but-survivable
 * conditions.
 */

#ifndef SIPT_COMMON_LOGGING_HH
#define SIPT_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace sipt
{

namespace detail
{

/** Concatenate a parameter pack into one message string. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void fatalImpl(const std::string &msg, const char *file,
                            int line);
[[noreturn]] void panicImpl(const std::string &msg, const char *file,
                            int line);
void warnImpl(const std::string &msg);

} // namespace detail

/**
 * Abort the simulation because of a user error (bad configuration,
 * invalid arguments). Exits with status 1.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(
        detail::formatMessage(std::forward<Args>(args)...),
        nullptr, 0);
}

/**
 * Abort the simulation because of an internal bug: a condition that
 * must never occur regardless of user input. Calls abort().
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl(
        detail::formatMessage(std::forward<Args>(args)...),
        nullptr, 0);
}

/** Report a survivable but suspicious condition to stderr. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(
        detail::formatMessage(std::forward<Args>(args)...));
}

/** panic() unless @p cond holds. */
#define SIPT_ASSERT(cond, ...)                                        \
    do {                                                              \
        if (!(cond)) {                                                \
            ::sipt::panic("assertion failed: ", #cond, " ",          \
                          ##__VA_ARGS__);                             \
        }                                                             \
    } while (false)

/**
 * SIPT_ASSERT for invariant checks whose *evaluation* rescans a
 * whole structure (e.g. re-probing a cache set to assert a line is
 * absent). These double the cost of the operation they guard, so
 * optimized builds (NDEBUG) compile them out; debug builds and the
 * differential golden-model checker still enforce the invariants.
 */
#ifdef NDEBUG
#define SIPT_DEBUG_ASSERT(cond, ...)                                  \
    do {                                                              \
        if (false) {                                                  \
            (void)(cond);                                             \
        }                                                             \
    } while (false)
#else
#define SIPT_DEBUG_ASSERT(cond, ...) SIPT_ASSERT(cond, ##__VA_ARGS__)
#endif

} // namespace sipt

#endif // SIPT_COMMON_LOGGING_HH
