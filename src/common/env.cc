#include "common/env.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iostream>

#include "common/logging.hh"

namespace sipt
{

namespace
{

/** Record @p reason for a rejected parse. */
std::nullopt_t
reject(const char **why, const char *reason)
{
    if (why)
        *why = reason;
    return std::nullopt;
}

/** Shared reject-and-fall-back reporting. */
std::uint64_t
rejected(const char *name, const char *value, const char *why,
         std::uint64_t fallback)
{
    warn("ignoring ", name, "='", value, "' (", why,
         "); using default ", fallback);
    return fallback;
}

} // namespace

std::optional<std::uint64_t>
parseU64(const char *text, std::uint64_t min, std::uint64_t max,
         const char **why)
{
    if (*text == '\0')
        return reject(why, "empty value");
    // strtoull skips leading blanks and happily wraps "-1" (or
    // " -1") to ULLONG_MAX; accept nothing but digits up front so a
    // negative never masquerades as huge.
    if (*text == '-' || *text == '+')
        return reject(why, "signed value");
    if (!std::isdigit(static_cast<unsigned char>(*text)))
        return reject(why, "not a whole number");
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno == ERANGE)
        return reject(why, "out of range");
    if (*end != '\0')
        return reject(why, "not a whole number");
    if (v < min || v > max)
        return reject(why, "out of accepted range");
    return static_cast<std::uint64_t>(v);
}

std::optional<double>
parseDouble(const char *text, double min, double max,
            const char **why)
{
    if (*text == '\0')
        return reject(why, "empty value");
    if (std::isspace(static_cast<unsigned char>(*text)))
        return reject(why, "not a number");
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (errno == ERANGE)
        return reject(why, "out of range");
    if (end == text || *end != '\0')
        return reject(why, "not a number");
    if (!(v >= min && v <= max))
        return reject(why, "out of accepted range");
    return v;
}

const char *
FlagParser::value(int argc, char **argv, int &i) const
{
    if (i + 1 >= argc)
        reject(argv[i], "", "missing value");
    return argv[++i];
}

void
FlagParser::reject(const char *flag, const char *value,
                   const char *why) const
{
    std::cerr << tool << ": " << flag << " '" << value
              << "': " << why << "\n";
    std::exit(usage());
}

std::uint64_t
FlagParser::u64(int argc, char **argv, int &i, std::uint64_t min,
                std::uint64_t max) const
{
    const char *flag = argv[i];
    const char *text = value(argc, argv, i);
    const char *why = nullptr;
    const auto v = parseU64(text, min, max, &why);
    if (!v)
        reject(flag, text, why);
    return *v;
}

double
FlagParser::number(int argc, char **argv, int &i, double min,
                   double max) const
{
    const char *flag = argv[i];
    const char *text = value(argc, argv, i);
    const char *why = nullptr;
    const auto v = parseDouble(text, min, max, &why);
    if (!v)
        reject(flag, text, why);
    return *v;
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback, std::uint64_t min,
       std::uint64_t max)
{
    const char *value = std::getenv(name);
    if (!value)
        return fallback;
    const char *why = nullptr;
    if (const auto v = parseU64(value, min, max, &why))
        return *v;
    return rejected(name, value, why, fallback);
}

} // namespace sipt
