#ifndef APEX_EXAMPLES_FLAGS_H_
#define APEX_EXAMPLES_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>

#include "core/status.hpp"

/**
 * @file
 * Command-line flags shared by apexc and apexd: `--flag VALUE` pairs
 * anywhere in argv, and strictly parsed numeric values.
 */

namespace apex::cli {

/** The argument after @p flag, or null when @p flag is absent. */
inline const char *
flagValue(int argc, char **argv, const char *flag)
{
    for (int i = 0; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return nullptr;
}

/** True when @p flag appears anywhere in argv. */
inline bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 0; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

/**
 * @p text as a @p T (an integer type or double) for the option
 * @p name.  The whole text must be the number: an empty value,
 * trailing text ("5s"), an out-of-range or a non-finite value throws
 * ApexError kInvalidArgument (exit code 2).
 */
template <typename T>
T
parseNumber(const char *name, const char *text)
{
    T value{};
    const char *end = text + std::strlen(text);
    const auto [stop, ec] = std::from_chars(text, end, value);
    bool ok = ec == std::errc() && stop == end && text != end;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(value);
    if (!ok)
        throw ApexError(Status(
            ErrorCode::kInvalidArgument,
            std::string("invalid value '") + text + "' for " + name +
                (std::is_integral_v<T> ? " (expected an integer)"
                                       : " (expected a number)")));
    return value;
}

/** `--flag N` parsed strictly as @p fallback's type, or @p fallback
 * when the flag is absent. */
template <typename T>
T
numberFlag(int argc, char **argv, const char *flag, T fallback)
{
    const char *s = flagValue(argc, argv, flag);
    return s != nullptr ? parseNumber<T>(flag, s) : fallback;
}

} // namespace apex::cli

#endif // APEX_EXAMPLES_FLAGS_H_
