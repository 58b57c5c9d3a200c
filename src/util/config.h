// The one parse policy for text read from outside the program: A3CS_*
// environment knobs, fault plans, wire/file fields and argv numbers.
//
// Every parse is whole-string (std::from_chars): "12abc", " 12", "+12" and
// "" are malformed, integers must fit int64 and doubles must be finite.
// Malformed or out-of-range input throws InputError, whose message names
// the source and the text:
//
//   A3CS_THREADS="12abc": expected an integer in [0, 1024]
//
// so a typo fails loudly instead of silently running a default. Entry
// points (cosearch_full, cosearch_fleet, predictor_server, the benches)
// read their knobs before any work and turn an escaping InputError into
// one stderr line and exit status 2.
//
// Every benchmark honors A3CS_SCALE (default 1.0) that multiplies all
// training-step budgets, so the same binaries can run a quick CI pass
// (A3CS_SCALE=0.1) or a long faithful run (A3CS_SCALE=10).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace a3cs::util {

inline constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
inline constexpr std::int64_t kInt64Max =
    std::numeric_limits<std::int64_t>::max();
inline constexpr double kDoubleMax = std::numeric_limits<double>::max();

// Malformed input. Message: NAME="text": expected <expected>.
class InputError : public std::runtime_error {
 public:
  InputError(std::string_view name, std::string_view text,
             std::string_view expected);
};

// Whole-string parses; nullopt when `text` is not entirely one integer
// (fitting int64) or one finite double.
std::optional<std::int64_t> to_int(std::string_view text);
std::optional<double> to_double(std::string_view text);

// The same parses bounded to [lo, hi]; InputError (naming `name`) otherwise.
std::int64_t parse_int(std::string_view name, std::string_view text,
                       std::int64_t lo, std::int64_t hi);
double parse_double(std::string_view name, std::string_view text, double lo,
                    double hi);

// A positional count argument: argv[i] as an integer in [1, INT_MAX], or
// `fallback` when there are only `i` arguments.
int count_arg(int argc, char** argv, int i, std::string_view name,
              int fallback);

// Environment knobs. An unset or empty variable yields `fallback`; anything
// else must parse within [lo, hi] or InputError is thrown.
std::int64_t env_int(const std::string& name, std::int64_t fallback,
                     std::int64_t lo, std::int64_t hi);
double env_double(const std::string& name, double fallback, double lo,
                  double hi);
// A 0/1 flag: only "0" and "1" are accepted.
bool env_flag(const std::string& name, bool fallback);
std::string env_string(const std::string& name, const std::string& fallback);

// The A3CS_* variables that are set, as sorted "NAME=value" strings joined
// by single spaces ("which configuration actually ran").
std::string env_summary();

// `text` cut at every `sep`, empty pieces kept ("a,,b" -> {"a", "", "b"}).
std::vector<std::string> split(std::string_view text, char sep);

// A fault plan: a comma list of "A" or "A<sep>B" entries, A >= 0 and B >= 1,
// both fitting int. An empty text is the empty plan. B is nullopt where the
// entry has no separator; callers decide whether that is allowed.
std::vector<std::pair<std::int64_t, std::optional<std::int64_t>>> parse_plan(
    std::string_view name, std::string_view text, char sep);

// Value of A3CS_SCALE in [1e-3, 1e3]; 1.0 when unset.
double bench_scale();

// steps * bench_scale(), at least `min_steps`.
std::int64_t scaled_steps(std::int64_t steps, std::int64_t min_steps = 64);

}  // namespace a3cs::util
