// Shared command-line parsing for the benches and examples.
//
// Replaces the copy-pasted `rfind("--flag=", 0)` loops every bench
// carried: flags are declared once (name, help, destination), parsing
// is strict — an unknown flag or malformed value fails loudly instead
// of being silently ignored — and --help prints a generated usage
// listing. Pass-through prefixes (allow_prefix) exist for wrapped
// libraries that parse their own flags (google-benchmark's
// --benchmark_*).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace abrr::runner {

class ArgParser {
 public:
  /// `program` names the binary in usage/error output.
  explicit ArgParser(std::string program) : program_(std::move(program)) {}

  /// Declares `--name=VALUE`. The destination keeps its current value
  /// when the flag is absent; --help shows that value as the default
  /// (empty strings, empty lists and false show none).
  void add(std::string name, std::string help, std::string* out);
  void add(std::string name, std::string help, double* out);
  void add(std::string name, std::string help, unsigned long* out);
  void add(std::string name, std::string help, unsigned long long* out);
  void add(std::string name, std::string help, std::uint32_t* out);
  /// Comma-separated list, e.g. --seeds=1,2,3.
  void add(std::string name, std::string help,
           std::vector<std::uint64_t>* out);
  /// Boolean: `--name` alone sets true; `--name=0/1/true/false` sets
  /// explicitly.
  void add(std::string name, std::string help, bool* out);

  /// Arguments starting with `prefix` are ignored (left for a wrapped
  /// library to parse), e.g. allow_prefix("--benchmark_").
  void allow_prefix(std::string prefix) {
    passthrough_.push_back(std::move(prefix));
  }

  /// Parses argv. Returns false with *error set on the first unknown
  /// flag, malformed value, or non-flag positional argument. `--help`
  /// and `-h` return false with *error empty and help_requested() true.
  bool try_parse(int argc, char* const* argv, std::string* error);

  /// try_parse, but exits: usage + exit(0) on --help, error + usage to
  /// stderr + exit(2) on failure. The benches' entry point.
  void parse(int argc, char* const* argv);

  bool help_requested() const { return help_requested_; }
  std::string usage() const;

 private:
  struct Flag {
    std::string name;  // without the leading "--"
    std::string help;
    bool is_bool = false;
    /// Applies a value; returns false if it does not parse.
    std::function<bool(std::string_view)> set;
  };

  void add_flag(std::string name, std::string help, bool is_bool,
                std::string default_value,
                std::function<bool(std::string_view)> set);
  const Flag* find(std::string_view name) const;

  std::string program_;
  std::vector<Flag> flags_;
  std::vector<std::string> passthrough_;
  bool help_requested_ = false;
};

}  // namespace abrr::runner
