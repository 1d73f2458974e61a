#include "runner/arg_parser.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace abrr::runner {
namespace {

bool parse_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  const std::string copy{text};
  errno = 0;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(copy.c_str(), &end, 10);
  if (errno != 0 || end != copy.c_str() + copy.size()) return false;
  *out = v;
  return true;
}

bool parse_f64(std::string_view text, double* out) {
  if (text.empty()) return false;
  const std::string copy{text};
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (errno != 0 || end != copy.c_str() + copy.size()) return false;
  *out = v;
  return true;
}

bool parse_bool(std::string_view text, bool* out) {
  if (text == "1" || text == "true" || text == "yes" || text == "on") {
    *out = true;
    return true;
  }
  if (text == "0" || text == "false" || text == "no" || text == "off") {
    *out = false;
    return true;
  }
  return false;
}

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

void ArgParser::add_flag(std::string name, std::string help, bool is_bool,
                         std::string default_value,
                         std::function<bool(std::string_view)> set) {
  Flag f;
  f.name = std::move(name);
  f.help = std::move(help);
  if (!default_value.empty()) f.help += " (default " + default_value + ")";
  f.is_bool = is_bool;
  f.set = std::move(set);
  flags_.push_back(std::move(f));
}

void ArgParser::add(std::string name, std::string help, std::string* out) {
  add_flag(std::move(name), std::move(help), false, *out,
           [out](std::string_view v) {
             *out = std::string{v};
             return true;
           });
}

void ArgParser::add(std::string name, std::string help, double* out) {
  add_flag(std::move(name), std::move(help), false, format_double(*out),
           [out](std::string_view v) { return parse_f64(v, out); });
}

void ArgParser::add(std::string name, std::string help, unsigned long* out) {
  add_flag(std::move(name), std::move(help), false, std::to_string(*out),
           [out](std::string_view v) {
             std::uint64_t n = 0;
             if (!parse_u64(v, &n)) return false;
             *out = static_cast<unsigned long>(n);
             return true;
           });
}

void ArgParser::add(std::string name, std::string help,
                    unsigned long long* out) {
  add_flag(std::move(name), std::move(help), false, std::to_string(*out),
           [out](std::string_view v) {
             std::uint64_t n = 0;
             if (!parse_u64(v, &n)) return false;
             *out = n;
             return true;
           });
}

void ArgParser::add(std::string name, std::string help, std::uint32_t* out) {
  add_flag(std::move(name), std::move(help), false, std::to_string(*out),
           [out](std::string_view v) {
             std::uint64_t n = 0;
             if (!parse_u64(v, &n) || n > 0xffffffffull) return false;
             *out = static_cast<std::uint32_t>(n);
             return true;
           });
}

void ArgParser::add(std::string name, std::string help,
                    std::vector<std::uint64_t>* out) {
  std::string shown;
  for (const std::uint64_t v : *out) {
    shown += (shown.empty() ? "" : ",") + std::to_string(v);
  }
  add_flag(std::move(name), std::move(help), false, std::move(shown),
           [out](std::string_view v) {
             std::vector<std::uint64_t> parsed;
             while (!v.empty()) {
               const std::size_t comma = v.find(',');
               const std::string_view item = v.substr(0, comma);
               std::uint64_t n = 0;
               if (!parse_u64(item, &n)) return false;
               parsed.push_back(n);
               if (comma == std::string_view::npos) break;
               v.remove_prefix(comma + 1);
             }
             if (parsed.empty()) return false;
             *out = std::move(parsed);
             return true;
           });
}

void ArgParser::add(std::string name, std::string help, bool* out) {
  add_flag(std::move(name), std::move(help), true, *out ? "true" : "",
           [out](std::string_view v) {
             if (v.empty()) {  // bare --flag
               *out = true;
               return true;
             }
             return parse_bool(v, out);
           });
}

const ArgParser::Flag* ArgParser::find(std::string_view name) const {
  for (const Flag& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

bool ArgParser::try_parse(int argc, char* const* argv, std::string* error) {
  help_requested_ = false;
  error->clear();
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return false;
    }
    bool passed_through = false;
    for (const std::string& prefix : passthrough_) {
      if (arg.rfind(prefix, 0) == 0) {
        passed_through = true;
        break;
      }
    }
    if (passed_through) continue;
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected positional argument '" + std::string{arg} + "'";
      return false;
    }
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(2, eq == std::string_view::npos
                                                    ? std::string_view::npos
                                                    : eq - 2);
    const Flag* flag = find(name);
    if (flag == nullptr) {
      *error = "unknown flag '" + std::string{arg} + "'";
      return false;
    }
    if (eq == std::string_view::npos && !flag->is_bool) {
      *error = "flag '--" + flag->name + "' needs a value (--" + flag->name +
               "=...)";
      return false;
    }
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{} : arg.substr(eq + 1);
    if (!flag->set(value)) {
      *error = "bad value '" + std::string{value} + "' for flag '--" +
               flag->name + "'";
      return false;
    }
  }
  return true;
}

void ArgParser::parse(int argc, char* const* argv) {
  std::string error;
  if (try_parse(argc, argv, &error)) return;
  if (help_requested_) {
    std::fputs(usage().c_str(), stdout);
    std::exit(0);
  }
  std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), error.c_str(),
               usage().c_str());
  std::exit(2);
}

std::string ArgParser::usage() const {
  std::string out = "usage: " + program_ + " [flags]\n";
  for (const Flag& f : flags_) {
    out += "  --" + f.name + (f.is_bool ? "" : "=VALUE");
    out += "\n      " + f.help + "\n";
  }
  for (const std::string& prefix : passthrough_) {
    out += "  " + prefix + "* passed through\n";
  }
  return out;
}

}  // namespace abrr::runner
