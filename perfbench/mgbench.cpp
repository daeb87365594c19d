// mgbench — the program behind the repository benchmark (perfbench/run.py).
//
//   mgbench rep   --workload W --seed N
//       One timed repetition with tracing off: set-up times, run wall time,
//       simulated seconds and the output fingerprint, as one JSON line.
//   mgbench trace --workload W --seed N [--spans FILE]
//       The untraced reference run, the traced run and the layer drivers:
//       every per-layer metric as one JSON line; spans and input shapes go
//       to FILE.
//
// Workloads: rgg3k_idle, tree15_overload, tree15_campaign (README.md).

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace mgbench {

namespace {

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void JsonObject::key(std::string_view k) {
  if (body_.size() > 1) body_ += ", ";
  body_ += quoted(k) + ": ";
}

JsonObject& JsonObject::num(std::string_view k, double value) {
  key(k);
  body_ += number(value);
  return *this;
}

JsonObject& JsonObject::str(std::string_view k, std::string_view value) {
  key(k);
  body_ += quoted(value);
  return *this;
}

JsonObject& JsonObject::nums(std::string_view k, const std::vector<double>& values) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < values.size(); ++i) body_ += (i ? ", " : "") + number(values[i]);
  body_ += "]";
  return *this;
}

JsonObject& JsonObject::strs(std::string_view k, const std::vector<std::string>& values) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < values.size(); ++i) body_ += (i ? ", " : "") + quoted(values[i]);
  body_ += "]";
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

int SpanLog::begin(std::string name, int parent) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  spans_.push_back(Span{std::move(name), parent, now, now});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int span) {
  spans_.at(static_cast<std::size_t>(span)).end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

double SpanLog::seconds(int span) const {
  const Span& s = spans_.at(static_cast<std::size_t>(span));
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

std::string SpanLog::json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonObject o;
    o.str("name", s.name)
        .num("parent", s.parent)
        .num("start_ns", static_cast<double>(s.start_ns))
        .num("end_ns", static_cast<double>(s.end_ns));
    out += (i ? ", " : "") + o.text();
  }
  return out + "]";
}

}  // namespace mgbench

int main(int argc, char** argv) {
  const auto usage = [argv] {
    std::fprintf(stderr,
                 "usage: %s rep|trace --workload W --seed N [--spans FILE]\n"
                 "workloads: rgg3k_idle tree15_overload tree15_campaign\n",
                 argv[0]);
    return 2;
  };
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload;
  std::string spans;
  std::uint64_t seed = 7;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--workload") == 0) {
      workload = argv[i + 1];
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--spans") == 0) {
      spans = argv[i + 1];
    } else {
      return usage();
    }
  }
  const auto w = mgbench::parse_workload(workload);
  if (!w || (mode != "rep" && mode != "trace")) return usage();
  try {
    return mode == "rep" ? mgbench::run_rep(*w, seed) : mgbench::run_trace(*w, seed, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mgbench: %s\n", e.what());
    return 1;
  }
}
