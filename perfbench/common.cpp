#include "perfbench/common.h"

#include <fstream>
#include <sstream>
#include <utility>

namespace perfbench {

std::map<std::string, double> SpanLog::self_ms() const {
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t p = spans_[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans_.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    for (const std::size_t c : children[i]) {
      const auto a = std::max(s.start, spans_[c].start);
      const auto b = std::min(s.end, spans_[c].end);
      if (a < b) covered.emplace_back(a, b);
    }
    std::sort(covered.begin(), covered.end());
    double covered_ms = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : covered) {
      const auto from = std::max(a, reach);
      if (b > from) {
        covered_ms += ms_between(from, b);
        reach = b;
      }
    }
    self[s.name] += std::max(0.0, ms_between(s.start, s.end) - covered_ms);
  }
  return self;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  const auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (const Span& s : spans_) {
    std::ostringstream line;
    line.precision(12);
    line << "{\"name\": \"" << s.name << "\", \"start_us\": " << us(s.start)
         << ", \"end_us\": " << us(s.end) << ", \"parent\": " << s.parent
         << ", \"request\": " << s.request << "}\n";
    out << line.str();
  }
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
