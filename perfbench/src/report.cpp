#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double top_share(std::vector<double> v, double share) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end(), std::greater<>());
  const double total = std::accumulate(v.begin(), v.end(), 0.0);
  if (total <= 0.0) return 0.0;
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(share * static_cast<double>(v.size())));
  return std::accumulate(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n), 0.0) / total;
}

const char* size_name(Size size) { return size == Size::Full ? "full" : "small"; }

void Digest::add(std::string_view bytes) {
  // Length first, so ("ab","c") and ("a","bc") digest differently.
  const auto len = static_cast<std::int64_t>(bytes.size());
  for (int i = 0; i < 8; ++i) {
    h_ ^= static_cast<std::uint64_t>(len >> (8 * i)) & 0xffU;
    h_ *= 1099511628211ULL;
  }
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(double v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  add(std::string_view(bytes, sizeof bytes));
}

void Digest::add(std::int64_t v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  add(std::string_view(bytes, sizeof bytes));
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

std::string format_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Checks::put(const std::string& key, double value) { values_[key] = format_number(value); }

void Checks::put(const std::string& key, std::string value) { values_[key] = std::move(value); }

bool Expectation::load(const std::string& path, const std::string& prefix) {
  std::ifstream in(path);
  if (!in) return false;
  const std::string head = prefix + ".";
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.rfind(head, 0) != 0) continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    set(line.substr(head.size(), space - head.size()), line.substr(space + 1));
  }
  return true;
}

void Expectation::set(const std::string& key, const std::string& text) {
  entries_[key] = Entry{text};
}

bool Expectation::perturb(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  it->second.text += "~perturbed";
  return true;
}

bool Expectation::compare(const Checks& checks, bool work_counts) {
  bool ok = true;
  for (const auto& [key, text] : checks.values()) {
    auto [it, fresh] = entries_.try_emplace(key, Entry{text});
    Entry& e = it->second;
    if (fresh && strict_ && !work_counts) {
      std::fprintf(stderr, "vbench: check %s = %s has no expected value\n", key.c_str(),
                   text.c_str());
      e = Entry{"<missing>", true, true};
      ok = false;
      continue;
    }
    if (work_counts && !e.observed && e.text != text) {
      std::fprintf(stderr, "vbench: work count %s = %s (stored %s; not a failure)\n",
                   key.c_str(), text.c_str(), e.text.c_str());
      e.text = text;
    }
    e.observed = true;
    if (e.text == text) continue;
    ok = false;
    if (!e.reported) {
      std::fprintf(stderr, "vbench: check %s = %s, expected %s\n", key.c_str(), text.c_str(),
                   e.text.c_str());
      e.reported = true;
    }
  }
  return ok;
}

std::vector<std::string> Expectation::unobserved() const {
  std::vector<std::string> keys;
  for (const auto& [key, e] : entries_) {
    if (!e.observed) keys.push_back(key);
  }
  return keys;
}

std::map<std::string, std::string> Expectation::values() const {
  std::map<std::string, std::string> out;
  for (const auto& [key, e] : entries_) out[key] = e.text;
  return out;
}

}  // namespace perfbench
