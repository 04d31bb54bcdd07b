#include "common/metrics.h"

#include <cmath>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace dpu::metrics {

namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf] << "0123456789abcdef"[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

std::ostream& operator<<(std::ostream& os, const Counter& c) { return os << c.value(); }

Counter& MetricsRegistry::counter(const std::string& name) {
  auto it = owned_.find(name);
  if (it == owned_.end()) {
    require(linked_.find(name) == linked_.end(), "counter name already linked");
    it = owned_.emplace(name, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

void MetricsRegistry::link(const std::string& name, const Counter* c) {
  require(c != nullptr, "linking a null counter");
  require(owned_.find(name) == owned_.end(), "counter name already owned by registry");
  auto [it, inserted] = linked_.emplace(name, c);
  require(inserted ? true : it->second == c, "counter name linked to a different slot");
}

void MetricsRegistry::set_gauge(const std::string& name, double v) { gauges_[name] = v; }

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  if (auto it = owned_.find(name); it != owned_.end()) return it->second->value();
  if (auto it = linked_.find(name); it != linked_.end()) return it->second->value();
  return 0;
}

bool MetricsRegistry::has_counter(const std::string& name) const {
  return owned_.count(name) > 0 || linked_.count(name) > 0;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\"counters\": {";
  // Two-pointer merge of the (individually sorted) owned and linked maps
  // keeps the export sorted by name without building a temporary map.
  auto o = owned_.begin();
  auto l = linked_.begin();
  bool first = true;
  auto emit = [&](const std::string& name, std::uint64_t v) {
    if (!first) os << ", ";
    first = false;
    write_escaped(os, name);
    os << ": " << v;
  };
  while (o != owned_.end() || l != linked_.end()) {
    if (l == linked_.end() || (o != owned_.end() && o->first < l->first)) {
      emit(o->first, o->second->value());
      ++o;
    } else {
      emit(l->first, l->second->value());
      ++l;
    }
  }
  os << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges_) {
    if (!first) os << ", ";
    first = false;
    write_escaped(os, name);
    if (std::isfinite(v)) {
      os << ": " << v;
    } else {
      os << ": null";
    }
  }
  os << "}}";
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace dpu::metrics
