#include "obs/snapshotter.hpp"

#include <map>
#include <string>
#include <utility>

namespace ssdfail::obs {

std::vector<SampleDelta> Snapshotter::tick() {
  RegistrySnapshot current = registry_.snapshot();
  // Key the previous capture for O(log n) lookup; sample keys are unique
  // (one per (name, labels) child).
  std::map<std::string, const Sample*> previous;
  for (const Sample& s : last_.samples) previous.emplace(s.key(), &s);

  std::vector<SampleDelta> deltas;
  deltas.reserve(current.samples.size());
  for (const Sample& s : current.samples) {
    SampleDelta d;
    d.sample = s;
    const auto it = previous.find(s.key());
    if (s.type == MetricType::kHistogram) {
      d.delta = static_cast<double>(s.count) -
                (it != previous.end() ? static_cast<double>(it->second->count) : 0.0);
    } else {
      d.delta = s.value - (it != previous.end() ? it->second->value : 0.0);
    }
    deltas.push_back(std::move(d));
  }
  last_ = std::move(current);
  return deltas;
}

}  // namespace ssdfail::obs
