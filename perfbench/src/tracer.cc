#include "tracer.h"

#include <atomic>
#include <fstream>
#include <unordered_map>

#include "common/json.h"
#include "stats.h"

namespace perfbench {

namespace {

std::uint32_t ThreadIndex() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Id Tracer::Begin(const std::string& name, Id parent,
                         const std::string& req) {
  Span s;
  s.name = name;
  s.start = NowNs();
  s.parent = parent;
  s.req = req;
  s.tid = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<Id>(spans_.size());
}

void Tracer::End(Id id) {
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(id - 1).end = now;
}

Tracer::Id Tracer::Record(const std::string& name, std::int64_t start,
                          std::int64_t end, Id parent,
                          const std::string& req) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  s.req = req;
  s.tid = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<Id>(spans_.size());
}

std::map<std::string, double> Tracer::SelfSecondsByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<Id, std::vector<Interval>> children;
  for (const Span& s : spans_) {
    if (s.parent != kNone && s.end >= 0) {
      children[s.parent].push_back({s.start, s.end});
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < 0) continue;
    const auto it = children.find(static_cast<Id>(i + 1));
    const std::int64_t self =
        it == children.end() ? s.end - s.start
                             : SelfTime({s.start, s.end}, it->second);
    out[s.name] += static_cast<double>(self) * 1e-9;
  }
  return out;
}

double Tracer::SelfSeconds(const std::string& name) const {
  const auto all = SelfSecondsByName();
  const auto it = all.find(name);
  return it == all.end() ? 0.0 : it->second;
}

bool Tracer::WriteChromeJson(const std::string& path,
                             const std::string& metadata_json) const {
  swiftsim::JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("metadata").Raw(metadata_json);
  w.Key("traceEvents").BeginArray();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end < 0) continue;
      w.BeginObject();
      w.Key("name").String(s.name);
      w.Key("ph").String("X");
      w.Key("ts").Double(static_cast<double>(s.start - base) * 1e-3);
      w.Key("dur").Double(static_cast<double>(s.end - s.start) * 1e-3);
      w.Key("pid").Uint(1);
      w.Key("tid").Uint(s.tid);
      w.Key("args").BeginObject();
      w.Key("span").Uint(i + 1);
      w.Key("parent").Uint(s.parent);
      if (!s.req.empty()) w.Key("req").String(s.req);
      w.EndObject();
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << w.str() << '\n';
  out.close();
  return static_cast<bool>(out);
}

}  // namespace perfbench
