#include "trace.hpp"

#include <iomanip>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kEvent: return "load.event";
    case Layer::kDrain: return "load.drain";
    case Layer::kGen: return "load.gen";
    case Layer::kCheck: return "load.check";
    case Layer::kAdvance: return "sim.advance";
    case Layer::kAdmit: return "sched.admit";
    case Layer::kStop: return "sched.stop";
    case Layer::kFleetSubmit: return "fleet.submit";
    case Layer::kFleetMigrate: return "fleet.migrate";
    case Layer::kReplayCheck: return "fleet.replay_check";
    case Layer::kHealthTick: return "health.tick";
    case Layer::kSnapBarrier: return "snap.barrier";
    case Layer::kSnapSave: return "snap.save";
    case Layer::kSnapRestore: return "snap.restore";
    case Layer::kCount: break;
  }
  return "?";
}

int Tracer::open(Layer layer, std::int64_t app) {
  Span s;
  s.layer = layer;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.app = app;
  if (probe_) probe_(s.edges_at_open, s.cycles_at_open);
  s.start_s = now_s();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_s = now_s();
  std::uint64_t edges = 0;
  std::uint64_t cycles = 0;
  if (probe_) probe_(edges, cycles);
  s.edges = edges - s.edges_at_open;
  s.cycles = cycles - s.cycles_at_open;
  stack_.pop_back();
}

std::vector<LayerTotals> Tracer::totals() const {
  std::vector<LayerTotals> out(static_cast<std::size_t>(Layer::kCount));
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerTotals& t = out[static_cast<std::size_t>(s.layer)];
    const double dur = s.end_s - s.start_s;
    ++t.calls;
    t.total_s += dur;
    t.self_s += dur - child_s[i];
    t.edges += s.edges;
    t.cycles += s.cycles;
    t.durations_s.push_back(dur);
  }
  return out;
}

void Tracer::write_chrome(std::ostream& out, const std::string& process) const {
  out << std::fixed << std::setprecision(3);
  out << "{\"traceEvents\":[\n{\"ph\":\"M\",\"pid\":1,\"name\":"
         "\"process_name\",\"args\":{\"name\":\""
      << process << "\"}}";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\""
        << layer_name(s.layer) << "\",\"ts\":" << s.start_s * 1e6
        << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"app\":" << s.app << ",\"edges\":" << s.edges
        << ",\"cycles\":" << s.cycles << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace perfbench
