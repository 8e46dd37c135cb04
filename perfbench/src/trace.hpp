// Host-time spans around the library's public layer calls.
//
// The benchmark times each call it makes into a layer from the outside
// (spans inside the library are not recorded). A span carries its layer,
// start and end (host seconds since the tracer's origin), its parent
// span, the lifetime (app) id it serves, and the kernel-edge and
// model-cycle deltas read at the same boundaries. Spans are kept in
// memory and written once, as Chrome trace_event JSON, when the run
// ends. A disabled tracer records nothing: opening a span is one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Layers are named after the src/ module whose public call is timed.
enum class Layer : int {
  kEvent,         ///< one workload event (parent of its calls)
  kDrain,         ///< the end-of-scenario drain (parent of its calls)
  kGen,           ///< load::ScenarioGenerator::next
  kCheck,         ///< invariant sweeps, digest folding, gap arming
  kAdvance,       ///< VapresSystem::run_system_cycles / ControlPlane::advance_to
  kAdmit,         ///< ApplicationScheduler::submit + run_admission
  kStop,          ///< ApplicationScheduler::stop / ControlPlane::stop
  kFleetSubmit,   ///< ControlPlane::submit
  kFleetMigrate,  ///< ControlPlane::migrate
  kReplayCheck,   ///< StateDb replay-vs-live digest comparison
  kHealthTick,    ///< ControlPlane::health_tick
  kSnapBarrier,   ///< cold-snapshot barrier (transfer path + prefetch drain)
  kSnapSave,      ///< SystemSnapshot::save
  kSnapRestore,   ///< SystemSnapshot::restore_system + restore_scheduler
  kCount,
};

const char* layer_name(Layer layer);

struct Span {
  Layer layer = Layer::kEvent;
  int parent = -1;  ///< index into spans(), -1 for a root
  std::int64_t app = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t edges = 0;   ///< kernel edges delivered inside the span
  std::uint64_t cycles = 0;  ///< model system cycles advanced inside it
  // Counter readings at open; replaced by the deltas at close.
  std::uint64_t edges_at_open = 0;
  std::uint64_t cycles_at_open = 0;
};

/// Per-layer aggregate over every span of one layer.
struct LayerTotals {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t edges = 0;
  std::uint64_t cycles = 0;
  std::vector<double> durations_s;
};

class Tracer {
 public:
  /// Reads (kernel edges delivered, model system cycles) of whatever the
  /// current episode simulates; summed over fabrics for a fleet.
  using Probe = std::function<void(std::uint64_t& edges,
                                   std::uint64_t& cycles)>;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_probe(Probe probe) { probe_ = std::move(probe); }

  class Scope {
   public:
    Scope(Tracer* t, int index) : t_(t), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (t_ != nullptr) t_->close(index_);
    }

   private:
    Tracer* t_;
    int index_;
  };

  /// Opens a span that closes when the returned scope ends.
  [[nodiscard]] Scope span(Layer layer, std::int64_t app) {
    if (!enabled_) return Scope(nullptr, -1);
    return Scope(this, open(layer, app));
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Calls, total and self time, and counter deltas per layer. Self
  /// time is a span's duration minus the time its direct children cover.
  std::vector<LayerTotals> totals() const;

  /// Chrome trace_event JSON ("X" complete events, microseconds).
  void write_chrome(std::ostream& out, const std::string& process) const;

 private:
  int open(Layer layer, std::int64_t app);
  void close(int index);
  double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  bool enabled_;
  Probe probe_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
