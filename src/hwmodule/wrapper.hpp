// Module wrapper (Section III.B.1 / IV.B).
//
// Application designers "encapsulate hardware modules inside special
// module wrappers to connect the original module's input and output ports
// with the external FIFO-based ports". The wrapper here additionally
// implements the generic parts of the switching methodology (Figure 5):
//
//   * on the FLUSH command from the MicroBlaze (t-link), the wrapper lets
//     the module drain its consumer FIFO and internal pipeline, emits the
//     special end-of-stream word on producer port 0 (step 5), then sends
//     the module's state registers to the MicroBlaze over the r-link
//     framed as [STATE_HEADER, count, words...] (step 6);
//   * on LOAD_STATE [count, words...], it restores the registers into a
//     freshly placed module (step 7).
//
// Control words live in a reserved 0xC0DExxxx range of the FSL word space;
// the model's software modules never send raw data in that range on
// t-links (see DESIGN.md on model simplifications).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/fsl.hpp"
#include "comm/module_interface.hpp"
#include "hwmodule/hw_module.hpp"
#include "sim/component.hpp"

namespace vapres::hwmodule {

/// Reserved FSL control words.
namespace ctrl {
inline constexpr Word kCmdFlush = 0xC0DE0001u;      ///< MB -> module
inline constexpr Word kCmdLoadState = 0xC0DE0002u;  ///< MB -> module
inline constexpr Word kStateHeader = 0xC0DE0003u;   ///< module -> MB
inline constexpr Word kEosSentNote = 0xC0DE0004u;   ///< module -> MB
}  // namespace ctrl

/// Binds a ModuleBehavior to consumer/producer interfaces and FSL links.
/// Clocked in the PRR's local clock domain.
class ModuleWrapper final : public sim::Clocked, private ModulePorts {
 public:
  ModuleWrapper(std::string name,
                std::vector<comm::ConsumerInterface*> inputs,
                std::vector<comm::ProducerInterface*> outputs,
                comm::FslLink* to_mb, comm::FslLink* from_mb);

  std::string name() const override { return name_; }

  /// Loads a behaviour (PRR reconfiguration completed). Replaces any
  /// previous behaviour.
  void load(std::unique_ptr<ModuleBehavior> behavior);
  /// Unloads the behaviour (PRR holds no module / is being reconfigured).
  std::unique_ptr<ModuleBehavior> unload();

  bool loaded() const { return behavior_ != nullptr; }
  ModuleBehavior* behavior() { return behavior_.get(); }
  const ModuleBehavior* behavior() const { return behavior_.get(); }

  /// PRR_reset (PRSocket bit 1): reset behaviour and wrapper protocol.
  void reset();

  /// Held in reset? While asserted, the wrapper does nothing per cycle.
  void set_reset(bool asserted) {
    in_reset_ = asserted;
    wake();
  }
  bool in_reset() const { return in_reset_; }

  /// Slice-macro isolation (PRSocket SM_en = 0): while isolated, the
  /// module cannot reach the static region — no FIFO or FSL activity.
  void set_isolated(bool isolated) {
    isolated_ = isolated;
    wake();
  }
  bool isolated() const { return isolated_; }

  enum class Phase { kIdle, kRunning, kDraining, kSendEos, kSendState, kDone };
  friend constexpr Phase enum_last(Phase) { return Phase::kDone; }
  Phase phase() const { return phase_; }

  /// Words the behaviour has consumed from port 0 (monitoring aid).
  std::uint64_t words_processed() const { return words_processed_; }

  void eval() override {}
  void commit() override;
  /// True when commit() would be a state no-op: held in reset/isolation,
  /// no behaviour, no FSL word pending, no words to drain, and the
  /// behaviour itself has nothing buffered. Re-armed by writes to the
  /// consumer FIFOs or the t-link FSL (wired in the constructor).
  bool quiescent() const override;

  /// Snapshot fields (snap/format.hpp): protocol phase, in-flight
  /// state-frame buffers and, with a module loaded, its state and extra
  /// words. A restore expects the saved module already loaded.
  template <class Ar>
  void visit(Ar& ar) {
    ar(phase_, in_reset_, isolated_, words_processed_, state_out_,
       state_cursor_, load_remaining_, state_in_);
    if constexpr (Ar::kReading) {
      // The outgoing frame is header, count, then the state words.
      VAPRES_REQUIRE(
          state_cursor_ <= state_out_.size() + 2 && load_remaining_ >= -2,
          "restore: state-frame cursor out of range");
    }
    if (behavior_ == nullptr) return;
    std::vector<Word> state;
    std::vector<Word> extra;
    if constexpr (!Ar::kReading) {
      state = behavior_->save_state();
      extra = behavior_->snapshot_extra();
    }
    ar(state, extra);
    if constexpr (Ar::kReading) restore_behavior(state, extra);
  }

 private:
  /// Hands restored state and extra words to the loaded behaviour; one
  /// with neither kind of state need not implement the restore hooks.
  void restore_behavior(const std::vector<Word>& state,
                        const std::vector<Word>& extra);

  // ModulePorts implementation (behaviour-facing).
  int num_inputs() const override;
  int num_outputs() const override;
  bool can_read(int port) const override;
  Word read(int port) override;
  bool can_write(int port) const override;
  void write(int port, Word w) override;
  bool fsl_can_write() const override;
  void fsl_write(Word w) override;
  std::optional<Word> fsl_try_read() override;

  void handle_control();
  bool drained() const;

  std::string name_;
  std::vector<comm::ConsumerInterface*> inputs_;
  std::vector<comm::ProducerInterface*> outputs_;
  comm::FslLink* to_mb_;
  comm::FslLink* from_mb_;
  std::unique_ptr<ModuleBehavior> behavior_;
  Phase phase_ = Phase::kIdle;
  bool in_reset_ = false;
  bool isolated_ = false;
  std::uint64_t words_processed_ = 0;
  std::vector<Word> state_out_;   ///< pending state words to send
  std::size_t state_cursor_ = 0;
  // LOAD_STATE receive progress: -1 none, -2 awaiting count, >=0 remaining.
  int load_remaining_ = -1;
  std::vector<Word> state_in_;
};

}  // namespace vapres::hwmodule
