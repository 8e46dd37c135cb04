#include "hwmodule/wrapper.hpp"

#include "sim/check.hpp"

namespace vapres::hwmodule {

ModuleWrapper::ModuleWrapper(std::string name,
                             std::vector<comm::ConsumerInterface*> inputs,
                             std::vector<comm::ProducerInterface*> outputs,
                             comm::FslLink* to_mb, comm::FslLink* from_mb)
    : name_(std::move(name)),
      inputs_(std::move(inputs)),
      outputs_(std::move(outputs)),
      to_mb_(to_mb),
      from_mb_(from_mb) {
  for (auto* in : inputs_) {
    VAPRES_REQUIRE(in != nullptr, name_ + ": null consumer interface");
  }
  for (auto* out : outputs_) {
    VAPRES_REQUIRE(out != nullptr, name_ + ": null producer interface");
  }
  VAPRES_REQUIRE(to_mb_ != nullptr && from_mb_ != nullptr,
                 name_ + ": wrapper needs both FSL links");
  // Writes from the static region (fabric delivering words, MicroBlaze
  // sending control) and drains of the producer FIFOs (freeing space a
  // stalled behaviour waits for) must re-arm the wrapper's clock domain.
  for (auto* in : inputs_) in->fifo().add_wake_target(this);
  for (auto* out : outputs_) out->fifo().add_wake_target(this);
  from_mb_->add_wake_target(this);
}

void ModuleWrapper::load(std::unique_ptr<ModuleBehavior> behavior) {
  VAPRES_REQUIRE(behavior != nullptr, name_ + ": cannot load null module");
  behavior_ = std::move(behavior);
  phase_ = Phase::kRunning;
  words_processed_ = 0;
  state_out_.clear();
  state_cursor_ = 0;
  load_remaining_ = -1;
  state_in_.clear();
  wake();
}

std::unique_ptr<ModuleBehavior> ModuleWrapper::unload() {
  phase_ = Phase::kIdle;
  wake();
  return std::move(behavior_);
}

void ModuleWrapper::reset() {
  if (behavior_) {
    behavior_->reset();
    phase_ = Phase::kRunning;
  } else {
    phase_ = Phase::kIdle;
  }
  words_processed_ = 0;
  state_out_.clear();
  state_cursor_ = 0;
  load_remaining_ = -1;
  state_in_.clear();
  wake();
}

bool ModuleWrapper::quiescent() const {
  if (in_reset_ || isolated_ || behavior_ == nullptr) return true;
  if (from_mb_->can_read()) return false;  // control or data word pending
  // Mid LOAD_STATE transfer the wrapper only waits for the next FSL word.
  if (load_remaining_ != -1) return true;
  switch (phase_) {
    case Phase::kIdle:
    case Phase::kDone:
      return true;
    case Phase::kRunning:
      break;
    default:
      return false;  // switching protocol still making progress
  }
  for (const auto* in : inputs_) {
    if (!in->fifo().empty()) return false;
  }
  return behavior_->quiescent();
}

int ModuleWrapper::num_inputs() const {
  return static_cast<int>(inputs_.size());
}
int ModuleWrapper::num_outputs() const {
  return static_cast<int>(outputs_.size());
}

bool ModuleWrapper::can_read(int port) const {
  VAPRES_REQUIRE(port >= 0 && port < num_inputs(), name_ + ": bad in port");
  return !inputs_[static_cast<std::size_t>(port)]->fifo().empty();
}

Word ModuleWrapper::read(int port) {
  VAPRES_REQUIRE(port >= 0 && port < num_inputs(), name_ + ": bad in port");
  if (port == 0) ++words_processed_;
  return inputs_[static_cast<std::size_t>(port)]->fifo().pop();
}

bool ModuleWrapper::can_write(int port) const {
  VAPRES_REQUIRE(port >= 0 && port < num_outputs(), name_ + ": bad out port");
  return !outputs_[static_cast<std::size_t>(port)]->fifo().full();
}

void ModuleWrapper::write(int port, Word w) {
  VAPRES_REQUIRE(port >= 0 && port < num_outputs(), name_ + ": bad out port");
  outputs_[static_cast<std::size_t>(port)]->fifo().push(w);
}

bool ModuleWrapper::fsl_can_write() const { return to_mb_->can_write(); }
void ModuleWrapper::fsl_write(Word w) { to_mb_->write(w); }
std::optional<Word> ModuleWrapper::fsl_try_read() {
  // Control words never reach the behaviour; handle_control consumed them.
  if (!from_mb_->can_read()) return std::nullopt;
  const Word w = from_mb_->peek();
  if ((w & 0xFFFF0000u) == 0xC0DE0000u) return std::nullopt;
  return from_mb_->read();
}

bool ModuleWrapper::drained() const {
  for (const auto* in : inputs_) {
    if (!in->fifo().empty()) return false;
  }
  return behavior_ == nullptr || behavior_->pipeline_empty();
}

void ModuleWrapper::handle_control() {
  if (!from_mb_->can_read()) return;

  // Complete an in-progress LOAD_STATE transfer first.
  if (load_remaining_ == -2) {
    load_remaining_ = static_cast<int>(from_mb_->read());
    if (load_remaining_ == 0) {
      // Empty frame: the replaced module was stateless — nothing to
      // restore (restore_state on a fresh module would be a misuse).
      load_remaining_ = -1;
    }
    return;
  }
  if (load_remaining_ > 0) {
    state_in_.push_back(from_mb_->read());
    if (--load_remaining_ == 0) {
      behavior_->restore_state(state_in_);
      state_in_.clear();
      load_remaining_ = -1;
    }
    return;
  }

  const Word w = from_mb_->peek();
  if (w == ctrl::kCmdFlush) {
    from_mb_->read();
    VAPRES_REQUIRE(behavior_ != nullptr,
                   name_ + ": FLUSH with no module loaded");
    phase_ = Phase::kDraining;
  } else if (w == ctrl::kCmdLoadState) {
    from_mb_->read();
    VAPRES_REQUIRE(behavior_ != nullptr,
                   name_ + ": LOAD_STATE with no module loaded");
    state_in_.clear();
    load_remaining_ = -2;  // next word is the count
  }
  // Non-control words are left for the behaviour's fsl_try_read().
}

void ModuleWrapper::commit() {
  if (in_reset_ || isolated_ || behavior_ == nullptr) return;

  handle_control();

  // While a LOAD_STATE transfer is in progress the module must not fire:
  // it would process data with pre-restore state (Figure 5 step 7 happens
  // before the module joins the processing path).
  if (load_remaining_ != -1) return;

  switch (phase_) {
    case Phase::kIdle:
    case Phase::kDone:
      return;

    case Phase::kRunning:
      behavior_->on_cycle(*this);
      return;

    case Phase::kDraining:
      // Step 5 precondition: "filter A continues processing the remaining
      // data words present in the consumer interface FIFO".
      if (!drained()) {
        behavior_->on_cycle(*this);
        return;
      }
      phase_ = Phase::kSendEos;
      [[fallthrough]];

    case Phase::kSendEos:
      if (!outputs_.empty()) {
        if (!can_write(0)) return;  // wait for space
        write(0, comm::kEndOfStreamWord);
      }
      // Stage the state registers for step 6.
      state_out_ = behavior_->save_state();
      state_cursor_ = 0;
      if (fsl_can_write()) fsl_write(ctrl::kEosSentNote);
      phase_ = Phase::kSendState;
      return;

    case Phase::kSendState: {
      // Frame: STATE_HEADER, count, then the words; one word per cycle.
      const std::size_t frame_len = 2 + state_out_.size();
      if (state_cursor_ < frame_len && fsl_can_write()) {
        if (state_cursor_ == 0) {
          fsl_write(ctrl::kStateHeader);
        } else if (state_cursor_ == 1) {
          fsl_write(static_cast<Word>(state_out_.size()));
        } else {
          fsl_write(state_out_[state_cursor_ - 2]);
        }
        ++state_cursor_;
      }
      if (state_cursor_ >= frame_len) phase_ = Phase::kDone;
      return;
    }
  }
}

void ModuleWrapper::restore_behavior(const std::vector<Word>& state,
                                     const std::vector<Word>& extra) {
  if (!state.empty() || !behavior_->save_state().empty()) {
    behavior_->restore_state(state);
  }
  if (!extra.empty() || !behavior_->snapshot_extra().empty()) {
    behavior_->restore_extra(extra);
  }
}

}  // namespace vapres::hwmodule
