#include "core/iom.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace vapres::core {

Iom::Iom(std::string name, const RsbParams& params,
         sim::ClockDomain& static_domain, comm::SwitchBox* box)
    : name_(std::move(name)), domain_(static_domain) {
  width_bits_ = params.width_bits;
  std::vector<comm::ProducerInterface*> prods;
  std::vector<comm::ConsumerInterface*> cons;
  for (int c = 0; c < params.ko; ++c) {
    Source src;
    src.interface = std::make_unique<comm::ProducerInterface>(
        name_ + ".p" + std::to_string(c), params.fifo_depth,
        params.width_bits);
    prods.push_back(src.interface.get());
    sources_.push_back(std::move(src));
  }
  for (int c = 0; c < params.ki; ++c) {
    Sink snk;
    snk.interface = std::make_unique<comm::ConsumerInterface>(
        name_ + ".c" + std::to_string(c), params.fifo_depth);
    cons.push_back(snk.interface.get());
    sinks_.push_back(std::move(snk));
  }
  fsl_to_mb_ =
      std::make_unique<comm::FslLink>(name_ + ".r", params.fifo_depth);
  fsl_from_mb_ =
      std::make_unique<comm::FslLink>(name_ + ".t", params.fifo_depth);
  socket_ = std::make_unique<PrSocket>(
      name_ + ".socket", box, prods, cons, fsl_to_mb_.get(),
      fsl_from_mb_.get(), /*wrapper=*/nullptr, /*clock=*/nullptr);
}

Iom::Source& Iom::source(int channel) {
  VAPRES_REQUIRE(channel >= 0 && channel < num_producers(),
                 name_ + ": producer channel out of range");
  return sources_[static_cast<std::size_t>(channel)];
}
const Iom::Source& Iom::source(int channel) const {
  VAPRES_REQUIRE(channel >= 0 && channel < num_producers(),
                 name_ + ": producer channel out of range");
  return sources_[static_cast<std::size_t>(channel)];
}
Iom::Sink& Iom::sink(int channel) {
  VAPRES_REQUIRE(channel >= 0 && channel < num_consumers(),
                 name_ + ": consumer channel out of range");
  return sinks_[static_cast<std::size_t>(channel)];
}
const Iom::Sink& Iom::sink(int channel) const {
  VAPRES_REQUIRE(channel >= 0 && channel < num_consumers(),
                 name_ + ": consumer channel out of range");
  return sinks_[static_cast<std::size_t>(channel)];
}

comm::ProducerInterface& Iom::producer(int channel) {
  return *source(channel).interface;
}

comm::ConsumerInterface& Iom::consumer(int channel) {
  return *sink(channel).interface;
}

void Iom::set_source_data(std::vector<comm::Word> data, int interval_cycles,
                          int channel) {
  auto cursor = std::make_shared<std::size_t>(0);
  auto shared = std::make_shared<std::vector<comm::Word>>(std::move(data));
  set_source_generator(
      [cursor, shared]() -> std::optional<comm::Word> {
        if (*cursor >= shared->size()) return std::nullopt;
        return (*shared)[(*cursor)++];
      },
      interval_cycles, channel);
}

void Iom::set_source_generator(
    std::function<std::optional<comm::Word>()> gen, int interval_cycles,
    int channel) {
  VAPRES_REQUIRE(interval_cycles >= 1, name_ + ": emit interval must be >= 1");
  Source& src = source(channel);
  src.generator = std::move(gen);
  src.interval_cycles = interval_cycles;
  src.next_emit_cycle = domain_.cycle_count();
  src.pending.reset();
  wake();
}

void Iom::resume_source_generator(
    std::function<std::optional<comm::Word>()> gen, int channel) {
  source(channel).generator = std::move(gen);
  wake();
}

void Iom::stop_source(int channel) { source(channel).generator = nullptr; }

bool Iom::source_active(int channel) const {
  return source(channel).generator != nullptr;
}

std::uint64_t Iom::words_emitted(int channel) const {
  return source(channel).words_emitted;
}

std::uint64_t Iom::words_drawn(int channel) const {
  const Source& src = source(channel);
  return src.words_emitted + (src.pending.has_value() ? 1 : 0);
}

std::uint64_t Iom::source_stall_cycles(int channel) const {
  return source(channel).stalls;
}

const std::vector<comm::Word>& Iom::received(int channel) const {
  return sink(channel).received;
}

std::vector<comm::Word> Iom::take_received(int channel) {
  Sink& snk = sink(channel);
  std::vector<comm::Word> out;
  out.swap(snk.received);
  snk.dropped += out.size();  // absolute indexing stays consistent
  return out;
}

std::uint64_t Iom::words_received(int channel) const {
  return sink(channel).words_received;
}

std::uint64_t Iom::received_dropped(int channel) const {
  return sink(channel).dropped;
}

void Iom::set_received_history_limit(std::size_t max_words) {
  history_limit_ = max_words;
}

std::uint64_t Iom::eos_seen(int channel) const {
  return sink(channel).eos_seen;
}

sim::Cycles Iom::max_output_gap(int channel) const {
  return sink(channel).max_gap;
}

void Iom::reset_gap_stats() {
  for (Sink& s : sinks_) {
    s.have_last_arrival = false;
    s.max_gap = 0;
  }
}

void Iom::reset_gap_stats(int channel) {
  Sink& s = sink(channel);
  s.have_last_arrival = false;
  s.max_gap = 0;
}

bool Iom::quiescent() const {
  for (const Source& src : sources_) {
    if (src.generator != nullptr || src.pending) return false;
  }
  for (const Sink& snk : sinks_) {
    if (!snk.interface->fifo().empty()) return false;
  }
  return true;
}

void Iom::commit() {
  const sim::Cycles now = domain_.cycle_count();

  // ---- Sources: one word per interval, external data does not wait ----
  for (Source& src : sources_) {
    if (src.generator == nullptr || now < src.next_emit_cycle) continue;
    if (!src.pending) {
      src.pending = src.generator();
      if (!src.pending) src.generator = nullptr;  // stream exhausted
    }
    if (src.pending) {
      if (!src.interface->fifo().full()) {
        src.interface->fifo().push(*src.pending);
        src.pending.reset();
        ++src.words_emitted;
        src.next_emit_cycle =
            now + static_cast<sim::Cycles>(src.interval_cycles);
      } else {
        // External sample arrived but the interface FIFO is full.
        ++src.stalls;
      }
    }
  }

  // ---- Sinks: drain one word per cycle per channel ---------------------
  for (Sink& snk : sinks_) {
    if (snk.interface->fifo().empty()) continue;
    const comm::Word w = snk.interface->fifo().pop();
    if (w == comm::eos_word(width_bits_)) {
      ++snk.eos_seen;
      if (fsl_to_mb_->can_write()) fsl_to_mb_->write(kIomEosDetected);
    } else {
      if (snk.have_last_arrival) {
        snk.max_gap = std::max(snk.max_gap, now - snk.last_arrival);
      }
      snk.last_arrival = now;
      snk.have_last_arrival = true;
      ++snk.words_received;
      snk.received.push_back(w);
      if (history_limit_ > 0 && snk.received.size() > history_limit_) {
        // Age out the older half in one move: O(1) amortized per word,
        // and the window never shrinks below half the limit.
        const std::size_t drop = snk.received.size() / 2;
        snk.received.erase(snk.received.begin(),
                           snk.received.begin() +
                               static_cast<std::ptrdiff_t>(drop));
        snk.dropped += drop;
      }
    }
  }
}

}  // namespace vapres::core
