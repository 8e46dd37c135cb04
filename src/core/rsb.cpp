#include "core/rsb.hpp"

#include "sim/check.hpp"

namespace vapres::core {

Rsb::Rsb(std::string name, const RsbParams& params,
         const fabric::DeviceGeometry& device, sim::Simulator& sim,
         sim::ClockDomain& static_domain, comm::DcrBus& dcr,
         double prr_clock_a_mhz, double prr_clock_b_mhz,
         std::vector<fabric::ClbRect> prr_rects, comm::DcrAddress dcr_base)
    : name_(std::move(name)), params_(params), dcr_(dcr),
      dcr_base_(dcr_base) {
  params_.validate();
  VAPRES_REQUIRE(static_cast<int>(prr_rects.size()) == params_.num_prrs,
                 name_ + ": need one rectangle per PRR");

  const comm::SwitchBoxShape shape{params_.kr, params_.kl, params_.ki,
                                   params_.ko};
  fabric_ = std::make_unique<comm::SwitchFabric>(
      static_domain, params_.num_attachments(), shape, name_ + ".fabric");
  channels_ = std::make_unique<ChannelManager>(*fabric_);

  // Attachment order is the fabric's commit order, and with it the order
  // of fault draws on FIFO pushes: an IOM's producers, its consumers, then
  // its source/sink logic; a PRR's consumers, then its producers.
  for (int i = 0; i < params_.num_ioms; ++i) {
    const int box_index = params_.box_of_iom(i);
    ioms_.push_back(std::make_unique<Iom>(
        name_ + ".iom" + std::to_string(i), params_, static_domain,
        &fabric_->box(box_index)));
    for (int c = 0; c < params_.ko; ++c) {
      fabric_->attach_producer(box_index, c, &ioms_.back()->producer(c));
    }
    for (int c = 0; c < params_.ki; ++c) {
      fabric_->attach_consumer(box_index, c, &ioms_.back()->consumer(c));
    }
    fabric_->attach_logic(ioms_.back().get());
    dcr_.map(socket_address(box_index), &ioms_.back()->socket());
  }

  for (int i = 0; i < params_.num_prrs; ++i) {
    const int box_index = params_.box_of_prr(i);
    auto prr = std::make_unique<Prr>(
        name_ + ".prr" + std::to_string(i), i,
        prr_rects[static_cast<std::size_t>(i)], params_, device, sim,
        prr_clock_a_mhz, prr_clock_b_mhz, &fabric_->box(box_index));
    for (int c = 0; c < params_.ki; ++c) {
      fabric_->attach_consumer(box_index, c, &prr->consumer(c));
    }
    for (int c = 0; c < params_.ko; ++c) {
      fabric_->attach_producer(box_index, c, &prr->producer(c));
    }
    dcr_.map(socket_address(box_index), &prr->socket());
    dcr_.map(prr_perf_address(i), &prr->perf_counters());
    prrs_.push_back(std::move(prr));
  }
}

Rsb::~Rsb() {
  for (int i = 0; i < params_.num_ioms; ++i) {
    dcr_.unmap(socket_address(params_.box_of_iom(i)));
  }
  for (int i = 0; i < num_prrs(); ++i) {
    dcr_.unmap(socket_address(params_.box_of_prr(i)));
    dcr_.unmap(prr_perf_address(i));
  }
}

Prr& Rsb::prr(int index) {
  VAPRES_REQUIRE(index >= 0 && index < num_prrs(),
                 name_ + ": PRR index out of range");
  return *prrs_[static_cast<std::size_t>(index)];
}

const Prr& Rsb::prr(int index) const {
  VAPRES_REQUIRE(index >= 0 && index < num_prrs(),
                 name_ + ": PRR index out of range");
  return *prrs_[static_cast<std::size_t>(index)];
}

Iom& Rsb::iom(int index) {
  VAPRES_REQUIRE(index >= 0 && index < num_ioms(),
                 name_ + ": IOM index out of range");
  return *ioms_[static_cast<std::size_t>(index)];
}

comm::DcrAddress Rsb::socket_address(int box_index) const {
  VAPRES_REQUIRE(box_index >= 0 && box_index < params_.num_attachments(),
                 name_ + ": box index out of range");
  return dcr_base_ + static_cast<comm::DcrAddress>(box_index);
}

comm::DcrAddress Rsb::prr_socket_address(int prr_index) const {
  return socket_address(params_.box_of_prr(prr_index));
}

comm::DcrAddress Rsb::iom_socket_address(int iom_index) const {
  return socket_address(params_.box_of_iom(iom_index));
}

comm::DcrAddress Rsb::prr_perf_address(int prr_index) const {
  VAPRES_REQUIRE(params_.num_attachments() <=
                     static_cast<int>(kPerfBankOffset),
                 name_ + ": socket bank would overlap the perf bank");
  return dcr_base_ + kPerfBankOffset +
         static_cast<comm::DcrAddress>(params_.box_of_prr(prr_index));
}

ChannelEndpoint Rsb::prr_producer(int prr_index, int channel) const {
  return ChannelEndpoint{params_.box_of_prr(prr_index), channel};
}
ChannelEndpoint Rsb::prr_consumer(int prr_index, int channel) const {
  return ChannelEndpoint{params_.box_of_prr(prr_index), channel};
}
ChannelEndpoint Rsb::iom_producer(int iom_index, int channel) const {
  return ChannelEndpoint{params_.box_of_iom(iom_index), channel};
}
ChannelEndpoint Rsb::iom_consumer(int iom_index, int channel) const {
  return ChannelEndpoint{params_.box_of_iom(iom_index), channel};
}

}  // namespace vapres::core
