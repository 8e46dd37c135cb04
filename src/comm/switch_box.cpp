#include "comm/switch_box.hpp"

#include "comm/switch_fabric.hpp"
#include "sim/check.hpp"

namespace vapres::comm {

SwitchBox::SwitchBox(SwitchFabric& fabric, int index, std::string name)
    : fabric_(&fabric), index_(index), name_(std::move(name)) {}

const SwitchBoxShape& SwitchBox::shape() const { return fabric_->shape_; }

void SwitchBox::check_input(int port) const {
  VAPRES_REQUIRE(port >= 0 && port < shape().num_inputs(),
                 name_ + ": input port out of range");
}

void SwitchBox::check_output(int port) const {
  VAPRES_REQUIRE(port >= 0 && port < shape().num_outputs(),
                 name_ + ": output port out of range");
}

std::size_t SwitchBox::out(int port) const {
  check_output(port);
  return static_cast<std::size_t>(index_ * fabric_->out_ports_ + port);
}

int SwitchBox::input_right_lane(int lane) const {
  VAPRES_REQUIRE(lane >= 0 && lane < shape().kr, name_ + ": bad right lane");
  return lane;
}
int SwitchBox::input_left_lane(int lane) const {
  VAPRES_REQUIRE(lane >= 0 && lane < shape().kl, name_ + ": bad left lane");
  return shape().kr + lane;
}
int SwitchBox::input_producer(int channel) const {
  VAPRES_REQUIRE(channel >= 0 && channel < shape().ko,
                 name_ + ": bad producer channel");
  return shape().kr + shape().kl + channel;
}
int SwitchBox::output_right_lane(int lane) const {
  VAPRES_REQUIRE(lane >= 0 && lane < shape().kr, name_ + ": bad right lane");
  return lane;
}
int SwitchBox::output_left_lane(int lane) const {
  VAPRES_REQUIRE(lane >= 0 && lane < shape().kl, name_ + ": bad left lane");
  return shape().kr + lane;
}
int SwitchBox::output_consumer(int channel) const {
  VAPRES_REQUIRE(channel >= 0 && channel < shape().ki,
                 name_ + ": bad consumer channel");
  return shape().kr + shape().kl + channel;
}

const Flit* SwitchBox::output_signal(int port) const {
  return &fabric_->out_[out(port)];
}

void SwitchBox::select(int output_port, int input_port) {
  const std::size_t o = out(output_port);
  if (input_port >= 0) check_input(input_port);
  fabric_->selects_[o] = input_port;
  fabric_->invalidate_ports();
  fabric_->wake();
}

int SwitchBox::selected(int output_port) const {
  return fabric_->selects_[out(output_port)];
}

bool SwitchBox::output_stuck(int port) const {
  return fabric_->stuck_[out(port)] != 0;
}

void SwitchBox::repair_output(int port) {
  fabric_->stuck_[out(port)] = 0;
  fabric_->invalidate_ports();
  fabric_->wake();
}

int SwitchBox::stuck_output_count() const {
  int n = 0;
  for (int p = 0; p < shape().num_outputs(); ++p) n += output_stuck(p) ? 1 : 0;
  return n;
}

}  // namespace vapres::comm
