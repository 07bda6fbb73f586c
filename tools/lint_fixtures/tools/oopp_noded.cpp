// Fixture daemon for the unregistered-remotable-class rule: the classes it
// registers are the ones the fixture src/ tree may specialize class_def for.
#include "storage/bad_unregistered_class.hpp"

namespace {

void register_shipped_classes() {
  using namespace oopp;
  // A mention in a comment does not count: register_class<ForgottenDevice>
  rpc::register_class<storage::ShippedDevice>();
}

}  // namespace
