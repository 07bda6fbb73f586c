// Fixture: remotable classes under src/ and the daemon that must serve
// them (tools/lint_fixtures/tools/oopp_noded.cpp).
#pragma once

#include <string>

namespace oopp::storage {
class ShippedDevice {};
class ForgottenDevice {};
class TestOnlyDevice {};
}  // namespace oopp::storage

// Registered in the fixture daemon: clean.
template <>
struct oopp::rpc::class_def<oopp::storage::ShippedDevice> {
  static std::string name() { return "fixture.ShippedDevice"; }
};

// Never registered: a daemon would answer "unknown class".
template <>
struct oopp::rpc::class_def<oopp::storage::ForgottenDevice> {  // LINT-EXPECT: unregistered-remotable-class
  static std::string name() { return "fixture.ForgottenDevice"; }
};

// Deliberately not shipped, and annotated so.
template <>
// oopp-lint: allow(unregistered-remotable-class)
struct oopp::rpc::class_def<oopp::storage::TestOnlyDevice> {
  static std::string name() { return "fixture.TestOnlyDevice"; }
};

// A partial specialization is matched on its template's name.
template <class T>
struct oopp::rpc::class_def<oopp::storage::Holder<T>> {  // LINT-EXPECT: unregistered-remotable-class
  static std::string name() { return "fixture.Holder"; }
};
