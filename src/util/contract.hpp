// Lightweight precondition / postcondition helpers in the spirit of the
// Core Guidelines' Expects()/Ensures(). Violations throw std::logic_error so
// tests can assert on misuse without aborting the whole process.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace difane {

class contract_violation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

// Throws the contract_violation for a failed check: `what` plus the
// file:line of the check. Out of line and cold, so a check inlines to one
// compare-and-branch and its message is built only when it fails.
[[noreturn, gnu::cold]] void contract_failed(const char* what,
                                             std::source_location loc);

// Precondition: the caller must satisfy `cond` before invoking the operation.
inline void expects(bool cond, const char* what = "precondition violated",
                    std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] contract_failed(what, loc);
}

// Postcondition: the implementation guarantees `cond` on exit.
inline void ensures(bool cond, const char* what = "postcondition violated",
                    std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] contract_failed(what, loc);
}

// A rejected configuration: some parameter struct (ScenarioParams and
// friends) was mis-wired. Carries the offending field name so callers and
// tests can assert on *which* knob was wrong, not just that something was.
// Derives from contract_violation: a bad config is a precondition violation,
// and existing EXPECT_THROW(..., contract_violation) sites keep passing.
class ConfigError : public contract_violation {
 public:
  ConfigError(std::string field, const std::string& message)
      : contract_violation("ConfigError[" + field + "]: " + message),
        field_(std::move(field)) {}
  const std::string& field() const { return field_; }

 private:
  std::string field_;
};

}  // namespace difane
