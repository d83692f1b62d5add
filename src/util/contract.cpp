#include "util/contract.hpp"

namespace difane {

void contract_failed(const char* what, std::source_location loc) {
  throw contract_violation(std::string(what) + " at " + loc.file_name() + ":" +
                           std::to_string(loc.line()));
}

}  // namespace difane
