// bpvec_run — price scenario manifests from the command line.
// Subcommands: (default) grid mode, `search` for the dse block, `list`
// for the canonical token vocabularies. `--network-file` registers
// custom workload-schema networks for the invocation.
// All logic lives in src/serve/driver.cpp so tests can drive it in-process.
#include <iostream>

#include "src/serve/driver.h"

int main(int argc, char** argv) {
  return bpvec::serve::main_cli(argc, argv, std::cout, std::cerr);
}
