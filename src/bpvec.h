// Umbrella header: everything a downstream user of the BPVeC library
// needs. Include this and link against bpvec_core.
//
//   #include "src/bpvec.h"
//
//   using namespace bpvec;
//   const auto run =
//       sim::Simulator(sim::bpvec_accelerator(),
//                      engine::make_memory(engine::Memory::kDdr4))
//           .run(dnn::make_resnet18(dnn::BitwidthMode::kHeterogeneous));
#pragma once

// Design-point pricing (Fig. 4) and the functional GEMM executor.
#include "src/core/design_space.h"
#include "src/core/gemm_executor.h"

// The paper's arithmetic: slicing, composition, functional CVU.
#include "src/bitslice/bit_slicing.h"
#include "src/bitslice/composition.h"
#include "src/bitslice/cvu.h"

// Hardware models.
#include "src/arch/cvu_cost.h"
#include "src/arch/dram.h"
#include "src/arch/scratchpad.h"

// Workloads and the functional verification path.
#include "src/dnn/model_zoo.h"
#include "src/dnn/quantize.h"
#include "src/dnn/reference_ops.h"
#include "src/dnn/runner.h"

// Cycle-level simulation.
#include "src/sim/cycle_sim.h"
#include "src/sim/simulator.h"

// Unified cost backends (pluggable pricing models behind one interface).
#include "src/backend/backend_registry.h"
#include "src/backend/bit_serial_backend.h"
#include "src/backend/bpvec_backend.h"
#include "src/backend/cost_backend.h"
#include "src/backend/gpu_backend.h"

// Parallel batch simulation engine.
#include "src/common/thread_pool.h"
#include "src/engine/scenario.h"
#include "src/engine/sim_engine.h"
