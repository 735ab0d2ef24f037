// Copyright (c) 2026 GARCIA reproduction authors.
// Shared execution-context lookup for the nn layer.

#ifndef GARCIA_NN_EXEC_H_
#define GARCIA_NN_EXEC_H_

#include "core/kernels.h"

namespace garcia::nn::internal {

/// The execution context the hot ops dispatch through (serial unless the
/// caller installed one via core::ScopedExecution). Looked up at op
/// construction (forward) and inside backward closures, which run later
/// under Backward() — still inside the caller's scope. Shared by nn/ops.cc
/// and nn/loss.cc so the lookup policy cannot drift between them.
inline const core::ExecutionContext& Exec() { return core::CurrentExecution(); }

}  // namespace garcia::nn::internal

#endif  // GARCIA_NN_EXEC_H_
