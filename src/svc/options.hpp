// Shared executor flag registration: every binary that runs sweeps through
// svc::Executor (the figure harnesses via bench::init_harness) pulls its
// flags from here, so `--store-dir` means the same thing everywhere.
#pragma once

#include "common/cli.hpp"
#include "svc/exec.hpp"

namespace gpuqos::svc {

/// The executor/store knobs as flags, parsed straight into `out`.
inline void register_exec_flags(cli::OptionSet& opts, ExecOptions& out) {
  opts.str("--store-dir", "DIR",
           "persistent result + warm-snapshot store directory (default: none)",
           &out.store_dir);
  opts.u64("--warm-cache-max", "BYTES",
           "in-memory warm snapshot cache bound in bytes (0 = unbounded)",
           &out.warm_cache_max);
  opts.u32("--threads", "N",
           "executor worker threads (0 = auto / GPUQOS_THREADS)",
           &out.threads);
}

}  // namespace gpuqos::svc
