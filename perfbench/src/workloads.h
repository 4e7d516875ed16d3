/**
 * @file
 * The three workloads. Each fills @p report with its end-to-end metrics
 * (untraced run) or its per-layer metrics (traced run), and throws
 * CheckFailure when an output disagrees with its reference.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "common.h"

namespace perfbench {

/** Offline quantization of a model roster (the paper's toolflow). */
void runCompile(const Args &args, Report &report);

/** Open- then closed-loop single-query serving of two packed models. */
void runServe(const Args &args, Report &report);

/** Autoregressive generation over packed KV caches. */
void runDecode(const Args &args, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
