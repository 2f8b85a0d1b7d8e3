/// \file workloads.hpp
/// \brief Entry points of the benchmark's workloads.

#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

/// The fdsd6 pool: `workload::fdsd_functions(6, kFdsdPoolSize, kFdsdSeed)`.
constexpr std::size_t kFdsdPoolSize = 240;
constexpr std::uint64_t kFdsdSeed = 2023;

/// `npn4-enum`, `npn4-first` and `fdsd6-enum`.
bool is_workload(const std::string& name);

/// Runs one workload: in-process solves through `core::exact_synthesis` /
/// `synth::stp_engine`, checked against the reference tables.
run_result run_engine_workload(const options& opt);

/// The set-up a run of `opt.workload` repeats before it measures: read the
/// reference tables, check them against the program's own collections,
/// draw the inputs, and finish the engine's lazy initialization.
void setup_only(const options& opt);

/// Writes the committed reference tables into `dir` (slow: runs the BMS
/// engine on every row).
void make_reference(const std::string& dir);

}  // namespace perfbench
