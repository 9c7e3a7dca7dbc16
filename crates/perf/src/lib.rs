//! # dram-perf
//!
//! Wall-clock observability for the DRAMScope reproduction: how fast the
//! simulator and the fleet engine actually run on the host, measured,
//! snapshotted, and gated.
//!
//! The deterministic telemetry layer (`dram-telemetry`) deliberately
//! excludes the host clock so its snapshots stay byte-identical across
//! machines. This crate is the other half: everything here is *about*
//! host time, and none of it feeds back into simulation results. The
//! paper's methodology motivates both halves — DRAM Bender exists to
//! make command issue cheap enough to hit timing corners, so command
//! throughput is a first-class quantity worth tracking, not a nicety.
//!
//! Three pieces, all zero-dependency (the build environment is
//! offline — no criterion, no serde):
//!
//! * **Profiling** — [`Profiler`] folds the `phase:<name>` /
//!   `span:<name>:enter/exit` markers the core probes already emit into
//!   a hierarchical span tree ([`SpanTree`]) with per-node call counts,
//!   total/self wall time, simulated-time coverage, commands/sec, and
//!   simulated-ns-per-host-µs; output as text, JSON, or collapsed
//!   stacks for `flamegraph.pl`. [`ProfilerSink`] / [`SharedProfiler`]
//!   attach it to a live chip at the same [`dram_sim::CommandSink`] hook
//!   the trace recorder uses.
//! * **Benchmarking** — [`Bench`] + [`BenchConfig`] + [`run_all`]: a
//!   warmup/iteration harness over named closures, summarized by
//!   [`SampleStats`] (min/median/p95, well-defined from N = 1).
//! * **Snapshots and gating** — [`PerfSnapshot`] is the `BENCH_*.json`
//!   schema (host info + per-suite statistics, byte-stable rendering);
//!   [`gate::compare`] diffs a fresh snapshot against a baseline and
//!   fails on median regressions beyond a threshold.
//!
//! The named suites that exercise the repo's hot paths live with the
//! experiment drivers (`dramscope_bench::perf_suites`); this crate
//! stays free of DRAM-specific workloads, mirroring how
//! `dram-telemetry` stays free of DRAM-specific metric names.
//!
//! # Example
//!
//! ```
//! use dram_perf::{Bench, BenchConfig, PerfSnapshot, gate};
//!
//! let mut benches = vec![Bench::new("square_sum", || {
//!     let n: u64 = (0..1000u64).map(|i| i * i).sum();
//!     std::hint::black_box(n);
//!     1000 // "commands" processed
//! })];
//! let results = dram_perf::run_all(&mut benches, BenchConfig::smoke());
//! let snapshot = PerfSnapshot::from_results(&results);
//! // An unchanged tree always passes the gate.
//! let report = gate::compare(&snapshot, &snapshot, 20.0).unwrap();
//! assert!(!report.failed());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bench;
pub mod error;
pub mod gate;
pub mod profiler;
pub mod sink;
pub mod snapshot;
pub mod stats;

pub use bench::{run_all, run_bench, Bench, BenchConfig, BenchResult};
pub use error::PerfError;
pub use gate::{GateEntry, GateReport, GateStatus};
pub use profiler::{Profiler, SpanNode, SpanTree, ROOT_NAME};
pub use sink::{ProfilerSink, SharedProfiler};
pub use snapshot::{HostInfo, PerfSnapshot, SuiteStats, SCHEMA, SCHEMA_VERSION};
pub use stats::SampleStats;

// Kept only for the `perfbench` harness, which reads its answers
// through `dram_perf::json`; the codec lives in `dram_telemetry`.
pub use dram_telemetry::json;
