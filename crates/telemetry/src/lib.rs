//! # dram-telemetry
//!
//! A zero-dependency, deterministic metrics core for the DRAMScope
//! reproduction: the measurement layer under every simulator run,
//! characterization, and fleet sweep.
//!
//! Determinism is the design constraint everything else follows from.
//! The whole stack guarantees byte-identical output for identical
//! `(profile, seed)` inputs — parallel fleet runs included — and its
//! telemetry must not be the thing that breaks that. Therefore:
//!
//! * all metric storage is ordered ([`std::collections::BTreeMap`]), so a
//!   [`Registry::to_json_lines`] snapshot is **byte-stable**: same
//!   events in, same bytes out, independent of thread scheduling;
//! * spans and phases measure **simulated** time (picosecond deltas of
//!   the chip clock) and command counts, never the host clock, unless
//!   the `host-clock` cargo feature is explicitly enabled;
//! * histograms use fixed log2 buckets (no adaptive resizing), so two
//!   registries merge bucket-by-bucket without loss;
//! * [`Registry::merge`] is the fleet aggregation primitive: counters
//!   and histograms add (commutative and associative, so merge order
//!   cannot matter), gauges take the incoming value.
//!
//! The crate is intentionally free of DRAM-specific types — it counts
//! `u64`s under labeled names. The simulator-facing adapter
//! (`dram_sim::metrics::MetricsSink`) lives with the simulator; trace
//! post-processing (`dram_trace::trace_metrics`) lives with the trace
//! codec; this crate is the shared vocabulary underneath both.
//!
//! It also holds the workspace's one JSON codec ([`json`]): the string
//! writer every snapshot, journal line and wire response quotes with,
//! and the total reader that keeps integer literals exact.
//!
//! # Example
//!
//! ```
//! use dram_telemetry::{Key, Registry};
//!
//! let mut reg = Registry::new();
//! reg.inc(Key::of("commands_total", &[("kind", "act")]), 3);
//! reg.observe(Key::name("act_to_act_ps"), 45_000);
//! assert_eq!(reg.counter(&Key::of("commands_total", &[("kind", "act")])), 3);
//! let snapshot = reg.to_json_lines();
//! assert!(snapshot.starts_with("{\"schema\":\"dramscope.telemetry\""));
//! // Byte-stable: rendering twice gives identical bytes.
//! assert_eq!(snapshot, reg.to_json_lines());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod histogram;
pub mod json;
pub mod registry;
pub mod span;

pub use histogram::{Histogram, BUCKETS};
pub use registry::{Key, Registry};
pub use span::{span_rollup, SpanSet, SpanTotals};

/// Schema identifier written on the first line of every snapshot.
pub const SCHEMA: &str = "dramscope.telemetry";

/// Snapshot schema version. Bump when the line format or the metric
/// vocabulary changes incompatibly.
pub const SCHEMA_VERSION: u32 = 1;

/// Marker-label prefix announcing a characterization phase switch
/// (`phase:structure`, `phase:remap`, …). A phase ends when the next one
/// begins; phases do not nest.
pub const PHASE_PREFIX: &str = "phase:";

/// Marker-label prefix for scoped spans (`span:<name>:enter` /
/// `span:<name>:exit`). Spans nest and may repeat; each enter/exit pair
/// accumulates into the same labeled metrics.
pub const SPAN_PREFIX: &str = "span:";

/// Suffix of a span-enter marker label.
pub const SPAN_ENTER_SUFFIX: &str = ":enter";

/// Suffix of a span-exit marker label.
pub const SPAN_EXIT_SUFFIX: &str = ":exit";

/// Builds the marker label that opens span `name`.
pub fn span_enter_label(name: &str) -> String {
    format!("{SPAN_PREFIX}{name}{SPAN_ENTER_SUFFIX}")
}

/// Builds the marker label that closes span `name`.
pub fn span_exit_label(name: &str) -> String {
    format!("{SPAN_PREFIX}{name}{SPAN_EXIT_SUFFIX}")
}

/// Parses a marker label into the telemetry event it encodes, if any.
///
/// Returns `None` for labels that carry no telemetry meaning (free-form
/// program markers still count toward `markers_total`, they just don't
/// move phases or spans).
pub fn parse_marker(label: &str) -> Option<MarkerKind<'_>> {
    if let Some(phase) = label.strip_prefix(PHASE_PREFIX) {
        return Some(MarkerKind::Phase(phase));
    }
    let body = label.strip_prefix(SPAN_PREFIX)?;
    if let Some(name) = body.strip_suffix(SPAN_ENTER_SUFFIX) {
        return Some(MarkerKind::SpanEnter(name));
    }
    if let Some(name) = body.strip_suffix(SPAN_EXIT_SUFFIX) {
        return Some(MarkerKind::SpanExit(name));
    }
    None
}

/// The telemetry meaning of a marker label (see [`parse_marker`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerKind<'a> {
    /// `phase:<name>` — switch the current phase.
    Phase(&'a str),
    /// `span:<name>:enter` — open a scoped span.
    SpanEnter(&'a str),
    /// `span:<name>:exit` — close the innermost span of that name.
    SpanExit(&'a str),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_labels_round_trip_through_parse() {
        assert_eq!(
            parse_marker("phase:structure"),
            Some(MarkerKind::Phase("structure"))
        );
        assert_eq!(
            parse_marker(&span_enter_label("hammer")),
            Some(MarkerKind::SpanEnter("hammer"))
        );
        assert_eq!(
            parse_marker(&span_exit_label("hammer")),
            Some(MarkerKind::SpanExit("hammer"))
        );
        assert_eq!(parse_marker("program:write-read"), None);
        assert_eq!(parse_marker("span:unterminated"), None);
    }
}
