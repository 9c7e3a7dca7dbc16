//! Deriving run telemetry from a recorded trace.
//!
//! A [`Trace`] is the complete event stream a live run's sinks saw, so
//! feeding its events back through a [`MetricsSink`] reconstructs the exact
//! registry a live metrics collector would have produced — no
//! re-simulation, no chip, just a linear pass over the events. This is
//! what `characterize stats <trace>` uses, and the invariant
//! (trace-derived metrics == live metrics) is pinned by the golden-trace
//! tests.
//!
//! A bank-sharded recording is the concatenation of per-bank streams,
//! each opened by a [`SHARD_MARKER_PREFIX`] marker and each with a clock
//! that starts over. The live run gave every bank its own sink and merged
//! the registries in bank order, so the trace is folded the same way:
//! one sink per shard segment, merged in stream order (the bank order a
//! sharded recording writes). The invariant holds for sharded traces
//! too, pinned against the 4-bank fixture by `tests/sharded.rs`.

use dram_sim::{CommandSink, MetricsSink};
use dram_telemetry::Registry;

use crate::event::TraceEvent;
use crate::format::Trace;
use crate::index::SHARD_MARKER_PREFIX;

/// Folds every event of a recorded trace into a fresh metrics registry.
///
/// The result is byte-for-byte the registry the [`MetricsSink`]s attached
/// during the original run would have returned, because they consume the
/// identical event streams: a trace without shard markers goes through
/// one sink, and each `shard:bank=` segment through a sink of its own.
pub fn trace_metrics(trace: &Trace) -> Registry {
    let mut shards = Vec::new();
    let mut sink = MetricsSink::new();
    for (i, event) in trace.events.iter().enumerate() {
        let opens_shard = matches!(
            event,
            TraceEvent::Marker { label } if label.starts_with(SHARD_MARKER_PREFIX)
        );
        if opens_shard && i > 0 {
            shards.push(std::mem::take(&mut sink).into_registry());
        }
        sink.record(event.to_chip());
    }
    shards.push(sink.into_registry());
    Registry::merged(&shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{ChipProfile, Command, CommandOutcome, DramChip, Tee, Time};
    use dram_telemetry::Key;

    use crate::record::SharedRecorder;

    /// Record a short live run with a recorder *and* a metrics sink
    /// teed on the same chip; the trace-derived registry must equal the
    /// live one.
    #[test]
    fn trace_metrics_equal_live_metrics() {
        let profile = ChipProfile::test_small();
        let recorder = SharedRecorder::unbounded();
        let live = dram_sim::SharedMetrics::new();
        let mut chip = DramChip::new(profile.clone(), 7);
        chip.set_sink(Box::new(Tee::new(recorder.sink(), live.clone())));

        let mut t = Time::from_ns(100);
        chip.mark("phase:structure");
        for row in 0..4 {
            chip.issue(Command::Activate { bank: 0, row }, t).unwrap();
            t += chip.timing().trcd;
            chip.issue(Command::Read { bank: 0, col: 0 }, t).unwrap();
            t += chip.timing().tras;
            chip.issue(Command::Precharge { bank: 0 }, t).unwrap();
            t += chip.timing().trp;
        }
        // A rejected command is part of the stream too.
        let _ = chip.issue(Command::Precharge { bank: 0 }, t);

        let trace = recorder.finish(&profile, 7);
        let from_trace = trace_metrics(&trace);
        let from_live = live.take_registry();
        assert_eq!(from_trace.to_json_lines(), from_live.to_json_lines());
        assert_eq!(
            from_trace.counter(&Key::of("commands_total", &[("kind", "act")])),
            4
        );
        assert_eq!(
            from_trace.counter(&Key::of("outcomes_total", &[("outcome", "rejected")])),
            1
        );
    }

    #[test]
    fn event_round_trip_through_to_chip_is_lossless() {
        let ev = crate::event::TraceEvent::Command {
            cmd: Command::Write {
                bank: 1,
                col: 2,
                data: 0xabcd,
            },
            at: Time::from_ns(50),
            outcome: CommandOutcome::Accepted,
        };
        assert_eq!(crate::event::TraceEvent::from_chip(&ev.to_chip()), ev);
        let marker = crate::event::TraceEvent::Marker {
            label: "span:x:enter".into(),
        };
        assert_eq!(
            crate::event::TraceEvent::from_chip(&marker.to_chip()),
            marker
        );
    }
}
