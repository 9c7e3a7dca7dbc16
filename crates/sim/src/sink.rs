//! The command-boundary observation hook: a [`CommandSink`] attached to a
//! [`DramChip`](crate::DramChip) sees every command the chip is asked to
//! execute, in issue order, together with its timestamp and outcome.
//!
//! This is the capture side of the `dram-trace` subsystem: a recorder
//! implementing [`CommandSink`] turns a live run into a replayable trace,
//! and a verifier implementing the same trait checks a live run against a
//! previously captured trace event-by-event. The chip never depends on
//! any concrete sink — when no sink is attached the hook is a single
//! `Option` check per command.
//!
//! Events are reported *after* execution so the outcome (read data,
//! protocol error) is part of the event; rejected commands are reported
//! too, because a rejected command can still advance the chip's internal
//! clock and must therefore be replayed to reproduce a run bit-for-bit.

use crate::chip::{Command, CommandError};
use crate::time::Time;
use std::any::Any;
use std::fmt;

/// The result of one chip entry-point invocation, as seen by a sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandOutcome {
    /// The command was accepted and returned no data.
    Accepted,
    /// The command was accepted and returned read data.
    Data(u64),
    /// The chip rejected the command with a protocol error.
    Rejected(CommandError),
}

impl CommandOutcome {
    /// Folds an `issue`-shaped result into an outcome.
    pub fn of_issue(result: &Result<Option<crate::chip::ReadData>, CommandError>) -> Self {
        match result {
            Ok(None) => CommandOutcome::Accepted,
            Ok(Some(d)) => CommandOutcome::Data(d.0),
            Err(e) => CommandOutcome::Rejected(*e),
        }
    }

    /// Folds a unit-or-error result into an outcome.
    pub fn of_unit<T>(result: &Result<T, CommandError>) -> Self {
        match result {
            Ok(_) => CommandOutcome::Accepted,
            Err(e) => CommandOutcome::Rejected(*e),
        }
    }
}

impl fmt::Display for CommandOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandOutcome::Accepted => write!(f, "ok"),
            CommandOutcome::Data(d) => write!(f, "0x{d:016x}"),
            CommandOutcome::Rejected(e) => write!(f, "rejected: {e}"),
        }
    }
}

/// One observable event at the chip's command boundary.
///
/// Borrowed form (marker labels are `&str`); recorders that outlive the
/// call must copy what they keep.
#[derive(Debug, Clone, Copy)]
pub enum ChipEvent<'a> {
    /// A pin-level command went through [`DramChip::issue`](crate::DramChip::issue).
    Command {
        /// The command as issued.
        cmd: Command,
        /// Its timestamp.
        at: Time,
        /// What the chip did with it.
        outcome: CommandOutcome,
    },
    /// A loop-accelerated `ACT`-`PRE` burst
    /// ([`DramChip::activate_burst`](crate::DramChip::activate_burst)).
    Burst {
        /// Bank index.
        bank: u32,
        /// Pin-level row address.
        row: u32,
        /// Activations in the burst.
        count: u64,
        /// Per-activation open time.
        each_on: Time,
        /// Burst start timestamp.
        at: Time,
        /// What the chip did with it.
        outcome: CommandOutcome,
    },
    /// A loop-accelerated full refresh window
    /// ([`DramChip::refresh_window`](crate::DramChip::refresh_window)).
    RefreshWindow {
        /// Timestamp of the window.
        at: Time,
        /// What the chip did with it.
        outcome: CommandOutcome,
    },
    /// The die temperature changed (testbed thermal plant).
    SetTemperature {
        /// New die temperature, °C.
        celsius: f64,
    },
    /// An out-of-band phase marker ([`DramChip::mark`](crate::DramChip::mark));
    /// never affects chip state, but lets traces carry experiment
    /// structure (characterization phases, program boundaries).
    Marker {
        /// The marker label.
        label: &'a str,
    },
}

/// Receives every event at a chip's command boundary, in issue order.
///
/// Implementations must not assume only successful commands arrive; see
/// the [module docs](self).
///
/// The `Any` supertrait lets an owner take its sink back by value: the
/// box [`DramChip::clear_sink`](crate::DramChip::clear_sink) returns
/// upcasts to `Box<dyn Any + Send>` and downcasts to the concrete type,
/// so a run that attached its own sink needs no shared handle (and no
/// lock per event) to read it afterwards.
pub trait CommandSink: Any {
    /// Called once per chip entry-point invocation, after execution.
    fn record(&mut self, event: ChipEvent<'_>);
}

/// Fans one event stream out to two sinks, in order: `first`, then
/// `second`. [`ChipEvent`] is `Copy`, so teeing costs two virtual calls
/// and nothing else. Nest `Tee`s for wider fan-out (e.g. a trace
/// recorder plus a metrics collector on the same run).
pub struct Tee<A, B> {
    /// Receives each event first.
    pub first: A,
    /// Receives each event second.
    pub second: B,
}

impl<A, B> Tee<A, B> {
    /// Builds a tee over two sinks.
    pub fn new(first: A, second: B) -> Self {
        Tee { first, second }
    }
}

impl<A: CommandSink, B: CommandSink> CommandSink for Tee<A, B> {
    fn record(&mut self, event: ChipEvent<'_>) {
        self.first.record(event);
        self.second.record(event);
    }
}

impl<A, B> fmt::Debug for Tee<A, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tee(..)")
    }
}

/// A boxed sink is itself a sink, so a `Tee` can hold externally
/// supplied `Box<dyn CommandSink + Send>` halves.
impl CommandSink for Box<dyn CommandSink + Send> {
    fn record(&mut self, event: ChipEvent<'_>) {
        (**self).record(event);
    }
}

/// The chip's sink slot; wraps the boxed sink so `DramChip` can keep
/// deriving nothing special and still print with `Debug`.
pub(crate) struct SinkSlot(pub(crate) Option<Box<dyn CommandSink + Send>>);

impl SinkSlot {
    pub(crate) const fn empty() -> Self {
        SinkSlot(None)
    }
}

impl fmt::Debug for SinkSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(_) => write!(f, "CommandSink(attached)"),
            None => write!(f, "CommandSink(none)"),
        }
    }
}
