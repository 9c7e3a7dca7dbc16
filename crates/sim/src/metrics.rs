//! Command-boundary telemetry: a [`CommandSink`] that folds a chip's
//! event stream into a `dram-telemetry` [`Registry`].
//!
//! The [`MetricsSink`] observes everything the trace recorder observes —
//! it attaches at the same [`CommandSink`] hook — which gives the stack
//! a useful invariant for free: metrics derived from a *recorded trace*
//! equal metrics collected during the *live run*, because both sinks see
//! the identical event stream. `characterize stats <trace>` relies on
//! this to render run telemetry with no re-simulation.
//!
//! Everything recorded here is a function of the (deterministic) event
//! stream: simulated timestamps, command payloads, outcomes. No host
//! clocks, no allocation-order dependence — snapshots are byte-stable.
//!
//! # Layout
//!
//! A characterization feeds the sink tens of thousands of events, so
//! [`CommandSink::record`] builds no [`Key`] or `String`: it bumps plain
//! integers. Counters per command kind and per outcome are arrays
//! indexed by [`Command`] variant and outcome; each bank has a row of six
//! command counters plus its last-`ACT` and open-row timestamps; the
//! three histograms are local [`Histogram`]s; the other counters and the
//! temperature gauge are scalars. Only `rejects_total`, whose label
//! pairs are rare, lives in a small map. [`MetricsSink::into_registry`]
//! folds all of it into the [`Registry`] once. Phase and span markers (a
//! run carries about a dozen) write the registry directly through
//! [`SpanSet`].
//!
//! Two rules make the fold render exactly what per-event registry writes
//! would:
//!
//! * **A metric exists once touched, not once non-zero.** An accepted
//!   burst of zero activations (which `activate_burst` accepts and a
//!   decoded trace can carry) still produces `commands_total{kind=act}`
//!   and `bank_commands_total` lines with value 0, so command counters
//!   keep a touched bit next to each count.
//! * **No table is sized by an unchecked bank.** A live chip rejects
//!   out-of-range banks, but `dram_trace::trace_metrics` feeds decoded
//!   banks that can be any `u32`. Banks below `DENSE_BANKS` (64) are
//!   indexed directly; larger ones go to a map.
//!
//! # Metric vocabulary (schema v1)
//!
//! | metric | kind | labels | meaning |
//! |---|---|---|---|
//! | `commands_total` | counter | `kind` = `act`/`pre`/`rd`/`wr`/`ref`/`rfm` | accepted pin-level commands; a burst adds its activation count, a refresh window adds [`REF_SLICES`] |
//! | `bank_commands_total` | counter | `bank`, `kind` | per-bank slice of the above (all-bank `REF` has no bank) |
//! | `outcomes_total` | counter | `outcome` = `accepted`/`data`/`rejected` | chip entry-point invocations by result |
//! | `rejects_total` | counter | `kind`, `error` | rejected invocations by command kind and [`CommandError::kind`](crate::CommandError::kind) |
//! | `read_data_bytes_total` | counter | — | 8 bytes per `RD` burst that returned data |
//! | `bursts_total` | counter | — | accepted loop-accelerated ACT-PRE bursts |
//! | `burst_activations` | histogram | — | activations per accepted burst |
//! | `refresh_windows_total` | counter | — | accepted full refresh windows |
//! | `act_to_act_ps` | histogram | — | same-bank explicit-`ACT` spacing, ps |
//! | `row_open_ps` | histogram | — | explicit `ACT`→`PRE` row-open time, ps |
//! | `clock_anomalies_total` | counter | `interval` = `act_to_act`/`row_open` | accepted-event timestamps that ran backwards; the interval is dropped, not clamped |
//! | `markers_total` | counter | — | all marker events, telemetry-bearing or not |
//! | `die_temperature_mc` | gauge | — | last die temperature, milli-°C |
//! | `phase_*`, `span_*` | counter | `phase` / `span` | see [`dram_telemetry::SpanSet`] |

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dram_telemetry::{parse_marker, Histogram, Key, MarkerKind, Registry, SpanSet};

use crate::chip::{Command, REF_SLICES};
use crate::sink::{ChipEvent, CommandOutcome, CommandSink};

/// Command kinds in [`Command`] variant order, as [`Command::mnemonic`]
/// names them: the `kind` label of every per-kind counter.
const KINDS: [&str; 6] = ["act", "pre", "rd", "wr", "ref", "rfm"];
const ACT: usize = 0;
const REF: usize = 4;

/// `outcomes_total` labels, indexed like [`outcome_index`].
const OUTCOMES: [&str; 3] = ["accepted", "data", "rejected"];

/// Banks below this index live in the dense per-bank table; the rest
/// (only an unchecked, decoded trace carries them) in a map.
const DENSE_BANKS: u32 = 64;

/// The [`KINDS`] index of a command.
fn kind_index(cmd: &Command) -> usize {
    match cmd {
        Command::Activate { .. } => 0,
        Command::Precharge { .. } => 1,
        Command::Read { .. } => 2,
        Command::Write { .. } => 3,
        Command::Refresh => 4,
        Command::Rfm { .. } => 5,
    }
}

/// The [`OUTCOMES`] index of an outcome.
fn outcome_index(outcome: CommandOutcome) -> usize {
    match outcome {
        CommandOutcome::Accepted => 0,
        CommandOutcome::Data(_) => 1,
        CommandOutcome::Rejected(_) => 2,
    }
}

/// Command counters by kind, each with a touched bit: a counter that
/// was added to, even by zero, exists in the registry.
#[derive(Debug, Clone, Copy, Default)]
struct KindCounts {
    counts: [u64; 6],
    touched: u8,
}

impl KindCounts {
    fn add(&mut self, kind: usize, count: u64) {
        self.counts[kind] += count;
        self.touched |= 1 << kind;
    }

    /// Folds the touched counters into `reg` as `name{<labels>,kind=..}`.
    fn fold(&self, reg: &mut Registry, name: &str, labels: &[(&str, &str)]) {
        for (kind, &label) in KINDS.iter().enumerate() {
            if self.touched & (1 << kind) != 0 {
                let mut pairs = labels.to_vec();
                pairs.push(("kind", label));
                reg.inc(Key::of(name, &pairs), self.counts[kind]);
            }
        }
    }
}

/// One bank: its command counters and explicit-`ACT` interval clocks.
#[derive(Debug, Clone, Copy, Default)]
struct BankRow {
    commands: KindCounts,
    /// Last accepted explicit-`ACT` timestamp, ps.
    last_act_ps: Option<u64>,
    /// Accepted explicit-`ACT` timestamp of the open row, ps (cleared by
    /// the matching `PRE`).
    open_since_ps: Option<u64>,
}

/// A timed interval: its histogram plus the count of closing
/// timestamps that ran backwards.
#[derive(Debug, Clone, Default)]
struct Interval {
    hist: Histogram,
    anomalies: u64,
}

impl Interval {
    /// Closes an interval that began at `start_ps`. A timestamp that ran
    /// backwards drops the interval and counts an anomaly: a live chip
    /// rejects reversed commands with `TimeReversed` before any sink sees
    /// them, so only a synthetic or corrupted stream gets here, and a
    /// clamped zero in the histogram would hide it.
    fn close(&mut self, start_ps: u64, end_ps: u64) {
        match end_ps.checked_sub(start_ps) {
            Some(gap) => self.hist.record(gap),
            None => self.anomalies += 1,
        }
    }

    fn fold(&self, reg: &mut Registry, name: &str, interval: &str) {
        if self.hist.count() > 0 {
            reg.merge_histogram(Key::name(name), &self.hist);
        }
        if self.anomalies > 0 {
            reg.inc(
                Key::of("clock_anomalies_total", &[("interval", interval)]),
                self.anomalies,
            );
        }
    }
}

/// A [`CommandSink`] that accumulates the schema-v1 metric vocabulary
/// from a chip's event stream.
#[derive(Debug, Default)]
pub struct MetricsSink {
    /// Phase and span metrics, written as markers close them; everything
    /// below joins them in [`MetricsSink::into_registry`].
    reg: Registry,
    spans: SpanSet,
    commands_total: KindCounts,
    outcomes: [u64; 3],
    /// Banks below `DENSE_BANKS`, indexed by bank, grown on first use.
    banks: Vec<BankRow>,
    /// Banks from `DENSE_BANKS` up.
    far_banks: BTreeMap<u32, BankRow>,
    /// `(kind, error)` label pairs of rejected invocations.
    rejects: BTreeMap<(&'static str, &'static str), u64>,
    read_data_bytes: u64,
    bursts: u64,
    burst_activations: Histogram,
    refresh_windows: u64,
    act_to_act: Interval,
    row_open: Interval,
    markers: u64,
    die_temperature_mc: Option<i64>,
    /// Accepted pin-level commands so far (the span "command" unit).
    commands: u64,
    /// Latest simulated timestamp seen, ps (markers carry no timestamp;
    /// they are attributed to this clock).
    now_ps: u64,
}

impl MetricsSink {
    /// Creates an empty sink.
    pub fn new() -> MetricsSink {
        MetricsSink::default()
    }

    /// Closes any open phase/spans and returns the finished registry.
    pub fn into_registry(mut self) -> Registry {
        self.spans.finish(self.now_ps, self.commands, &mut self.reg);
        let mut reg = self.reg;
        self.commands_total.fold(&mut reg, "commands_total", &[]);
        let dense = (0..).zip(&self.banks);
        for (bank, row) in dense.chain(self.far_banks.iter().map(|(&b, r)| (b, r))) {
            let bank = bank.to_string();
            row.commands
                .fold(&mut reg, "bank_commands_total", &[("bank", &bank)]);
        }
        for (&outcome, &count) in OUTCOMES.iter().zip(&self.outcomes) {
            if count > 0 {
                reg.inc(Key::of("outcomes_total", &[("outcome", outcome)]), count);
            }
        }
        for (&(kind, error), &count) in &self.rejects {
            reg.inc(
                Key::of("rejects_total", &[("kind", kind), ("error", error)]),
                count,
            );
        }
        for (name, count) in [
            ("read_data_bytes_total", self.read_data_bytes),
            ("bursts_total", self.bursts),
            ("refresh_windows_total", self.refresh_windows),
            ("markers_total", self.markers),
        ] {
            if count > 0 {
                reg.inc(Key::name(name), count);
            }
        }
        if self.burst_activations.count() > 0 {
            reg.merge_histogram(Key::name("burst_activations"), &self.burst_activations);
        }
        self.act_to_act
            .fold(&mut reg, "act_to_act_ps", "act_to_act");
        self.row_open.fold(&mut reg, "row_open_ps", "row_open");
        if let Some(mc) = self.die_temperature_mc {
            reg.set_gauge(Key::name("die_temperature_mc"), mc);
        }
        reg
    }

    /// The row of `bank`; never sizes the dense table past
    /// `DENSE_BANKS`.
    fn bank_row(&mut self, bank: u32) -> &mut BankRow {
        if bank < DENSE_BANKS {
            let i = bank as usize;
            if i >= self.banks.len() {
                self.banks.resize(i + 1, BankRow::default());
            }
            &mut self.banks[i]
        } else {
            self.far_banks.entry(bank).or_default()
        }
    }

    /// Counts one chip entry-point invocation at `at_ps`; true when it
    /// was accepted. Rejected invocations still advance the clock.
    fn outcome(&mut self, kind: &'static str, outcome: CommandOutcome, at_ps: u64) -> bool {
        self.now_ps = self.now_ps.max(at_ps);
        self.outcomes[outcome_index(outcome)] += 1;
        if let CommandOutcome::Rejected(err) = outcome {
            *self.rejects.entry((kind, err.kind())).or_insert(0) += 1;
            return false;
        }
        true
    }

    /// Counts `count` accepted commands of `kind`, on `bank` when the
    /// command is bank-scoped.
    fn count(&mut self, kind: usize, bank: Option<u32>, count: u64) {
        self.commands += count;
        self.commands_total.add(kind, count);
        if let Some(bank) = bank {
            self.bank_row(bank).commands.add(kind, count);
        }
    }

    fn record_command(&mut self, cmd: Command, at_ps: u64, outcome: CommandOutcome) {
        if !self.outcome(cmd.mnemonic(), outcome, at_ps) {
            return;
        }
        self.count(kind_index(&cmd), cmd.bank(), 1);
        match cmd {
            Command::Activate { bank, .. } => {
                let row = self.bank_row(bank);
                row.open_since_ps = Some(at_ps);
                if let Some(prev) = row.last_act_ps.replace(at_ps) {
                    self.act_to_act.close(prev, at_ps);
                }
            }
            Command::Precharge { bank } => {
                if let Some(opened) = self.bank_row(bank).open_since_ps.take() {
                    self.row_open.close(opened, at_ps);
                }
            }
            Command::Read { .. } => {
                if let CommandOutcome::Data(_) = outcome {
                    self.read_data_bytes += 8;
                }
            }
            _ => {}
        }
    }

    fn record_marker(&mut self, label: &str) {
        self.markers += 1;
        match parse_marker(label) {
            Some(MarkerKind::Phase(name)) => {
                self.spans
                    .phase_enter(name, self.now_ps, self.commands, &mut self.reg)
            }
            Some(MarkerKind::SpanEnter(name)) => {
                self.spans.span_enter(name, self.now_ps, self.commands)
            }
            Some(MarkerKind::SpanExit(name)) => {
                self.spans
                    .span_exit(name, self.now_ps, self.commands, &mut self.reg)
            }
            None => {}
        }
    }
}

impl CommandSink for MetricsSink {
    fn record(&mut self, event: ChipEvent<'_>) {
        match event {
            ChipEvent::Command { cmd, at, outcome } => {
                self.record_command(cmd, at.as_ps(), outcome)
            }
            ChipEvent::Burst {
                bank,
                count,
                at,
                outcome,
                ..
            } => {
                if self.outcome("burst", outcome, at.as_ps()) {
                    // Mirrors `ChipStats`: a burst counts as `count`
                    // activations. Burst-internal ACT/PRE pairs are
                    // self-contained, so they do not perturb the explicit
                    // act-to-act / row-open interval tracking.
                    self.count(ACT, Some(bank), count);
                    self.bursts += 1;
                    self.burst_activations.record(count);
                }
            }
            ChipEvent::RefreshWindow { at, outcome } => {
                if self.outcome("refresh_window", outcome, at.as_ps()) {
                    self.count(REF, None, REF_SLICES);
                    self.refresh_windows += 1;
                }
            }
            ChipEvent::SetTemperature { celsius } => {
                self.die_temperature_mc = Some((celsius * 1000.0) as i64);
            }
            ChipEvent::Marker { label } => self.record_marker(label),
        }
    }
}

/// A shareable handle over a [`MetricsSink`], for callers that hand a
/// chip one clone as its boxed sink and harvest the registry through
/// another. Each event takes the (uncontended) mutex, so a run that can
/// own its sink attaches a [`MetricsSink`] by value and takes it back
/// from [`DramChip::clear_sink`](crate::DramChip::clear_sink) instead.
#[derive(Debug, Clone, Default)]
pub struct SharedMetrics(Arc<Mutex<MetricsSink>>);

impl SharedMetrics {
    /// Creates a handle over a fresh sink.
    pub fn new() -> SharedMetrics {
        SharedMetrics::default()
    }

    /// Closes open phases/spans and returns the finished registry,
    /// resetting the shared sink to empty.
    pub fn take_registry(&self) -> Registry {
        let mut sink = self.0.lock().expect("metrics mutex poisoned");
        std::mem::take(&mut *sink).into_registry()
    }
}

impl CommandSink for SharedMetrics {
    fn record(&mut self, event: ChipEvent<'_>) {
        self.0.lock().expect("metrics mutex poisoned").record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::CommandError;
    use crate::time::Time;

    fn cmd(cmd: Command, at_ns: u64, outcome: CommandOutcome) -> ChipEvent<'static> {
        ChipEvent::Command {
            cmd,
            at: Time::from_ns(at_ns),
            outcome,
        }
    }

    #[test]
    fn command_mix_bank_counters_and_row_cycles() {
        let mut sink = MetricsSink::new();
        sink.record(cmd(
            Command::Activate { bank: 0, row: 5 },
            100,
            CommandOutcome::Accepted,
        ));
        sink.record(cmd(
            Command::Read { bank: 0, col: 0 },
            130,
            CommandOutcome::Data(0xdead),
        ));
        sink.record(cmd(
            Command::Precharge { bank: 0 },
            150,
            CommandOutcome::Accepted,
        ));
        sink.record(cmd(
            Command::Activate { bank: 0, row: 6 },
            200,
            CommandOutcome::Accepted,
        ));
        let reg = sink.into_registry();

        assert_eq!(
            reg.counter(&Key::of("commands_total", &[("kind", "act")])),
            2
        );
        assert_eq!(
            reg.counter(&Key::of(
                "bank_commands_total",
                &[("bank", "0"), ("kind", "rd")]
            )),
            1
        );
        assert_eq!(reg.counter(&Key::name("read_data_bytes_total")), 8);
        // ACT@100ns → PRE@150ns: one 50 000 ps row-open interval.
        let open = reg.histogram(&Key::name("row_open_ps")).unwrap();
        assert_eq!((open.count(), open.sum()), (1, 50_000));
        // ACT@100ns → ACT@200ns same bank: one 100 000 ps spacing.
        let a2a = reg.histogram(&Key::name("act_to_act_ps")).unwrap();
        assert_eq!((a2a.count(), a2a.sum()), (1, 100_000));
        assert_eq!(
            reg.counter(&Key::of("outcomes_total", &[("outcome", "data")])),
            1
        );
    }

    #[test]
    fn rejects_bucket_by_kind_and_error_and_do_not_count_as_commands() {
        let mut sink = MetricsSink::new();
        sink.record(cmd(
            Command::Read { bank: 0, col: 0 },
            50,
            CommandOutcome::Rejected(CommandError::NoOpenRow),
        ));
        let reg = sink.into_registry();
        assert_eq!(
            reg.counter(&Key::of(
                "rejects_total",
                &[("kind", "rd"), ("error", "no_open_row")]
            )),
            1
        );
        assert_eq!(reg.sum_counters("commands_total"), 0);
        assert_eq!(
            reg.counter(&Key::of("outcomes_total", &[("outcome", "rejected")])),
            1
        );
    }

    #[test]
    fn bursts_and_refresh_windows_scale_like_chip_stats() {
        let mut sink = MetricsSink::new();
        sink.record(ChipEvent::Burst {
            bank: 2,
            row: 9,
            count: 4000,
            each_on: Time::from_ns(30),
            at: Time::from_ns(1_000),
            outcome: CommandOutcome::Accepted,
        });
        sink.record(ChipEvent::RefreshWindow {
            at: Time::from_ms(64),
            outcome: CommandOutcome::Accepted,
        });
        let reg = sink.into_registry();
        assert_eq!(
            reg.counter(&Key::of("commands_total", &[("kind", "act")])),
            4000
        );
        assert_eq!(
            reg.counter(&Key::of("commands_total", &[("kind", "ref")])),
            REF_SLICES
        );
        assert_eq!(reg.counter(&Key::name("bursts_total")), 1);
        assert_eq!(reg.counter(&Key::name("refresh_windows_total")), 1);
        assert_eq!(
            reg.histogram(&Key::name("burst_activations"))
                .unwrap()
                .max(),
            Some(4000)
        );
    }

    #[test]
    fn markers_drive_phases_and_spans_on_the_sim_clock() {
        let mut sink = MetricsSink::new();
        sink.record(ChipEvent::Marker {
            label: "phase:structure",
        });
        sink.record(cmd(
            Command::Activate { bank: 0, row: 0 },
            1_000,
            CommandOutcome::Accepted,
        ));
        sink.record(ChipEvent::Marker {
            label: "span:probe:enter",
        });
        sink.record(cmd(
            Command::Precharge { bank: 0 },
            3_000,
            CommandOutcome::Accepted,
        ));
        sink.record(ChipEvent::Marker {
            label: "span:probe:exit",
        });
        sink.record(ChipEvent::Marker {
            label: "free-form note",
        });
        let reg = sink.into_registry();
        assert_eq!(reg.counter(&Key::name("markers_total")), 4);
        assert_eq!(
            reg.counter(&Key::of("span_commands_total", &[("span", "probe")])),
            1
        );
        assert_eq!(
            reg.counter(&Key::of("span_sim_ps_total", &[("span", "probe")])),
            2_000_000
        );
        assert_eq!(
            reg.counter(&Key::of("phase_commands_total", &[("phase", "structure")])),
            2
        );
    }

    #[test]
    fn reversed_timestamps_are_counted_not_clamped() {
        // A live chip rejects reversed commands, so this stream can only
        // come from synthetic or corrupted input — the sink must not
        // fold a clamped zero into the histograms.
        let mut sink = MetricsSink::new();
        sink.record(cmd(
            Command::Activate { bank: 0, row: 5 },
            200,
            CommandOutcome::Accepted,
        ));
        sink.record(cmd(
            Command::Precharge { bank: 0 },
            100,
            CommandOutcome::Accepted,
        ));
        sink.record(cmd(
            Command::Activate { bank: 0, row: 6 },
            150,
            CommandOutcome::Accepted,
        ));
        let reg = sink.into_registry();
        assert!(reg.histogram(&Key::name("row_open_ps")).is_none());
        assert!(reg.histogram(&Key::name("act_to_act_ps")).is_none());
        assert_eq!(
            reg.counter(&Key::of(
                "clock_anomalies_total",
                &[("interval", "row_open")]
            )),
            1
        );
        assert_eq!(
            reg.counter(&Key::of(
                "clock_anomalies_total",
                &[("interval", "act_to_act")]
            )),
            1
        );
    }

    #[test]
    fn kind_labels_follow_the_mnemonics() {
        for cmd in [
            Command::Activate { bank: 0, row: 0 },
            Command::Precharge { bank: 0 },
            Command::Read { bank: 0, col: 0 },
            Command::Write {
                bank: 0,
                col: 0,
                data: 0,
            },
            Command::Refresh,
            Command::Rfm { bank: 0 },
        ] {
            assert_eq!(KINDS[kind_index(&cmd)], cmd.mnemonic());
        }
    }

    /// The full snapshot text of a fresh sink fed `events`.
    fn snapshot(events: &[ChipEvent<'_>]) -> String {
        let mut sink = MetricsSink::new();
        for &event in events {
            sink.record(event);
        }
        sink.into_registry().to_json_lines()
    }

    const HEADER: &str = r#"{"schema":"dramscope.telemetry","version":1,"#;

    #[test]
    fn zero_count_burst_leaves_zero_valued_command_counters() {
        let burst = ChipEvent::Burst {
            bank: 1,
            row: 3,
            count: 0,
            each_on: Time::from_ns(30),
            at: Time::from_ns(1_000),
            outcome: CommandOutcome::Accepted,
        };
        let expected = [
            HEADER,
            r#""counters":4,"gauges":0,"histograms":1}
{"type":"counter","name":"bank_commands_total","labels":{"bank":"1","kind":"act"},"value":0}
{"type":"counter","name":"bursts_total","labels":{},"value":1}
{"type":"counter","name":"commands_total","labels":{"kind":"act"},"value":0}
{"type":"counter","name":"outcomes_total","labels":{"outcome":"accepted"},"value":1}
{"type":"histogram","name":"burst_activations","labels":{},"count":1,"sum":0,"min":0,"max":0,"p50":0,"p95":0,"p99":0,"buckets":[[0,1]]}
"#,
        ]
        .concat();
        assert_eq!(snapshot(&[burst]), expected);
    }

    #[test]
    fn bank_labels_sort_as_text() {
        let events = [
            cmd(
                Command::Activate { bank: 2, row: 1 },
                100,
                CommandOutcome::Accepted,
            ),
            cmd(
                Command::Activate { bank: 10, row: 1 },
                110,
                CommandOutcome::Accepted,
            ),
            cmd(
                Command::Precharge { bank: 2 },
                200,
                CommandOutcome::Accepted,
            ),
            cmd(
                Command::Precharge { bank: 10 },
                210,
                CommandOutcome::Accepted,
            ),
        ];
        let expected = [
            HEADER,
            r#""counters":7,"gauges":0,"histograms":1}
{"type":"counter","name":"bank_commands_total","labels":{"bank":"10","kind":"act"},"value":1}
{"type":"counter","name":"bank_commands_total","labels":{"bank":"10","kind":"pre"},"value":1}
{"type":"counter","name":"bank_commands_total","labels":{"bank":"2","kind":"act"},"value":1}
{"type":"counter","name":"bank_commands_total","labels":{"bank":"2","kind":"pre"},"value":1}
{"type":"counter","name":"commands_total","labels":{"kind":"act"},"value":2}
{"type":"counter","name":"commands_total","labels":{"kind":"pre"},"value":2}
{"type":"counter","name":"outcomes_total","labels":{"outcome":"accepted"},"value":4}
{"type":"histogram","name":"row_open_ps","labels":{},"count":2,"sum":200000,"min":100000,"max":100000,"p50":100000,"p95":100000,"p99":100000,"buckets":[[17,2]]}
"#,
        ]
        .concat();
        assert_eq!(snapshot(&events), expected);
    }

    #[test]
    fn the_largest_bank_number_is_counted_and_timed() {
        // Decoded traces carry unchecked banks; this one must neither be
        // dropped nor size anything by its number.
        let bank = u32::MAX;
        let events = [
            cmd(
                Command::Activate { bank, row: 0 },
                100,
                CommandOutcome::Accepted,
            ),
            cmd(Command::Precharge { bank }, 150, CommandOutcome::Accepted),
            cmd(
                Command::Activate { bank, row: 1 },
                300,
                CommandOutcome::Accepted,
            ),
        ];
        let expected = [
            HEADER,
            r#""counters":5,"gauges":0,"histograms":2}
{"type":"counter","name":"bank_commands_total","labels":{"bank":"4294967295","kind":"act"},"value":2}
{"type":"counter","name":"bank_commands_total","labels":{"bank":"4294967295","kind":"pre"},"value":1}
{"type":"counter","name":"commands_total","labels":{"kind":"act"},"value":2}
{"type":"counter","name":"commands_total","labels":{"kind":"pre"},"value":1}
{"type":"counter","name":"outcomes_total","labels":{"outcome":"accepted"},"value":3}
{"type":"histogram","name":"act_to_act_ps","labels":{},"count":1,"sum":200000,"min":200000,"max":200000,"p50":200000,"p95":200000,"p99":200000,"buckets":[[18,1]]}
{"type":"histogram","name":"row_open_ps","labels":{},"count":1,"sum":50000,"min":50000,"max":50000,"p50":50000,"p95":50000,"p99":50000,"buckets":[[16,1]]}
"#,
        ]
        .concat();
        assert_eq!(snapshot(&events), expected);
    }

    #[test]
    fn rejected_bursts_and_refresh_windows_count_only_as_rejects() {
        let events = [
            ChipEvent::Burst {
                bank: 9,
                row: 0,
                count: 500,
                each_on: Time::from_ns(30),
                at: Time::from_ns(100),
                outcome: CommandOutcome::Rejected(CommandError::BankOutOfRange {
                    bank: 9,
                    banks: 2,
                }),
            },
            ChipEvent::RefreshWindow {
                at: Time::from_ns(200),
                outcome: CommandOutcome::Rejected(CommandError::RefreshWhileOpen),
            },
        ];
        let expected = [
            HEADER,
            r#""counters":3,"gauges":0,"histograms":0}
{"type":"counter","name":"outcomes_total","labels":{"outcome":"rejected"},"value":2}
{"type":"counter","name":"rejects_total","labels":{"error":"bank_out_of_range","kind":"burst"},"value":1}
{"type":"counter","name":"rejects_total","labels":{"error":"refresh_while_open","kind":"refresh_window"},"value":1}
"#,
        ]
        .concat();
        assert_eq!(snapshot(&events), expected);
    }

    #[test]
    fn temperature_gauge_keeps_the_last_value_and_is_absent_unset() {
        let events = [
            ChipEvent::SetTemperature { celsius: 45.0 },
            ChipEvent::SetTemperature { celsius: 85.5 },
        ];
        let expected = [
            HEADER,
            r#""counters":0,"gauges":1,"histograms":0}
{"type":"gauge","name":"die_temperature_mc","labels":{},"value":85500}
"#,
        ]
        .concat();
        assert_eq!(snapshot(&events), expected);

        let refresh = cmd(Command::Refresh, 500, CommandOutcome::Accepted);
        let expected = [
            HEADER,
            r#""counters":2,"gauges":0,"histograms":0}
{"type":"counter","name":"commands_total","labels":{"kind":"ref"},"value":1}
{"type":"counter","name":"outcomes_total","labels":{"outcome":"accepted"},"value":1}
"#,
        ]
        .concat();
        assert_eq!(snapshot(&[refresh]), expected);
    }

    #[test]
    fn shared_metrics_harvests_after_the_chip_is_done() {
        let shared = SharedMetrics::new();
        let mut chip_half = shared.clone();
        chip_half.record(cmd(Command::Refresh, 500, CommandOutcome::Accepted));
        let reg = shared.take_registry();
        assert_eq!(
            reg.counter(&Key::of("commands_total", &[("kind", "ref")])),
            1
        );
        // The shared sink resets after harvest.
        assert!(shared.take_registry().is_empty());
    }
}
