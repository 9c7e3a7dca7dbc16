//! Full black-box characterization: prints the dossier the toolkit
//! assembles from RowCopy, retention, AIB, power, TRR, and ECC probing.
//! Run with `--release`:
//!
//! ```text
//! cargo run --release -p dramscope-bench --bin characterize [profile]
//! cargo run --release -p dramscope-bench --bin characterize fleet [--serial] [--sharded] [--workers N]
//! cargo run --release -p dramscope-bench --bin characterize sharded [profile] [--shards N] [--serial] [--seed N]
//! cargo run --release -p dramscope-bench --bin characterize record <profile> [--seed N] [--out FILE] [--v1] [--sharded [--shards N]]
//! cargo run --release -p dramscope-bench --bin characterize replay <FILE> [--bench N]
//! cargo run --release -p dramscope-bench --bin characterize diff <A> <B> [--segment SPEC] [--bank N]
//! cargo run --release -p dramscope-bench --bin characterize dump <FILE> [--segment SPEC] [--bank N]
//! cargo run --release -p dramscope-bench --bin characterize stats <FILE> [--json|--csv] [--segment SPEC] [--bank N]
//! cargo run --release -p dramscope-bench --bin characterize index <FILE> [--out FILE]
//! cargo run --release -p dramscope-bench --bin characterize query <FILE|DIR> [--bank LIST] \
//!     [--cmd LIST] [--marker PREFIX] [--from-ps N] [--to-ps N] \
//!     [--min-count N] [--max-count N] [--json|--csv]
//! cargo run --release -p dramscope-bench --bin characterize bench [--save FILE] \
//!     [--baseline FILE] [--gate PCT] [--warmup N] [--iters N] [--only a,b] \
//!     [--profile] [--flame FILE] [--profile-json FILE]
//! cargo run --release -p dramscope-bench --bin characterize serve [--workers N] [--socket PATH] [--journal FILE] [--trace-dir PATH] [--cache-dir PATH] [--cache-max-entries N] [--cache-max-bytes N] [--serial]
//! cargo run --release -p dramscope-bench --bin characterize events <journal> [--sev LEVEL] \
//!     [--job ID] [--kind PREFIX] [--since-seq N] [--until-seq N] [--tail N] [--stable] [--quiet]
//! ```
//!
//! Exit codes are uniform across subcommands: usage errors (bad flags,
//! unknown names, missing operands) exit 2, runtime failures exit 1.
//!
//! `serve` runs the `dramscoped` characterization daemon in-process:
//! JSON-lines requests over stdin/stdout (or a unix socket), in-flight
//! dedup, and the content-addressed dossier cache — see the
//! `dramscope-service` crate.
//!
//! Every run/record/replay/fleet invocation also accepts the telemetry
//! flags `--metrics FILE` (write the JSON-lines metrics snapshot of the
//! run to `FILE`) and `--quiet` (suppress the dossier body, run report,
//! and telemetry footer, leaving only the one-line confirmations).
//!
//! The long-running modes (profile runs, `fleet`, `sharded`, `serve`)
//! additionally accept `--journal FILE`: job lifecycle events
//! (`job.queued` / `job.started` / `job.finished` / `job.panicked`),
//! simulator clock anomalies, and — under `serve` — the daemon's
//! connection, request, and cache events append to a rotating JSON-lines
//! journal (`dram-obs`). The `events` subcommand reads such a journal
//! back: it prints matching event lines (filtered by `--sev`, `--job`,
//! `--kind` prefix, or a `--since-seq`/`--until-seq` sequence window,
//! trimmed to the last `--tail N`; `--stable` renders without wall-clock
//! keys, `--quiet` keeps only the summary), salvages around corrupt
//! lines, and reconstructs the per-job lifecycle — every job's queued /
//! started / finished / panicked counts, and whether they match.
//! `stats` derives the same metrics from a trace file alone — no
//! re-simulation — and renders them as a table (`--csv` for CSV,
//! `--json` for the raw snapshot that `--metrics` writes).
//!
//! `profile` is a preset name like `mfr_a_x4_2016` (default),
//! `mfr_b_x4_2019`, `mfr_c_x8_2016`, or `hbm2`. The special name
//! `fleet` characterizes the whole Table I population in parallel and
//! prints the per-device summary table followed by the JSON-lines run
//! report; `--serial` runs the same jobs one at a time on one worker
//! (the determinism / speedup baseline), `--workers N` pins the worker
//! count, and `--sharded` switches to the two-level scheduler: every
//! `(profile, bank)` pair becomes one task on the shared pool (one
//! worker under `--serial`).
//!
//! `sharded` characterizes every bank of ONE device concurrently, one
//! shard per bank, and prints the per-bank table, the run summary, and
//! the merged sharded-dossier digest. `--shards N` pins the worker
//! count (0 = machine parallelism, capped at the bank count) and
//! `--serial` runs the byte-identical one-bank-at-a-time reference —
//! the digest printed by both must match for any shard count.
//!
//! The trace subcommands drive the golden-trace subsystem (`dram-trace`):
//! `record` characterizes while capturing every command of the primary
//! testbed into a binary trace (`--sharded` records the bank-sharded
//! flow instead — one segment per bank, concatenated in bank order);
//! `replay` re-runs the characterization
//! from the trace alone (sharded traces are detected by their
//! `shard_banks` meta and replayed bank by bank), verifying the command
//! stream and the dossier
//! digest reproduce bit-for-bit (with `--bench N` it additionally replays
//! the raw command stream `N` times on bare chips and reports
//! commands/second); `diff` compares two traces structurally; `dump`
//! renders a trace as text. The small CI profiles `test_small`,
//! `test_small_interleaved`, and `test_small_coupled` are accepted by
//! `record` alongside the Table I presets.
//!
//! `record` writes the v2 indexed container by default: the v1 byte
//! stream unchanged, plus a segment index footer keyed by the
//! `phase:`/`span:`/`shard:bank=` markers (pass `--v1` for the bare v1
//! stream). `index <FILE>` upgrades an existing trace to
//! `<name>.v2.trace` and prints its segment table. Every trace-reading
//! subcommand accepts either version. `stats`, `dump`, and `diff` take
//! `--segment SPEC` (a segment number, or a label prefix like
//! `phase:hammer`) and `--bank N` to restrict themselves to matching
//! segments — on an indexed trace only those segments are decoded; on a
//! v1 trace the same segments are synthesized in memory from the marker
//! stream, so the output is identical, just without the seek savings.
//! `query` evaluates a predicate (time range in picoseconds, bank list,
//! command mnemonics, marker prefix, min/max matched count) over one
//! trace or every `*.trace` in a directory, pruning non-matching
//! segments by their index metadata before decoding; it exits 1 when
//! nothing matches, so shell scripts can branch on it.
//!
//! `bench` runs the named performance suites
//! (`dramscope_bench::perf_suites`) through the `dram-perf` harness:
//! `--save FILE` writes a `BENCH_*.json` snapshot, `--baseline FILE`
//! gates the run against a previous snapshot (`--gate PCT` sets the
//! allowed median growth, default 20; the process exits 1 on
//! regression), `--warmup`/`--iters` size the run, `--only a,b` selects
//! suites by name, and `--profile` (`--flame FILE` / `--profile-json
//! FILE` for collapsed-stack and JSON output) additionally profiles one
//! small characterization into a hierarchical wall-clock span tree.

use dram_obs::{
    scan_journal, AnomalySink, Event, EventBus, EventDraft, JournalConfig, JournalWriter, Severity,
};
use dram_sim::ChipProfile;
use dram_telemetry::Registry;
use dram_trace::{
    decode_container, diff_traces, trace_metrics, IndexedTrace, Query, Trace, SEGMENT_MNEMONICS,
};
use dramscope_core::dossier::{characterize_instrumented, CharacterizeOptions};
use dramscope_core::fleet::{self, FleetConfig};
use dramscope_core::report::Table;
use dramscope_core::shard::{self, ShardConfig};
use dramscope_core::trace_run;
use dramscope_service::profiles;
use std::fmt;

/// A command-line usage error: bad flags, unknown names, missing
/// operands. `main` maps these to exit code 2, runtime failures to 1 —
/// the same convention in every subcommand.
#[derive(Debug)]
struct UsageError(String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

fn usage<T>(message: impl Into<String>) -> Result<T, Box<dyn std::error::Error>> {
    Err(Box::new(UsageError(message.into())))
}

/// Small-profile options for the profiled bench run, via the shared
/// name table so CLI and daemon agree on the canonical values.
fn small_opts(scan_rows: u32) -> CharacterizeOptions {
    let (_, mut opts) = profiles::named_job("test_small").expect("test_small is a known profile");
    opts.scan_rows = scan_rows;
    opts
}

/// The unknown-profile usage message.
fn unknown_profile(name: &str) -> Box<dyn std::error::Error> {
    Box::new(UsageError(format!(
        "unknown profile '{name}' (try one of: {})",
        profiles::known_names().join(", ")
    )))
}

fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
) -> Result<Option<T>, Box<dyn std::error::Error>>
where
    T::Err: std::error::Error + 'static,
{
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => {
            let Some(raw) = args.get(i + 1) else {
                return usage(format!("{flag} needs a value"));
            };
            match raw.parse::<T>() {
                Ok(v) => Ok(Some(v)),
                Err(e) => usage(format!("invalid {flag} value '{raw}': {e}")),
            }
        }
    }
}

fn load_trace(path: &str) -> Result<Trace, Box<dyn std::error::Error>> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    decode_container(&bytes).map_err(|e| format!("{path}: {e}").into())
}

/// The `--segment SPEC` / `--bank N` filters shared by `stats`, `dump`,
/// and `diff`. SPEC is a segment number or a label prefix; `--bank`
/// keeps only events addressing that bank, skipping segments whose bank
/// set excludes it without decoding them (on indexed traces).
struct SegmentFilter {
    segment: Option<String>,
    bank: Option<u32>,
}

impl SegmentFilter {
    fn from_args(args: &[String]) -> Result<Self, Box<dyn std::error::Error>> {
        Ok(SegmentFilter {
            segment: parse_flag::<String>(args, "--segment")?,
            bank: parse_flag::<u32>(args, "--bank")?,
        })
    }

    fn is_active(&self) -> bool {
        self.segment.is_some() || self.bank.is_some()
    }

    /// Whether segment `i` (with metadata `seg`) should be decoded.
    fn selects(&self, i: usize, seg: &dram_trace::SegmentMeta) -> bool {
        let by_spec = match &self.segment {
            None => true,
            Some(spec) => spec
                .parse::<usize>()
                .map_or_else(|_| seg.label.starts_with(spec.as_str()), |n| n == i),
        };
        by_spec && self.bank.is_none_or(|b| seg.has_bank(b))
    }

    /// Whether an event inside a selected segment survives the filter.
    fn keeps_event(&self, ev: &dram_trace::TraceEvent) -> bool {
        self.bank
            .is_none_or(|b| dram_trace::index::event_bank(ev) == Some(b))
    }
}

/// Opens a trace container-aware and applies the segment filters,
/// returning the filtered trace plus `(decoded, total)` segment counts.
/// With no filters active this is exactly `load_trace` (every event,
/// decoded via the index when one is present).
fn load_filtered_trace(
    path: &str,
    filter: &SegmentFilter,
) -> Result<(Trace, usize, usize), Box<dyn std::error::Error>> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let indexed = IndexedTrace::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let total = indexed.segments().len();
    if !filter.is_active() {
        let trace = indexed.decode_all().map_err(|e| format!("{path}: {e}"))?;
        return Ok((trace, total, total));
    }
    let mut events = Vec::new();
    let mut decoded = 0usize;
    for i in 0..total {
        if !filter.selects(i, &indexed.segments()[i]) {
            continue;
        }
        decoded += 1;
        let segment = indexed
            .decode_segment(i)
            .map_err(|e| format!("{path}: {e}"))?;
        events.extend(segment.into_iter().filter(|ev| filter.keeps_event(ev)));
    }
    let trace = Trace {
        header: indexed.header().clone(),
        events,
    };
    Ok((trace, decoded, total))
}

/// Telemetry flags accepted by every mode that produces a metrics
/// registry: `--metrics FILE` writes the JSON-lines snapshot, `--quiet`
/// suppresses the human-readable output (dossier, run report, footer).
struct Telemetry {
    quiet: bool,
    metrics_path: Option<String>,
}

impl Telemetry {
    fn from_args(args: &[String]) -> Result<Self, Box<dyn std::error::Error>> {
        Ok(Telemetry {
            quiet: args.iter().any(|a| a == "--quiet"),
            metrics_path: parse_flag::<String>(args, "--metrics")?,
        })
    }

    /// Writes the snapshot (if requested) and prints the footer (unless
    /// quiet).
    fn emit(&self, reg: &Registry) -> Result<(), Box<dyn std::error::Error>> {
        if let Some(path) = &self.metrics_path {
            std::fs::write(path, reg.to_json_lines())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if !self.quiet {
            println!("{}", telemetry_footer(reg));
        }
        Ok(())
    }
}

/// The `--journal FILE` flag accepted by the long-running modes: an
/// event bus mirroring every emission to a rotating on-disk JSON-lines
/// journal, readable afterwards with `characterize events FILE`.
struct Journal {
    bus: Option<EventBus>,
}

impl Journal {
    fn from_args(args: &[String]) -> Result<Self, Box<dyn std::error::Error>> {
        let bus = match parse_flag::<String>(args, "--journal")? {
            None => None,
            Some(path) => {
                let writer = JournalWriter::open(path.as_str(), JournalConfig::default())
                    .map_err(|e| format!("cannot open journal: {e}"))?;
                Some(EventBus::with_journal(
                    dram_obs::DEFAULT_RING_CAPACITY,
                    writer,
                ))
            }
        };
        Ok(Journal { bus })
    }

    fn bus(&self) -> Option<&EventBus> {
        self.bus.as_ref()
    }

    /// Flushes the journal and surfaces absorbed write failures once, at
    /// the end of the run (the hot path never fails on journal errors).
    fn finish(&self) -> Result<(), Box<dyn std::error::Error>> {
        let Some(bus) = &self.bus else {
            return Ok(());
        };
        bus.flush().map_err(|e| e.to_string())?;
        match bus.journal_errors() {
            0 => Ok(()),
            n => Err(format!("journal dropped {n} event line(s)").into()),
        }
    }
}

/// One-line human summary of a run's metrics registry.
fn telemetry_footer(reg: &Registry) -> String {
    format!(
        "Telemetry: {} commands ({} rejected), {} read bytes, {} phases, {} spans",
        reg.sum_counters("commands_total"),
        reg.sum_counters("rejects_total"),
        reg.sum_counters("read_data_bytes_total"),
        reg.counters()
            .filter(|(k, _)| k.metric() == "phase_count")
            .count(),
        reg.sum_counters("span_count"),
    )
}

/// Renders a metrics registry as a [`Table`] (the `stats` subcommand).
fn metrics_table(reg: &Registry) -> Table {
    let labels = |labels: &[(String, String)]| {
        labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut t = Table::new(vec!["metric", "labels", "type", "value", "detail"]);
    for (k, v) in reg.counters() {
        t.row(vec![
            k.metric().into(),
            labels(k.labels()),
            "counter".into(),
            v.to_string(),
            String::new(),
        ]);
    }
    for (k, v) in reg.gauges() {
        t.row(vec![
            k.metric().into(),
            labels(k.labels()),
            "gauge".into(),
            v.to_string(),
            String::new(),
        ]);
    }
    for (k, h) in reg.histograms() {
        let detail = match (h.min(), h.max(), h.mean()) {
            (Some(min), Some(max), Some(mean)) => {
                format!("min={min} max={max} mean={mean:.1} sum={}", h.sum())
            }
            _ => "empty".into(),
        };
        t.row(vec![
            k.metric().into(),
            labels(k.labels()),
            "histogram".into(),
            h.count().to_string(),
            detail,
        ]);
    }
    t
}

fn run_stats_mode(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage("stats needs a trace file");
    };
    let filter = SegmentFilter::from_args(args)?;
    let (trace, decoded, total) = load_filtered_trace(path, &filter)?;
    let reg = trace_metrics(&trace);
    let out = if args.iter().any(|a| a == "--json") {
        reg.to_json_lines()
    } else if args.iter().any(|a| a == "--csv") {
        metrics_table(&reg).to_csv()
    } else {
        let scope = if filter.is_active() {
            format!(" [filtered: {decoded} of {total} segment(s)]")
        } else {
            String::new()
        };
        format!(
            "trace metrics for {} (seed {}, {} events){scope}:\n{}{}\n",
            trace.header.profile_label,
            trace.header.seed,
            trace.events.len(),
            metrics_table(&reg),
            telemetry_footer(&reg)
        )
    };
    // Stats output gets piped into `head`/`grep`; a closed stdout is
    // normal termination, not an error.
    use std::io::Write;
    match std::io::stdout().write_all(out.as_bytes()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(e.into()),
        _ => Ok(()),
    }
}

fn print_run_report(stats: &dramscope_core::dossier::RunStats) {
    println!("\nRun report:");
    for p in &stats.phases {
        println!(
            "  {:<10} {:>10.1} ms {:>12} cmds {:>8} flips",
            p.name, p.wall_ms, p.commands, p.bitflips
        );
    }
    println!(
        "  {:<10} {:>10.1} ms {:>12} cmds {:>8} flips",
        "total",
        stats.wall_ms(),
        stats.commands(),
        stats.bitflips()
    );
}

fn run_fleet_mode(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let workers = parse_flag::<usize>(args, "--workers")?.unwrap_or(0);
    // --serial pins either engine to one worker: the same jobs, seeds,
    // and execution order as the parallel run.
    let serial = args.iter().any(|a| a == "--serial");
    let config = FleetConfig {
        workers: if serial { 1 } else { workers },
    };
    let tele = Telemetry::from_args(args)?;
    let journal = Journal::from_args(args)?;
    let jobs = fleet::table1_jobs();
    let seed = dramscope_bench::experiments::SEED;
    if args.iter().any(|a| a == "--sharded") {
        let report = fleet::run_fleet_sharded(&jobs, seed, config, journal.bus());
        println!(
            "Sharded fleet characterization — {} profiles, {} (profile, bank) tasks on {} workers, {:.0} ms wall",
            report.profiles.len(),
            report.tasks,
            report.workers,
            report.wall_ms
        );
        if !tele.quiet {
            print!("{}", report.table());
            println!("\nRun summary:");
            println!("{}", report.summary_json());
        }
        tele.emit(&report.merged_metrics())?;
        journal.finish()?;
        if !report.all_ok() {
            std::process::exit(1);
        }
        return Ok(());
    }
    let report = fleet::run_fleet(&jobs, seed, config, journal.bus());
    println!(
        "Fleet characterization — {} profiles on {} workers, {:.0} ms wall",
        report.results.len(),
        report.workers,
        report.wall_ms
    );
    if !tele.quiet {
        print!("{}", report.table());
        println!("\nRun report (JSON lines):");
        print!("{}", report.json_lines());
    }
    tele.emit(&report.merged_metrics())?;
    journal.finish()?;
    if !report.all_ok() {
        std::process::exit(1);
    }
    Ok(())
}

fn run_sharded_mode(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let name = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .map_or("hbm2", String::as_str);
    let Some((profile, opts)) = profiles::named_job(name) else {
        return Err(unknown_profile(name));
    };
    let seed = parse_flag::<u64>(args, "--seed")?.unwrap_or(dramscope_bench::experiments::SEED);
    let shards = parse_flag::<usize>(args, "--shards")?.unwrap_or(0);
    let tele = Telemetry::from_args(args)?;
    let journal = Journal::from_args(args)?;
    // The shard engine has no event hook, so the lifecycle is narrated
    // here: one queued/started/finished triple for the whole device run.
    if let Some(bus) = journal.bus() {
        bus.emit(EventDraft::info("job.queued").job(name));
        bus.emit(
            EventDraft::info("job.started")
                .job(name)
                .field_u64("seed", seed),
        );
    }
    let report = if args.iter().any(|a| a == "--serial") {
        shard::characterize_sharded_serial(&profile, seed, opts)
    } else {
        shard::characterize_sharded(&profile, seed, opts, ShardConfig { shards })
    };
    if let Some(bus) = journal.bus() {
        bus.emit(
            EventDraft::info("job.finished")
                .job(name)
                .field_bool("ok", report.all_ok())
                .wall_ms(report.wall_ms as u64),
        );
    }
    println!(
        "Sharded characterization — {} ({} banks) on {} shard worker(s), {:.0} ms wall",
        report.label,
        report.results.len(),
        report.shards,
        report.wall_ms
    );
    if !tele.quiet {
        print!("{}", report.table());
        println!("\nRun summary:");
        println!("{}", report.summary_json());
    }
    if let Ok(dossier) = report.dossier() {
        println!(
            "sharded dossier digest {:#018x} (identical for serial and any shard count)",
            dossier.digest()
        );
    }
    tele.emit(&report.merged_metrics())?;
    journal.finish()?;
    if !report.all_ok() {
        std::process::exit(1);
    }
    Ok(())
}

fn run_record_mode(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let Some(name) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage("record needs a profile name");
    };
    let Some((profile, opts)) = profiles::named_job(name) else {
        return Err(unknown_profile(name));
    };
    let seed = parse_flag::<u64>(args, "--seed")?.unwrap_or(dramscope_bench::experiments::SEED);
    let out = parse_flag::<String>(args, "--out")?.unwrap_or_else(|| format!("{name}.trace"));
    // v2 (indexed container) is the default; `--v1` writes the bare
    // stream. The v1 payload bytes are identical either way.
    let v1 = args.iter().any(|a| a == "--v1");
    let encode = |trace: &Trace| {
        if v1 {
            trace.to_bytes()
        } else {
            trace.to_bytes_indexed()
        }
    };
    let tele = Telemetry::from_args(args)?;

    if args.iter().any(|a| a == "--sharded") {
        let shards = parse_flag::<usize>(args, "--shards")?.unwrap_or(0);
        let (dossier, trace, metrics) = trace_run::record_characterization_sharded(
            &profile,
            seed,
            opts,
            ShardConfig { shards },
        )?;
        let bytes = encode(&trace);
        std::fs::write(&out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!(
            "recorded {} events ({} bytes) to {out} — sharded, {} bank segments",
            trace.events.len(),
            bytes.len(),
            dossier.banks.len()
        );
        println!(
            "seed {seed}, sharded dossier digest {:#018x}",
            dossier.digest()
        );
        tele.emit(&metrics)?;
        return Ok(());
    }

    let (dossier, stats, trace, metrics) =
        trace_run::record_characterization_instrumented(&profile, seed, opts)?;
    let bytes = encode(&trace);
    std::fs::write(&out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    if !tele.quiet {
        print!("{dossier}");
        println!();
    }
    println!(
        "recorded {} events ({} bytes) to {out}",
        trace.events.len(),
        bytes.len()
    );
    let digest = trace
        .header
        .dossier_digest
        .ok_or("recorded trace is missing its dossier digest")?;
    println!("seed {seed}, dossier digest {digest:#018x}");
    if !tele.quiet {
        print_run_report(&stats);
    }
    tele.emit(&metrics)?;
    Ok(())
}

fn run_replay_mode(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage("replay needs a trace file");
    };
    let tele = Telemetry::from_args(args)?;
    let trace = load_trace(path)?;
    println!(
        "replaying {} events for {} (seed {})",
        trace.events.len(),
        trace.header.profile_label,
        trace.header.seed
    );
    if trace.header.meta("shard_banks").is_some() {
        let (dossier, metrics) = trace_run::replay_characterization_sharded(&trace)?;
        println!(
            "sharded replay verified: {} bank segments and dossier digest {:#018x} \
             reproduced bit-for-bit",
            dossier.banks.len(),
            dossier.digest()
        );
        tele.emit(&metrics)?;
        return Ok(());
    }
    let (dossier, stats, metrics) = trace_run::replay_characterization_instrumented(&trace)?;
    if !tele.quiet {
        print!("{dossier}");
        println!();
    }
    println!(
        "replay verified: command stream and dossier digest {:#018x} reproduced bit-for-bit",
        dossier.digest()
    );
    if !tele.quiet {
        print_run_report(&stats);
    }
    tele.emit(&metrics)?;

    if let Some(repeats) = parse_flag::<u32>(args, "--bench")? {
        let bench = trace_run::replay_benchmark(&trace, repeats)?;
        let mut table = Table::new(vec!["run", "wall_ms", "commands", "cmds_per_sec"]);
        for (i, p) in bench.phases.iter().enumerate() {
            let per_sec = if p.wall_ms > 0.0 {
                p.commands as f64 / (p.wall_ms / 1e3)
            } else {
                0.0
            };
            table.row(vec![
                format!("{i}"),
                format!("{:.2}", p.wall_ms),
                p.commands.to_string(),
                format!("{per_sec:.0}"),
            ]);
        }
        println!("\nReplay throughput ({repeats} runs):");
        print!("{table}");
    }
    Ok(())
}

fn run_bench_mode(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use dram_perf::{gate, run_all, BenchConfig, PerfSnapshot, SharedProfiler};

    let quiet = args.iter().any(|a| a == "--quiet");
    let defaults = BenchConfig::default();
    let config = BenchConfig {
        warmup: parse_flag::<u32>(args, "--warmup")?.unwrap_or(defaults.warmup),
        iters: parse_flag::<u32>(args, "--iters")?.unwrap_or(defaults.iters),
    };

    let mut benches = dramscope_bench::perf_suites::suites();
    if let Some(only) = parse_flag::<String>(args, "--only")? {
        let wanted: Vec<&str> = only
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        for name in &wanted {
            if !dramscope_bench::perf_suites::SUITE_NAMES.contains(name) {
                return usage(format!(
                    "unknown suite '{name}' (try one of: {:?})",
                    dramscope_bench::perf_suites::SUITE_NAMES
                ));
            }
        }
        benches.retain(|b| wanted.iter().any(|w| *w == b.name));
    }

    // Optional profiled run: one small characterization with the span
    // profiler riding the command sink, before the timed suites so the
    // tree never includes bench-harness noise.
    let flame_path = parse_flag::<String>(args, "--flame")?;
    let profile_json_path = parse_flag::<String>(args, "--profile-json")?;
    let want_profile = args.iter().any(|a| a == "--profile")
        || flame_path.is_some()
        || profile_json_path.is_some();
    if want_profile {
        let profiler = SharedProfiler::new();
        characterize_instrumented(
            &ChipProfile::test_small(),
            dramscope_bench::experiments::SEED,
            small_opts(129),
            Some(profiler.sink()),
        )?;
        let tree = profiler.finish();
        if !quiet {
            println!("Span profile (test_small characterization):");
            print!("{}", tree.to_text());
            println!();
        }
        if let Some(path) = &flame_path {
            std::fs::write(path, tree.to_collapsed())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote collapsed stacks to {path} (feed to flamegraph.pl)");
        }
        if let Some(path) = &profile_json_path {
            std::fs::write(path, tree.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote span-tree JSON to {path}");
        }
    }

    if !quiet {
        println!(
            "Running {} suite(s), {} warmup + {} measured iteration(s):",
            benches.len(),
            config.warmup,
            config.iters.max(1)
        );
    }
    let results = run_all(&mut benches, config);
    let snapshot = PerfSnapshot::from_results(&results);
    if !quiet {
        let mut t = Table::new(vec![
            "suite",
            "min_ms",
            "median_ms",
            "p95_ms",
            "iters",
            "commands",
            "cmds_per_sec",
        ]);
        for r in &results {
            t.row(vec![
                r.name.clone(),
                format!("{:.3}", r.stats.min_ns as f64 / 1e6),
                format!("{:.3}", r.stats.median_ns as f64 / 1e6),
                format!("{:.3}", r.stats.p95_ns as f64 / 1e6),
                r.stats.n.to_string(),
                r.commands.to_string(),
                format!("{:.0}", r.commands_per_sec()),
            ]);
        }
        print!("{t}");
    }

    // PerfError's Display carries the path and byte offset; surface that
    // rather than the Debug repr a bare `?` on Box<dyn Error> prints.
    if let Some(path) = parse_flag::<String>(args, "--save")? {
        snapshot.save(&path).map_err(|e| e.to_string())?;
        println!("saved snapshot to {path}");
    }
    if let Some(baseline_path) = parse_flag::<String>(args, "--baseline")? {
        let threshold = parse_flag::<f64>(args, "--gate")?.unwrap_or(20.0);
        let baseline = PerfSnapshot::load(&baseline_path).map_err(|e| e.to_string())?;
        let report = gate::compare(&baseline, &snapshot, threshold).map_err(|e| e.to_string())?;
        println!("{report}");
        if report.failed() {
            std::process::exit(1);
        }
    } else if parse_flag::<f64>(args, "--gate")?.is_some() {
        return usage("--gate needs --baseline FILE to compare against");
    }
    Ok(())
}

/// The `serve` subcommand: runs the `dramscoped` daemon in-process —
/// JSON-lines requests from stdin (or a unix socket with `--socket`),
/// the shared fleet pool, the content-addressed dossier cache.
fn run_serve_mode(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use dramscope_service::{ConnMode, Service};
    let workers = parse_flag::<usize>(args, "--workers")?.unwrap_or(0);
    let socket = parse_flag::<String>(args, "--socket")?;
    let trace_dir = parse_flag::<String>(args, "--trace-dir")?;
    let cache_dir = parse_flag::<String>(args, "--cache-dir")?;
    let cache_max_entries = parse_flag::<u64>(args, "--cache-max-entries")?.unwrap_or(0);
    let cache_max_bytes = parse_flag::<u64>(args, "--cache-max-bytes")?.unwrap_or(0);
    let journal = Journal::from_args(args)?;
    let mut mode = ConnMode::Pipelined;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            // parse_flag already checked the values exist and parse.
            "--workers"
            | "--socket"
            | "--journal"
            | "--trace-dir"
            | "--cache-dir"
            | "--cache-max-entries"
            | "--cache-max-bytes" => i += 2,
            "--serial" => {
                mode = ConnMode::Serial;
                i += 1;
            }
            other => return usage(format!("serve does not take '{other}'")),
        }
    }
    let service = std::sync::Arc::new(match journal.bus() {
        None => Service::new(workers),
        Some(bus) => Service::with_events(workers, bus.clone()),
    });
    if let Some(dir) = trace_dir {
        service.set_trace_dir(dir);
    }
    if let Some(dir) = cache_dir {
        service
            .set_cache_dir(&dir)
            .map_err(|e| format!("--cache-dir {dir}: {e}"))?;
    }
    if cache_max_entries != 0 || cache_max_bytes != 0 {
        service.set_cache_limits(cache_max_entries, cache_max_bytes);
    }
    match socket {
        None => dramscope_service::serve_stdio_mode(&service, mode)?,
        Some(path) => serve_socket(&service, &path, mode)?,
    }
    journal.finish()?;
    Ok(())
}

#[cfg(unix)]
fn serve_socket(
    service: &std::sync::Arc<dramscope_service::Service>,
    path: &str,
    mode: dramscope_service::ConnMode,
) -> Result<(), Box<dyn std::error::Error>> {
    dramscope_service::serve_unix_mode(service, std::path::Path::new(path), mode)?;
    Ok(())
}

#[cfg(not(unix))]
fn serve_socket(
    _service: &std::sync::Arc<dramscope_service::Service>,
    _path: &str,
    _mode: dramscope_service::ConnMode,
) -> Result<(), Box<dyn std::error::Error>> {
    usage("--socket requires a unix platform")
}

fn run_diff_mode(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (Some(a), Some(b)) = (
        args.first().filter(|a| !a.starts_with("--")),
        args.get(1).filter(|a| !a.starts_with("--")),
    ) else {
        return usage("diff needs two trace files");
    };
    // The same filter applies to both sides, so a diff scoped to one
    // phase or bank compares exactly the events both traces keep.
    let filter = SegmentFilter::from_args(args)?;
    let (ta, _, _) = load_filtered_trace(a, &filter)?;
    let (tb, _, _) = load_filtered_trace(b, &filter)?;
    let diff = diff_traces(&ta, &tb);
    println!("{diff}");
    if !diff.identical() {
        std::process::exit(1);
    }
    Ok(())
}

fn run_dump_mode(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage("dump needs a trace file");
    };
    let filter = SegmentFilter::from_args(args)?;
    // Dumps run to tens of thousands of lines and get piped into `head`;
    // a closed stdout is normal termination, not an error.
    use std::io::Write;
    let text = if filter.is_active() {
        dump_filtered(path, &filter)?
    } else {
        load_trace(path)?.dump()
    };
    match std::io::stdout().write_all(text.as_bytes()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(e.into()),
        _ => Ok(()),
    }
}

/// Filtered dump: only the selected segments are decoded, and every
/// event line keeps its global index in the full stream so filtered and
/// unfiltered dumps line up.
fn dump_filtered(path: &str, filter: &SegmentFilter) -> Result<String, Box<dyn std::error::Error>> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let indexed = IndexedTrace::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let header = indexed.header();
    let mut out = format!(
        "# trace: {} seed={} events={}\n",
        header.profile_label,
        header.seed,
        indexed.event_count()
    );
    let mut shown = 0usize;
    let mut decoded = 0usize;
    for (i, seg) in indexed.segments().iter().enumerate() {
        if !filter.selects(i, seg) {
            continue;
        }
        decoded += 1;
        out.push_str(&format!(
            "# segment {i}: {} ({} events)\n",
            seg.label, seg.events
        ));
        let start = indexed.segment_event_start(i);
        for (j, ev) in indexed
            .decode_segment(i)
            .map_err(|e| format!("{path}: {e}"))?
            .iter()
            .enumerate()
        {
            if !filter.keeps_event(ev) {
                continue;
            }
            shown += 1;
            out.push_str(&format!("{:>8} {ev}\n", start as usize + j));
        }
    }
    out.push_str(&format!(
        "# {shown} event(s) from {decoded} of {} segment(s)\n",
        indexed.segments().len()
    ));
    Ok(out)
}

/// Renders a segment's non-zero per-mnemonic counts as `act=12 rd=34`.
fn ops_summary(ops: &[u64; 10]) -> String {
    let cells: Vec<String> = SEGMENT_MNEMONICS
        .iter()
        .zip(ops.iter())
        .filter(|(_, n)| **n > 0)
        .map(|(m, n)| format!("{m}={n}"))
        .collect();
    if cells.is_empty() {
        "-".into()
    } else {
        cells.join(" ")
    }
}

/// Renders a segment's time coverage as `min..max` picoseconds.
fn time_span(min_ps: Option<u64>, max_ps: Option<u64>) -> String {
    match (min_ps, max_ps) {
        (Some(min), Some(max)) => format!("{min}..{max}"),
        _ => "-".into(),
    }
}

/// The `index` subcommand: upgrades a trace (either version) to the v2
/// indexed container and prints the segment table. The v1 payload bytes
/// are carried over unchanged, so digests and replay are unaffected.
fn run_index_mode(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage("index needs a trace file");
    };
    let out = parse_flag::<String>(args, "--out")?.unwrap_or_else(|| {
        let stem = path.strip_suffix(".trace").unwrap_or(path);
        format!("{stem}.v2.trace")
    });
    let trace = load_trace(path)?;
    let bytes = trace.to_bytes_indexed();
    std::fs::write(&out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    // Reopen what was written so the table shows the exact on-disk
    // offsets, not a parallel computation of them.
    let indexed = IndexedTrace::from_bytes(&bytes).map_err(|e| format!("{out}: {e}"))?;
    let mut t = Table::new(vec![
        "segment", "label", "offset", "bytes", "events", "banks", "time_ps", "commands",
    ]);
    for (i, seg) in indexed.segments().iter().enumerate() {
        let banks = if seg.banks.is_empty() {
            "-".into()
        } else {
            seg.banks
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        t.row(vec![
            i.to_string(),
            seg.label.clone(),
            seg.offset.to_string(),
            seg.len.to_string(),
            seg.events.to_string(),
            banks,
            time_span(seg.min_ps, seg.max_ps),
            ops_summary(&seg.ops),
        ]);
    }
    let text = format!(
        "{t}indexed {} event(s) into {} segment(s) ({} bytes) to {out}\n",
        indexed.event_count(),
        indexed.segments().len(),
        bytes.len()
    );
    // Segment tables get piped into `head`; a closed stdout is normal
    // termination, not an error.
    use std::io::Write;
    match std::io::stdout().write_all(text.as_bytes()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(e.into()),
        _ => Ok(()),
    }
}

/// Splits a comma-separated flag value, rejecting empty entries.
fn parse_list_flag(
    args: &[String],
    flag: &str,
) -> Result<Option<Vec<String>>, Box<dyn std::error::Error>> {
    let Some(raw) = parse_flag::<String>(args, flag)? else {
        return Ok(None);
    };
    let items: Vec<String> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if items.is_empty() {
        return usage(format!("{flag} needs at least one value"));
    }
    Ok(Some(items))
}

/// The `query` subcommand: evaluates a predicate over one trace file or
/// every `*.trace` in a directory, pruning non-matching segments by
/// index metadata before decoding. Exits 1 when nothing matches.
fn run_query_mode(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage("query needs a trace file or directory");
    };
    let banks = match parse_list_flag(args, "--bank")? {
        None => None,
        Some(items) => {
            let mut banks = Vec::new();
            for item in items {
                match item.parse::<u32>() {
                    Ok(b) => banks.push(b),
                    Err(e) => return usage(format!("invalid --bank value '{item}': {e}")),
                }
            }
            Some(banks)
        }
    };
    let mnemonics = match parse_list_flag(args, "--cmd")? {
        None => None,
        Some(items) => {
            for item in &items {
                if !SEGMENT_MNEMONICS.contains(&item.as_str()) {
                    return usage(format!(
                        "unknown --cmd '{item}' (try one of: {})",
                        SEGMENT_MNEMONICS.join(", ")
                    ));
                }
            }
            Some(items)
        }
    };
    let query = Query {
        from_ps: parse_flag::<u64>(args, "--from-ps")?,
        to_ps: parse_flag::<u64>(args, "--to-ps")?,
        banks,
        mnemonics,
        marker_prefix: parse_flag::<String>(args, "--marker")?,
        min_count: parse_flag::<u64>(args, "--min-count")?,
        max_count: parse_flag::<u64>(args, "--max-count")?,
    };
    if let (Some(from), Some(to)) = (query.from_ps, query.to_ps) {
        if from > to {
            return usage(format!("--from-ps {from} is after --to-ps {to}"));
        }
    }
    let report = dram_trace::query_path(std::path::Path::new(path), &query)?;

    let out = if args.iter().any(|a| a == "--json") {
        let mut s = report.to_json();
        s.push('\n');
        s
    } else {
        let mut t = Table::new(vec![
            "file", "segment", "label", "events", "matched", "time_ps", "commands",
        ]);
        for hit in &report.hits {
            t.row(vec![
                hit.file.clone(),
                hit.segment.to_string(),
                hit.label.clone(),
                hit.events.to_string(),
                hit.matched.to_string(),
                time_span(hit.min_ps, hit.max_ps),
                ops_summary(&hit.ops),
            ]);
        }
        if args.iter().any(|a| a == "--csv") {
            t.to_csv()
        } else {
            format!(
                "{t}matched {} event(s) in {} segment(s) across {} file(s); \
                 decoded {} of {} segment(s)\n",
                report.matched,
                report.hits.len(),
                report.files,
                report.segments_decoded,
                report.segments
            )
        }
    };
    // Query listings get piped into `head`/`grep`; a closed stdout is
    // normal termination, not an error.
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_all(out.as_bytes()) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            return Err(e.into());
        }
    }
    if !report.is_match() {
        std::process::exit(1);
    }
    Ok(())
}

/// Per-job lifecycle tally for the `events` summary.
#[derive(Default)]
struct Lifecycle {
    queued: usize,
    started: usize,
    finished: usize,
    panicked: usize,
}

impl Lifecycle {
    /// Every start is accounted for by a finish or a panic (queue-only
    /// entries are jobs the journal caught before they ran).
    fn matched(&self) -> bool {
        self.started == self.finished + self.panicked
    }
}

/// The `events` subcommand: reads a journal written with `--journal`,
/// prints the matching event lines, and reconstructs the per-job
/// lifecycle. Corrupt lines are salvaged around (reported to stderr with
/// their 1-based line numbers), never fatal.
fn run_events_mode(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage("events needs a journal file");
    };
    let sev = match parse_flag::<String>(args, "--sev")? {
        None => Severity::Debug,
        Some(s) => match Severity::parse(&s) {
            Some(sev) => sev,
            None => {
                return usage(format!(
                    "invalid --sev '{s}' (try debug, info, warn, error)"
                ))
            }
        },
    };
    let job = parse_flag::<String>(args, "--job")?;
    let kind = parse_flag::<String>(args, "--kind")?;
    let since_seq = parse_flag::<u64>(args, "--since-seq")?.unwrap_or(0);
    let until_seq = parse_flag::<u64>(args, "--until-seq")?.unwrap_or(u64::MAX);
    let tail = parse_flag::<usize>(args, "--tail")?;
    let stable = args.iter().any(|a| a == "--stable");
    let quiet = args.iter().any(|a| a == "--quiet");

    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut corrupt = 0usize;
    let mut events: Vec<Event> = Vec::new();
    for result in scan_journal(&text) {
        match result {
            Ok(e) => events.push(e),
            Err(e) => {
                corrupt += 1;
                eprintln!("characterize events: {e}");
            }
        }
    }
    let total = events.len();
    let mut selected: Vec<&Event> = events
        .iter()
        .filter(|e| {
            e.severity >= sev
                && e.seq >= since_seq
                && e.seq <= until_seq
                && job
                    .as_deref()
                    .is_none_or(|j| e.job_id.as_deref() == Some(j))
                && kind.as_deref().is_none_or(|k| e.kind.starts_with(k))
        })
        .collect();
    if let Some(n) = tail {
        let skip = selected.len().saturating_sub(n);
        selected.drain(..skip);
    }

    let mut out = String::new();
    if !quiet {
        for e in &selected {
            out.push_str(&if stable { e.stable_line() } else { e.line() });
            out.push('\n');
        }
    }

    // Reconstruct the lifecycle of every job the selected events
    // mention. Sharded tasks key by (job, shard) so each (profile, bank)
    // task must balance on its own.
    let mut jobs_seen: std::collections::BTreeMap<(String, Option<u32>), Lifecycle> =
        std::collections::BTreeMap::new();
    for e in &selected {
        let Some(job_id) = &e.job_id else { continue };
        let entry = jobs_seen.entry((job_id.clone(), e.shard)).or_default();
        match e.kind.as_str() {
            "job.queued" => entry.queued += 1,
            "job.started" => entry.started += 1,
            "job.finished" => entry.finished += 1,
            "job.panicked" => entry.panicked += 1,
            _ => {}
        }
    }
    jobs_seen.retain(|_, l| l.queued + l.started + l.finished + l.panicked > 0);
    if !jobs_seen.is_empty() {
        let mut t = Table::new(vec![
            "job",
            "shard",
            "queued",
            "started",
            "finished",
            "panicked",
            "lifecycle",
        ]);
        for ((job_id, shard), l) in &jobs_seen {
            t.row(vec![
                job_id.clone(),
                shard.map_or_else(|| "-".into(), |s| s.to_string()),
                l.queued.to_string(),
                l.started.to_string(),
                l.finished.to_string(),
                l.panicked.to_string(),
                if l.matched() { "matched" } else { "UNMATCHED" }.into(),
            ]);
        }
        out.push_str("\nJob lifecycle:\n");
        out.push_str(&t.to_string());
    }
    let unmatched = jobs_seen.values().filter(|l| !l.matched()).count();
    out.push_str(&format!(
        "{} event(s) read, {} matched filters, {} corrupt line(s); \
         {} job lifecycle(s), {} unmatched\n",
        total,
        selected.len(),
        corrupt,
        jobs_seen.len(),
        unmatched,
    ));

    // Event listings get piped into `head`/`grep`; a closed stdout is
    // normal termination, not an error.
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_all(out.as_bytes()) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            return Err(e.into());
        }
    }
    if unmatched > 0 {
        std::process::exit(1);
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    // Subcommands must come first; their flags follow. A profile run
    // takes its name from the first non-flag argument, so bare
    // `characterize --quiet` still selects the default profile.
    match args.first().map(String::as_str) {
        Some("fleet") => return run_fleet_mode(&args[1..]),
        Some("sharded") => return run_sharded_mode(&args[1..]),
        Some("record") => return run_record_mode(&args[1..]),
        Some("replay") => return run_replay_mode(&args[1..]),
        Some("diff") => return run_diff_mode(&args[1..]),
        Some("dump") => return run_dump_mode(&args[1..]),
        Some("stats") => return run_stats_mode(&args[1..]),
        Some("index") => return run_index_mode(&args[1..]),
        Some("query") => return run_query_mode(&args[1..]),
        Some("bench") => return run_bench_mode(&args[1..]),
        Some("serve") => return run_serve_mode(&args[1..]),
        Some("events") => return run_events_mode(&args[1..]),
        _ => {}
    }
    let name = args
        .iter()
        .enumerate()
        .find(|(i, a)| {
            !a.starts_with("--")
                && (*i == 0 || (args[*i - 1] != "--metrics" && args[*i - 1] != "--journal"))
        })
        .map_or("default", |(_, s)| s.as_str());
    let Some((profile, mut opts)) = profiles::preset_job(name) else {
        return usage(format!(
            "unknown command or profile '{name}' (try one of: {}, \
             fleet, sharded, record, replay, diff, dump, stats, index, query, bench, serve, events)",
            profiles::known_names().join(", ")
        ));
    };
    let tele = Telemetry::from_args(args)?;
    let journal = Journal::from_args(args)?;
    opts.with_swizzle = true;
    let seed = dramscope_bench::experiments::SEED;
    if let Some(bus) = journal.bus() {
        bus.emit(EventDraft::info("job.queued").job(name));
        bus.emit(
            EventDraft::info("job.started")
                .job(name)
                .field_u64("seed", seed),
        );
    }
    // A journaled run also surfaces simulator clock anomalies as events.
    let sink = journal.bus().map(|bus| {
        Box::new(AnomalySink::new(bus.clone(), None, Some(name)))
            as Box<dyn dram_sim::CommandSink + Send>
    });
    let outcome = characterize_instrumented(&profile, seed, opts, sink);
    if let Some(bus) = journal.bus() {
        bus.emit(
            EventDraft::info("job.finished")
                .job(name)
                .field_bool("ok", outcome.is_ok()),
        );
    }
    journal.finish()?;
    let (dossier, stats, metrics) = outcome?;
    if !tele.quiet {
        print!("{dossier}");
        print_run_report(&stats);
    }
    tele.emit(&metrics)?;
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("characterize: {e}");
        // Usage errors (bad flags, unknown names, missing operands)
        // exit 2 in every subcommand; runtime failures exit 1.
        let code = if e.is::<UsageError>() { 2 } else { 1 };
        std::process::exit(code);
    }
}
