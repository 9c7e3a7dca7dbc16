//! Full black-box characterization: prints the dossier the toolkit
//! assembles from RowCopy, retention, AIB, power, TRR, and ECC probing,
//! plus the fleet, sharded, trace, bench, daemon, and journal commands
//! around it (`characterize --help` lists them). Every command declares
//! its operands and flags once, in a [`Command`] table below, and reads
//! them through the `dramscope_service::cli` grammar: usage errors exit
//! 2, runtime failures 1.
//!
//! Every trace-reading command accepts both the v1 stream and the v2
//! indexed container that `record` writes by default; `--segment` and
//! `--bank` decode only the matching segments of an indexed trace, and
//! synthesize the same segments from a v1 trace's markers, so the output
//! is identical either way.

use dram_obs::{scan_journal, AnomalySink, Event, EventDraft, Severity};
use dram_sim::ChipProfile;
use dram_telemetry::{Key, Registry};
use dram_trace::{
    decode_container, diff_traces, trace_metrics, IndexedTrace, Query, Trace, SEGMENT_MNEMONICS,
};
use dramscope_bench::experiments;
use dramscope_core::dossier::{
    characterize_instrumented, CharacterizeOptions, PhaseStat, RunStats,
};
use dramscope_core::fleet::{self, FleetConfig};
use dramscope_core::report::Table;
use dramscope_core::shard::{self, ShardConfig};
use dramscope_core::trace_run;
use dramscope_service::cli::{self, usage, Args, Command, Flag, Journal};
use dramscope_service::{profiles, ServeConfig};
use std::error::Error;
use std::path::Path;
use std::process::ExitCode;

const METRICS: Flag = Flag::text("--metrics", "FILE", "write the metrics snapshot to FILE");
const QUIET: Flag = Flag::switch("--quiet", "print only the one-line confirmations");
const SEED: Flag = Flag::parsed::<u64>("--seed", "N", "chip seed (default 379422)");
const SHARDS: Flag =
    Flag::parsed::<usize>("--shards", "N", "shard workers (0 = machine parallelism)");
const SEGMENT: Flag = Flag::text("--segment", "SPEC", "keep segment SPEC (number or prefix)");
const BANK: Flag = Flag::parsed::<u32>("--bank", "N", "only events addressing bank N");

const CHARACTERIZE: Command = Command {
    name: "characterize",
    about: "Characterizes one Table I device black-box.\n\
            PROFILE defaults to mfr_a_x4_2016; prints the dossier and the per-phase\n\
            run report.",
    operands: &["[PROFILE]"],
    needs: "",
    flags: &[METRICS, QUIET, cli::JOURNAL],
    subcommands: &[
        &FLEET, &SHARDED, &RECORD, &REPLAY, &DIFF, &DUMP, &STATS, &INDEX, &QUERY, &BENCH, &SERVE,
        &EVENTS,
    ],
    run: run_profile,
};

fn main() -> ExitCode {
    cli::main(&CHARACTERIZE)
}

/// Resolves a name `profiles::named_job` knows, or a usage error that
/// lists them.
fn named_job(name: &str) -> Result<(ChipProfile, CharacterizeOptions), Box<dyn Error>> {
    let Some(job) = profiles::named_job(name) else {
        let known = profiles::known_names().join(", ");
        return usage(format!("unknown profile '{name}' (try one of: {known})"));
    };
    Ok(job)
}

/// Writes a command's whole output to stdout. Listings get piped into
/// `head` or `grep`, so a closed stdout is normal termination, not an
/// error.
fn print_piped(text: &str) -> Result<(), Box<dyn Error>> {
    use std::io::Write;
    match std::io::stdout().write_all(text.as_bytes()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(e.into()),
        _ => Ok(()),
    }
}

fn load_trace(path: &str) -> Result<Trace, Box<dyn Error>> {
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
    fn from_args(args: &Args) -> Self {
        SegmentFilter {
            segment: args.text("--segment").map(String::from),
            bank: args.value("--bank"),
        }
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
/// With no filters active every segment is decoded: the whole trace.
fn load_filtered_trace(
    path: &str,
    filter: &SegmentFilter,
) -> Result<(Trace, usize, usize), Box<dyn Error>> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let indexed = IndexedTrace::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let total = indexed.segments().len();
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

/// Writes the `--metrics FILE` snapshot and, unless `--quiet`, the footer.
fn emit(args: &Args, reg: &Registry) -> Result<(), Box<dyn Error>> {
    if let Some(path) = args.text("--metrics") {
        std::fs::write(path, reg.to_json_lines())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if !args.has("--quiet") {
        println!("{}", telemetry_footer(reg));
    }
    Ok(())
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
    let mut t = Table::new(vec!["metric", "labels", "type", "value", "detail"]);
    let mut row = |k: &Key, kind: &str, value: String, detail: String| {
        let labels: Vec<String> = k.labels().iter().map(|(k, v)| format!("{k}={v}")).collect();
        t.row(vec![
            k.metric().into(),
            labels.join(","),
            kind.into(),
            value,
            detail,
        ]);
    };
    for (k, v) in reg.counters() {
        row(k, "counter", v.to_string(), String::new());
    }
    for (k, v) in reg.gauges() {
        row(k, "gauge", v.to_string(), String::new());
    }
    for (k, h) in reg.histograms() {
        let detail = match (h.min(), h.max(), h.mean()) {
            (Some(min), Some(max), Some(mean)) => {
                format!("min={min} max={max} mean={mean:.1} sum={}", h.sum())
            }
            _ => "empty".into(),
        };
        row(k, "histogram", h.count().to_string(), detail);
    }
    t
}

const STATS: Command = Command {
    name: "characterize stats",
    about: "Derives a trace's metrics offline, with no re-simulation.",
    operands: &["<FILE>"],
    needs: "a trace file",
    flags: &[
        SEGMENT,
        BANK,
        Flag::switch("--json", "print the raw metrics snapshot"),
        Flag::switch("--csv", "print the table as CSV"),
    ],
    subcommands: &[],
    run: run_stats_mode,
};

fn run_stats_mode(args: &Args) -> Result<(), Box<dyn Error>> {
    let path = args.operand(0).unwrap_or_default();
    let filter = SegmentFilter::from_args(args);
    let (trace, decoded, total) = load_filtered_trace(path, &filter)?;
    let reg = trace_metrics(&trace);
    let out = if args.has("--json") {
        reg.to_json_lines()
    } else if args.has("--csv") {
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
    print_piped(&out)
}

fn print_run_report(stats: &RunStats) {
    println!("\nRun report:");
    let total = PhaseStat {
        name: "total",
        wall_ms: stats.wall_ms(),
        commands: stats.commands(),
        bitflips: stats.bitflips(),
    };
    for p in stats.phases.iter().chain([&total]) {
        let (name, ms, cmds, flips) = (p.name, p.wall_ms, p.commands, p.bitflips);
        println!("  {name:<10} {ms:>10.1} ms {cmds:>12} cmds {flips:>8} flips");
    }
}

const FLEET: Command = Command {
    name: "characterize fleet",
    about: "Characterizes the Table I population in parallel.\n\
            Prints the per-device table, then the JSON-lines run report.",
    operands: &[],
    needs: "",
    flags: &[
        Flag::parsed::<usize>("--workers", "N", "worker threads (0 = all cores)"),
        Flag::switch("--serial", "one worker: the determinism baseline"),
        Flag::switch("--sharded", "one task per (profile, bank) pair"),
        METRICS,
        QUIET,
        cli::JOURNAL,
    ],
    subcommands: &[],
    run: run_fleet_mode,
};

fn run_fleet_mode(args: &Args) -> Result<(), Box<dyn Error>> {
    // --serial pins either engine to one worker: the same jobs, seeds,
    // and execution order as the parallel run.
    let config = FleetConfig {
        workers: if args.has("--serial") {
            1
        } else {
            args.value("--workers").unwrap_or(0)
        },
    };
    let quiet = args.has("--quiet");
    let journal = Journal::open(args.text("--journal").map(Path::new))?;
    let jobs = fleet::table1_jobs();
    let seed = experiments::SEED;
    let (metrics, ok) = if args.has("--sharded") {
        let report = fleet::run_fleet_sharded(&jobs, seed, config, journal.bus());
        println!(
            "Sharded fleet characterization — {} profiles, {} (profile, bank) tasks on {} workers, {:.0} ms wall",
            report.profiles.len(),
            report.tasks,
            report.workers,
            report.wall_ms
        );
        if !quiet {
            print!("{}", report.table());
            println!("\nRun summary:");
            println!("{}", report.summary_json());
        }
        (report.merged_metrics(), report.all_ok())
    } else {
        let report = fleet::run_fleet(&jobs, seed, config, journal.bus());
        println!(
            "Fleet characterization — {} profiles on {} workers, {:.0} ms wall",
            report.results.len(),
            report.workers,
            report.wall_ms
        );
        if !quiet {
            print!("{}", report.table());
            println!("\nRun report (JSON lines):");
            print!("{}", report.json_lines());
        }
        (report.merged_metrics(), report.all_ok())
    };
    conclude(args, &journal, &metrics, ok)
}

/// The end of a long run: the metrics snapshot and footer, the journal
/// flush, and exit 1 when a job failed.
fn conclude(
    args: &Args,
    journal: &Journal,
    reg: &Registry,
    ok: bool,
) -> Result<(), Box<dyn Error>> {
    emit(args, reg)?;
    journal.finish()?;
    if !ok {
        std::process::exit(1);
    }
    Ok(())
}

/// Opens a device run's lifecycle on the journal, for the runs whose
/// engine has no event hook of its own; the caller emits `job.finished`.
fn start_job(journal: &Journal, job: &str, seed: u64) {
    if let Some(bus) = journal.bus() {
        bus.emit(EventDraft::info("job.queued").job(job));
        bus.emit(
            EventDraft::info("job.started")
                .job(job)
                .field_u64("seed", seed),
        );
    }
}

const SHARDED: Command = Command {
    name: "characterize sharded",
    about: "Characterizes every bank of one device concurrently.\n\
            PROFILE defaults to hbm2; the merged dossier digest it prints is\n\
            identical for serial and any shard count.",
    operands: &["[PROFILE]"],
    needs: "",
    flags: &[
        SEED,
        SHARDS,
        Flag::switch("--serial", "the one-bank-at-a-time reference"),
        METRICS,
        QUIET,
        cli::JOURNAL,
    ],
    subcommands: &[],
    run: run_sharded_mode,
};

fn run_sharded_mode(args: &Args) -> Result<(), Box<dyn Error>> {
    let name = args.operand(0).unwrap_or("hbm2");
    let (profile, opts) = named_job(name)?;
    let seed = args.value("--seed").unwrap_or(experiments::SEED);
    let shards = args.value("--shards").unwrap_or(0);
    let quiet = args.has("--quiet");
    let journal = Journal::open(args.text("--journal").map(Path::new))?;
    // One queued/started/finished triple for the whole device run.
    start_job(&journal, name, seed);
    let report = if args.has("--serial") {
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
    if !quiet {
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
    conclude(args, &journal, &report.merged_metrics(), report.all_ok())
}

const RECORD: Command = Command {
    name: "characterize record",
    about: "Characterizes a device while recording its command trace.\n\
            PROFILE is a Table I preset or a small test profile; the trace is the\n\
            v2 indexed container unless --v1.",
    operands: &["<PROFILE>"],
    needs: "a profile name",
    flags: &[
        SEED,
        Flag::text("--out", "FILE", "trace to write (default PROFILE.trace)"),
        Flag::switch("--v1", "write v1, without the segment index"),
        Flag::switch("--sharded", "record the bank-sharded flow"),
        SHARDS,
        METRICS,
        QUIET,
    ],
    subcommands: &[],
    run: run_record_mode,
};

fn run_record_mode(args: &Args) -> Result<(), Box<dyn Error>> {
    let name = args.operand(0).unwrap_or_default();
    let (profile, opts) = named_job(name)?;
    let seed = args.value("--seed").unwrap_or(experiments::SEED);
    let out = args
        .text("--out")
        .map_or_else(|| format!("{name}.trace"), String::from);
    let shards = args.value("--shards").unwrap_or(0);
    // v2 (indexed container) is the default; `--v1` writes the bare
    // stream. The v1 payload bytes are identical either way.
    let v1 = args.has("--v1");
    let encode = |trace: &Trace| {
        if v1 {
            trace.to_bytes()
        } else {
            trace.to_bytes_indexed()
        }
    };
    let quiet = args.has("--quiet");

    if args.has("--sharded") {
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
        emit(args, &metrics)?;
        return Ok(());
    }

    let (dossier, stats, trace, metrics) =
        trace_run::record_characterization_instrumented(&profile, seed, opts)?;
    let bytes = encode(&trace);
    std::fs::write(&out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    if !quiet {
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
    if !quiet {
        print_run_report(&stats);
    }
    emit(args, &metrics)?;
    Ok(())
}

const REPLAY: Command = Command {
    name: "characterize replay",
    about: "Re-runs a characterization from its trace and verifies it.\n\
            The command stream and the dossier digest must reproduce bit for bit;\n\
            sharded traces replay bank by bank.",
    operands: &["<FILE>"],
    needs: "a trace file",
    flags: &[
        Flag::parsed::<u32>("--bench", "N", "then time N raw replays on bare chips"),
        METRICS,
        QUIET,
    ],
    subcommands: &[],
    run: run_replay_mode,
};

fn run_replay_mode(args: &Args) -> Result<(), Box<dyn Error>> {
    let path = args.operand(0).unwrap_or_default();
    let repeats = args.value::<u32>("--bench");
    let quiet = args.has("--quiet");
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
        emit(args, &metrics)?;
        return Ok(());
    }
    let (dossier, stats, metrics) = trace_run::replay_characterization_instrumented(&trace)?;
    if !quiet {
        print!("{dossier}");
        println!();
    }
    println!(
        "replay verified: command stream and dossier digest {:#018x} reproduced bit-for-bit",
        dossier.digest()
    );
    if !quiet {
        print_run_report(&stats);
    }
    emit(args, &metrics)?;

    if let Some(repeats) = repeats {
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

const BENCH: Command = Command {
    name: "characterize bench",
    about: "Runs the named performance suites.\n\
            Optionally gates them against a saved snapshot (exit 1 on regression).",
    operands: &[],
    needs: "",
    flags: &[
        Flag::text("--save", "FILE", "write a BENCH_*.json snapshot"),
        Flag::text("--baseline", "FILE", "gate against this snapshot"),
        Flag::parsed::<f64>("--gate", "PCT", "allowed median growth (default 20)"),
        Flag::parsed::<u32>("--warmup", "N", "warmup iterations per suite"),
        Flag::parsed::<u32>("--iters", "N", "measured iterations per suite"),
        Flag::text("--only", "A,B", "run only these suites"),
        Flag::switch("--profile", "first profile one small run as a span tree"),
        Flag::text("--flame", "FILE", "--profile, collapsed stacks to FILE"),
        Flag::text("--profile-json", "FILE", "--profile, span tree as JSON"),
        QUIET,
    ],
    subcommands: &[],
    run: run_bench_mode,
};

fn run_bench_mode(args: &Args) -> Result<(), Box<dyn Error>> {
    use dram_perf::{gate, run_all, BenchConfig, PerfSnapshot, SharedProfiler};

    let quiet = args.has("--quiet");
    let defaults = BenchConfig::default();
    let config = BenchConfig {
        warmup: args.value("--warmup").unwrap_or(defaults.warmup),
        iters: args.value("--iters").unwrap_or(defaults.iters),
    };
    let wanted: Option<Vec<&str>> = args.text("--only").map(|only| {
        only.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect()
    });
    for name in wanted.iter().flatten() {
        if !dramscope_bench::perf_suites::SUITE_NAMES.contains(name) {
            return usage(format!(
                "unknown suite '{name}' (try one of: {:?})",
                dramscope_bench::perf_suites::SUITE_NAMES
            ));
        }
    }
    let save = args.text("--save");
    let baseline = args.text("--baseline");
    let threshold = args.value("--gate");
    if threshold.is_some() && baseline.is_none() {
        return usage("--gate needs --baseline FILE to compare against");
    }
    let flame_path = args.text("--flame");
    let profile_json_path = args.text("--profile-json");

    let mut benches = dramscope_bench::perf_suites::suites();
    if let Some(wanted) = &wanted {
        benches.retain(|b| wanted.iter().any(|w| *w == b.name));
    }

    // Optional profiled run: one small characterization with the span
    // profiler riding the command sink, before the timed suites so the
    // tree never includes bench-harness noise.
    if args.has("--profile") || flame_path.is_some() || profile_json_path.is_some() {
        let profiler = SharedProfiler::new();
        // The shared name table's options, so CLI and daemon agree.
        let (profile, opts) = named_job("test_small")?;
        let seed = experiments::SEED;
        characterize_instrumented(&profile, seed, opts, Some(profiler.sink()))?;
        let tree = profiler.finish();
        if !quiet {
            println!("Span profile (test_small characterization):");
            print!("{}", tree.to_text());
            println!();
        }
        if let Some(path) = flame_path {
            std::fs::write(path, tree.to_collapsed())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote collapsed stacks to {path} (feed to flamegraph.pl)");
        }
        if let Some(path) = profile_json_path {
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
    if let Some(path) = save {
        snapshot.save(path).map_err(|e| e.to_string())?;
        println!("saved snapshot to {path}");
    }
    if let Some(baseline_path) = baseline {
        let baseline = PerfSnapshot::load(baseline_path).map_err(|e| e.to_string())?;
        let report = gate::compare(&baseline, &snapshot, threshold.unwrap_or(20.0))
            .map_err(|e| e.to_string())?;
        println!("{report}");
        if report.failed() {
            std::process::exit(1);
        }
    }
    Ok(())
}

/// `serve` runs the `dramscoped` daemon in-process, through the same
/// front-end as the `dramscoped` binary.
const SERVE: Command = ServeConfig::command("characterize serve");

const DIFF: Command = Command {
    name: "characterize diff",
    about: "Compares two traces structurally (exit 1 when they differ).",
    operands: &["<A>", "<B>"],
    needs: "two trace files",
    flags: &[SEGMENT, BANK],
    subcommands: &[],
    run: run_diff_mode,
};

fn run_diff_mode(args: &Args) -> Result<(), Box<dyn Error>> {
    let a = args.operand(0).unwrap_or_default();
    let b = args.operand(1).unwrap_or_default();
    // The same filter applies to both sides, so a diff scoped to one
    // phase or bank compares exactly the events both traces keep.
    let filter = SegmentFilter::from_args(args);
    let (ta, _, _) = load_filtered_trace(a, &filter)?;
    let (tb, _, _) = load_filtered_trace(b, &filter)?;
    let diff = diff_traces(&ta, &tb);
    println!("{diff}");
    if !diff.identical() {
        std::process::exit(1);
    }
    Ok(())
}

const DUMP: Command = Command {
    name: "characterize dump",
    about: "Renders a trace as text, one event per line.",
    operands: &["<FILE>"],
    needs: "a trace file",
    flags: &[SEGMENT, BANK],
    subcommands: &[],
    run: run_dump_mode,
};

fn run_dump_mode(args: &Args) -> Result<(), Box<dyn Error>> {
    let path = args.operand(0).unwrap_or_default();
    let filter = SegmentFilter::from_args(args);
    let text = if filter.is_active() {
        dump_filtered(path, &filter)?
    } else {
        load_trace(path)?.dump()
    };
    print_piped(&text)
}

/// Filtered dump: only the selected segments are decoded, and every
/// event line keeps its global index in the full stream so filtered and
/// unfiltered dumps line up.
fn dump_filtered(path: &str, filter: &SegmentFilter) -> Result<String, Box<dyn Error>> {
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

/// `index` carries the v1 payload bytes over unchanged, so digests and
/// replay are unaffected.
const INDEX: Command = Command {
    name: "characterize index",
    about: "Upgrades a trace to the v2 indexed container.\n\
            Prints the segment table; the v1 payload bytes are carried over\n\
            unchanged.",
    operands: &["<FILE>"],
    needs: "a trace file",
    flags: &[Flag::text("--out", "FILE", "default: <name>.v2.trace")],
    subcommands: &[],
    run: run_index_mode,
};

fn run_index_mode(args: &Args) -> Result<(), Box<dyn Error>> {
    let path = args.operand(0).unwrap_or_default();
    let stem = path.strip_suffix(".trace").unwrap_or(path);
    let out = match args.text("--out") {
        Some(out) => out.to_string(),
        None => format!("{stem}.v2.trace"),
    };
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
        let banks: Vec<String> = seg.banks.iter().map(u32::to_string).collect();
        t.row(vec![
            i.to_string(),
            seg.label.clone(),
            seg.offset.to_string(),
            seg.len.to_string(),
            seg.events.to_string(),
            if banks.is_empty() {
                "-".into()
            } else {
                banks.join(",")
            },
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
    print_piped(&text)
}

/// Splits a comma-separated flag value, rejecting empty entries.
fn parse_list_flag(args: &Args, flag: &str) -> Result<Option<Vec<String>>, Box<dyn Error>> {
    let Some(raw) = args.text(flag) else {
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

/// `query` prunes non-matching segments by their index metadata before
/// decoding.
const QUERY: Command = Command {
    name: "characterize query",
    about: "Finds the events of one trace, or of a directory, that match.\n\
            Segments whose index metadata cannot match are never decoded; exit 1\n\
            when nothing matches.",
    operands: &["<PATH>"],
    needs: "a trace file or directory",
    flags: &[
        Flag::text("--bank", "LIST", "only these banks (a,b,...)"),
        Flag::text("--cmd", "LIST", "only these command mnemonics"),
        Flag::text("--marker", "PREFIX", "only segments whose label has PREFIX"),
        Flag::parsed::<u64>("--from-ps", "N", "only events at or after N ps"),
        Flag::parsed::<u64>("--to-ps", "N", "only events at or before N ps"),
        Flag::parsed::<u64>("--min-count", "N", "segments need N+ matches (default 1)"),
        Flag::parsed::<u64>("--max-count", "N", "segments need at most N matches"),
        Flag::switch("--json", "print the report as JSON"),
        Flag::switch("--csv", "print the hits as CSV"),
    ],
    subcommands: &[],
    run: run_query_mode,
};

fn run_query_mode(args: &Args) -> Result<(), Box<dyn Error>> {
    let path = args.operand(0).unwrap_or_default();
    let mut banks = Vec::new();
    for item in parse_list_flag(args, "--bank")?.iter().flatten() {
        match item.parse::<u32>() {
            Ok(b) => banks.push(b),
            Err(e) => return usage(format!("invalid --bank value '{item}': {e}")),
        }
    }
    let mnemonics = parse_list_flag(args, "--cmd")?;
    for m in mnemonics.iter().flatten() {
        if !SEGMENT_MNEMONICS.contains(&m.as_str()) {
            let known = SEGMENT_MNEMONICS.join(", ");
            return usage(format!("unknown --cmd '{m}' (try one of: {known})"));
        }
    }
    let query = Query {
        from_ps: args.value("--from-ps"),
        to_ps: args.value("--to-ps"),
        banks: args.has("--bank").then_some(banks),
        mnemonics,
        marker_prefix: args.text("--marker").map(String::from),
        min_count: args.value("--min-count"),
        max_count: args.value("--max-count"),
    };
    if let (Some(from), Some(to)) = (query.from_ps, query.to_ps) {
        if from > to {
            return usage(format!("--from-ps {from} is after --to-ps {to}"));
        }
    }
    let report = dram_trace::query_path(Path::new(path), &query)?;

    let out = if args.has("--json") {
        format!("{}\n", report.to_json())
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
        if args.has("--csv") {
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
    print_piped(&out)?;
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

/// `events` salvages around corrupt journal lines (reported to stderr
/// with their 1-based line numbers); they are never fatal.
const EVENTS: Command = Command {
    name: "characterize events",
    about: "Reads back a journal written with --journal.\n\
            Prints the matching event lines and every job's queued/started/\n\
            finished/panicked lifecycle (exit 1 when one is unmatched).",
    operands: &["<JOURNAL>"],
    needs: "a journal file",
    flags: &[
        Flag::text("--sev", "LEVEL", "only this severity or worse"),
        Flag::text("--job", "ID", "only this job's events"),
        Flag::text("--kind", "PREFIX", "only kinds starting with PREFIX"),
        Flag::parsed::<u64>("--since-seq", "N", "only events numbered N or later"),
        Flag::parsed::<u64>("--until-seq", "N", "only events numbered N or earlier"),
        Flag::parsed::<usize>("--tail", "N", "only the last N matching events"),
        Flag::switch("--stable", "render without the wall-clock keys"),
        Flag::switch("--quiet", "print only the lifecycle summary"),
    ],
    subcommands: &[],
    run: run_events_mode,
};

fn run_events_mode(args: &Args) -> Result<(), Box<dyn Error>> {
    let path = args.operand(0).unwrap_or_default();
    let sev = args.text("--sev").unwrap_or("debug");
    let Some(sev) = Severity::parse(sev) else {
        return usage(format!(
            "invalid --sev '{sev}' (try debug, info, warn, error)"
        ));
    };
    let job = args.text("--job");
    let kind = args.text("--kind");
    let since_seq = args.value("--since-seq").unwrap_or(0);
    let until_seq = args.value("--until-seq").unwrap_or(u64::MAX);
    let tail = args.value::<usize>("--tail");
    let stable = args.has("--stable");
    let quiet = args.has("--quiet");

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
                && job.is_none_or(|j| e.job_id.as_deref() == Some(j))
                && kind.is_none_or(|k| e.kind.starts_with(k))
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

    print_piped(&out)?;
    if unmatched > 0 {
        std::process::exit(1);
    }
    Ok(())
}

/// The profile run: a Table I preset only, because it forces the
/// swizzle probe, which the small test profiles are too short for.
fn run_profile(args: &Args) -> Result<(), Box<dyn Error>> {
    let name = args.operand(0).unwrap_or("default");
    let Some((profile, mut opts)) = profiles::preset_job(name) else {
        let commands: Vec<&str> = CHARACTERIZE.subcommands.iter().map(|c| c.word()).collect();
        return usage(format!(
            "unknown command or profile '{name}' (try one of: {}, {})",
            profiles::PRESET_NAMES.join(", "),
            commands.join(", ")
        ));
    };
    let quiet = args.has("--quiet");
    let journal = Journal::open(args.text("--journal").map(Path::new))?;
    opts.with_swizzle = true;
    let seed = experiments::SEED;
    start_job(&journal, name, seed);
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
    if !quiet {
        print!("{dossier}");
        print_run_report(&stats);
    }
    emit(args, &metrics)?;
    Ok(())
}
