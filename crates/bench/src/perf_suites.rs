//! The named performance suites behind `characterize bench`.
//!
//! Each suite wraps one of the repo's hot paths in a [`dram_perf::Bench`]
//! closure: the raw chip command loop, an end-to-end characterization,
//! the fleet engine (serial and parallel over the same jobs), trace
//! record/replay/decode (serial and indexed-parallel), a trace-lake
//! query, and the telemetry snapshot renderer. Every
//! workload runs on the small test profiles so a full run finishes in
//! seconds; the point is relative timing between runs of the same
//! machine, not absolute numbers.
//!
//! Suite names are the stable keys in `BENCH_*.json` — renaming one
//! reads as a `MISSING` + `new` pair to the regression gate, so treat
//! names as schema.

use dram_perf::Bench;
use dram_sim::{ChipProfile, Command, DramChip, Time};
use dramscope_core::dossier::{characterize_instrumented, CharacterizeOptions};
use dramscope_core::fleet::{self, FleetConfig, FleetJob};
use dramscope_core::shard::{self, ShardConfig};
use dramscope_core::trace_run;

/// The probe options every suite uses: shallow scan, interior probe
/// range, no swizzle recovery — the cheapest characterization that still
/// exercises every phase.
fn small_opts() -> CharacterizeOptions {
    CharacterizeOptions {
        scan_rows: 129,
        with_swizzle: false,
        probe_range: (44, 60),
        retention_wait: Time::from_ms(120_000),
    }
}

/// The fleet jobs the `fleet_serial` / `fleet_parallel` suites run: the
/// same four small-profile population the fleet engine's own tests use.
fn small_fleet_jobs() -> Vec<FleetJob> {
    let opts = small_opts();
    vec![
        FleetJob {
            profile: ChipProfile::test_small(),
            opts,
        },
        FleetJob {
            profile: ChipProfile::test_small_coupled(),
            opts,
        },
        FleetJob {
            profile: ChipProfile::test_small().with_trr(2),
            opts,
        },
        FleetJob {
            profile: ChipProfile::test_small().with_on_die_ecc(),
            opts,
        },
    ]
}

/// The seed every suite derives from, so runs are comparable.
const SEED: u64 = 0xbe9c;

/// The stable suite names, in the order [`suites`] builds them.
pub const SUITE_NAMES: [&str; 12] = [
    "chip_command_loop",
    "characterize_small",
    "characterize_sharded",
    "fleet_serial",
    "fleet_parallel",
    "trace_record",
    "trace_replay",
    "trace_replay_fast",
    "trace_decode",
    "trace_decode_parallel",
    "trace_query",
    "metrics_snapshot",
];

/// Builds every named suite. The setup work (one recorded
/// characterization shared by the replay/decode/snapshot suites) runs
/// here, outside any timed region.
///
/// # Panics
///
/// If the setup characterization of `test_small` fails — that is a
/// simulator bug, not a runtime condition a caller can handle.
pub fn suites() -> Vec<Bench> {
    // Shared setup: one recorded run feeds trace_replay, trace_decode,
    // and metrics_snapshot.
    let (_, _, trace, registry) = trace_run::record_characterization_instrumented(
        &ChipProfile::test_small(),
        SEED,
        small_opts(),
    )
    .expect("characterizing the small test profile cannot fail");
    let trace_bytes = trace.to_bytes();
    let indexed_bytes = trace.to_bytes_indexed();

    vec![
        chip_command_loop(),
        characterize_small(),
        characterize_sharded(),
        fleet_serial(),
        fleet_parallel(),
        trace_record(),
        trace_replay(trace.clone()),
        trace_replay_fast(trace.clone()),
        trace_decode(trace_bytes),
        trace_decode_parallel(indexed_bytes.clone()),
        trace_query(indexed_bytes),
        metrics_snapshot(registry),
    ]
}

/// Raw command-issue throughput: ACT → RD → PRE over every row of a
/// bank at legal DDR4 spacing on a bare small chip — the tightest loop
/// in the simulator, and the reproduction's analogue of DRAM Bender's
/// headline quantity (how fast commands reach the device). The full
/// 2048-row sweep keeps one iteration in the milliseconds, where the
/// median is stable enough to gate on.
fn chip_command_loop() -> Bench {
    let mut chip = DramChip::new(ChipProfile::test_small(), SEED);
    let rows = chip.profile().rows_per_bank;
    let mut at = chip.now();
    Bench::new("chip_command_loop", move || {
        let t = *chip.timing();
        let mut issued = 0u64;
        for row in 0..rows {
            at += t.trp;
            let sequence = [
                (Command::Activate { bank: 0, row }, t.trcd),
                (
                    Command::Read { bank: 0, col: 0 },
                    t.tras
                        .checked_sub(t.trcd)
                        .expect("tRAS covers tRCD in every profile"),
                ),
                (Command::Precharge { bank: 0 }, Time::ZERO),
            ];
            for (cmd, advance) in sequence {
                let data = chip
                    .issue(cmd, at)
                    .expect("legally spaced command sequence is accepted");
                std::hint::black_box(data);
                issued += 1;
                at += advance;
            }
        }
        issued
    })
}

/// One full (small) characterization, end to end: every probe phase on a
/// fresh chip per iteration.
fn characterize_small() -> Bench {
    Bench::new("characterize_small", move || {
        let (dossier, stats, _) =
            characterize_instrumented(&ChipProfile::test_small(), SEED, small_opts(), None)
                .expect("characterizing the small test profile cannot fail");
        std::hint::black_box(dossier);
        stats.commands()
    })
}

/// Bank-sharded characterization of the 4-bank HBM2 test profile on the
/// machine's available parallelism — one shard per bank, merged in bank
/// order. Read against `characterize_small` (one bank's worth of work)
/// to see the intra-device speedup the sharded path buys.
fn characterize_sharded() -> Bench {
    Bench::new("characterize_sharded", move || {
        let report = shard::characterize_sharded(
            &ChipProfile::test_small_hbm2(),
            SEED,
            small_opts(),
            ShardConfig::default(),
        );
        assert!(report.all_ok(), "{}", report.table());
        let commands = report.results.iter().map(|r| r.stats.commands()).sum();
        std::hint::black_box(report);
        commands
    })
}

/// The four-job fleet, strictly serial — the baseline the parallel
/// suite's median is compared against to read the machine's speedup.
fn fleet_serial() -> Bench {
    let jobs = small_fleet_jobs();
    Bench::new("fleet_serial", move || {
        let report = fleet::run_fleet(&jobs, SEED, FleetConfig { workers: 1 }, None);
        let commands = report.results.iter().map(|r| r.stats.commands()).sum();
        std::hint::black_box(report);
        commands
    })
}

/// The same four-job fleet on the machine's available parallelism.
fn fleet_parallel() -> Bench {
    let jobs = small_fleet_jobs();
    Bench::new("fleet_parallel", move || {
        let report = fleet::run_fleet(&jobs, SEED, FleetConfig::default(), None);
        let commands = report.results.iter().map(|r| r.stats.commands()).sum();
        std::hint::black_box(report);
        commands
    })
}

/// Characterization with the trace recorder attached — measures the
/// capture overhead relative to `characterize_small`.
fn trace_record() -> Bench {
    Bench::new("trace_record", move || {
        let (_, stats, trace, _) = trace_run::record_characterization_instrumented(
            &ChipProfile::test_small(),
            SEED,
            small_opts(),
        )
        .expect("recording the small test profile cannot fail");
        std::hint::black_box(trace);
        stats.commands()
    })
}

/// Verified deterministic replay of a recorded characterization.
fn trace_replay(trace: dram_trace::Trace) -> Bench {
    Bench::new("trace_replay", move || {
        let (_, stats, _) = trace_run::replay_characterization_instrumented(&trace)
            .expect("replaying a just-recorded trace cannot fail");
        stats.commands()
    })
}

/// Trusted fast-path replay of the same recorded characterization:
/// the identical drive loop minus the per-event outcome comparison.
/// Read against `trace_replay` to see what verification costs.
fn trace_replay_fast(trace: dram_trace::Trace) -> Bench {
    let profile = ChipProfile::test_small();
    Bench::new("trace_replay_fast", move || {
        let stats = dram_trace::replay_on_chip_trusted(&trace, &profile)
            .expect("trusted replay of a just-recorded trace cannot fail");
        stats.commands
    })
}

/// Decoding the binary trace format (bytes → events), no simulation.
fn trace_decode(bytes: Vec<u8>) -> Bench {
    Bench::new("trace_decode", move || {
        let trace = dram_trace::Trace::from_bytes(&bytes)
            .expect("decoding a just-encoded trace cannot fail");
        let events = trace.events.len() as u64;
        std::hint::black_box(trace);
        events
    })
}

/// Parallel per-segment decode of the v2 indexed container on the
/// machine's available parallelism. Read against `trace_decode` (the
/// serial whole-stream decode of the same events) to see what the
/// segment index buys; on a one-core host parity is the expectation.
fn trace_decode_parallel(bytes: Vec<u8>) -> Bench {
    Bench::new("trace_decode_parallel", move || {
        let indexed = dram_trace::IndexedTrace::from_bytes(&bytes)
            .expect("opening a just-encoded container cannot fail");
        let trace = indexed
            .decode_parallel(0)
            .expect("decoding a just-encoded container cannot fail");
        let events = trace.events.len() as u64;
        std::hint::black_box(trace);
        events
    })
}

/// A trace-lake query over the indexed container: open, prune by
/// segment metadata, decode only the matching segments, count matches.
/// "Commands" counts the events the query actually matched, so a silent
/// predicate regression shows up as a work-count change, not just a
/// timing one.
fn trace_query(bytes: Vec<u8>) -> Bench {
    let query = dram_trace::Query {
        banks: Some(vec![0]),
        mnemonics: Some(vec!["act".into()]),
        marker_prefix: Some("phase:".into()),
        ..dram_trace::Query::default()
    };
    Bench::new("trace_query", move || {
        let report = dram_trace::query_bytes("bench.trace", &bytes, &query)
            .expect("querying a just-encoded container cannot fail");
        assert!(report.is_match(), "bench query matched nothing");
        std::hint::black_box(report).matched
    })
}

/// Rendering a populated registry to its byte-stable JSON-lines
/// snapshot; "commands" here counts snapshot lines rendered.
fn metrics_snapshot(registry: dram_telemetry::Registry) -> Bench {
    Bench::new("metrics_snapshot", move || {
        let rendered = registry.to_json_lines();
        let lines = rendered.lines().count() as u64;
        std::hint::black_box(rendered);
        lines
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_perf::{run_all, BenchConfig};

    #[test]
    fn suite_names_match_the_built_suites_in_order() {
        let names: Vec<String> = suites().into_iter().map(|b| b.name).collect();
        assert_eq!(names, SUITE_NAMES);
    }

    #[test]
    fn every_suite_runs_under_the_smoke_config_and_reports_work() {
        let mut benches = suites();
        let results = run_all(&mut benches, BenchConfig::smoke());
        assert_eq!(results.len(), SUITE_NAMES.len());
        for r in &results {
            assert!(r.commands > 0, "{} reported no work", r.name);
            assert_eq!(r.stats.n, 1, "{}", r.name);
        }
        // The command-loop suite issues exactly 3 commands per row over
        // the whole bank.
        let loop_result = results
            .iter()
            .find(|r| r.name == "chip_command_loop")
            .unwrap();
        let rows = u64::from(ChipProfile::test_small().rows_per_bank);
        assert_eq!(loop_result.commands, rows * 3);
    }
}
