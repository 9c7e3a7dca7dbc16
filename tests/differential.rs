//! Cross-crate differential proof: the flat-state `DramChip` and the
//! frozen map-backed `RefChip` oracle (`dram-sim`'s `ref-model` feature)
//! must be indistinguishable through every observable boundary the stack
//! exposes — the serialized trace bytes a recorded run produces, the
//! rendered metrics snapshot, and the verified-replay path.
//!
//! The in-crate fuzz (`dram-sim`'s `difftest` module) compares results
//! call by call; this test goes one level up and compares the *artifacts*
//! two identically-driven runs leave behind, byte for byte. Combined with
//! `preset_digests` (dossier digests pinned before the refactor), a pass
//! means no consumer of any chip output can tell the implementations
//! apart.
//!
//! The AIB fuzz aims at the per-cell disturbance pass: seeded patterns
//! around seeded aggressors (edge-subarray rows and their tandem
//! companions included), hammer and press bursts of seeded doses, and a
//! read of every written row, so every flip-probability context the
//! victims see is checked against the oracle's uncached evaluation.

use dramscope::sim::refchip::RefChip;
use dramscope::sim::rng::StreamRng;
use dramscope::sim::{
    BankLayout, ChipProfile, ChipStats, Command, CommandError, DramChip, ReadData, SharedMetrics,
    SubarrayId, Tee, Time, Wordline,
};
use dramscope::trace::{replay_on_chip, replay_on_chip_trusted, SharedRecorder, Trace};
use std::fmt::Debug;

/// One operation of the randomized workload. Timestamps for bursts are
/// resolved at apply time (a burst's end time feeds the next op), so ops
/// carry *gaps*, not absolute times.
#[derive(Debug, Clone, Copy)]
enum Op {
    Issue(Command),
    Burst { bank: u32, row: u32, count: u64 },
    RefreshWindow,
    SetTemperature(f64),
    Mark,
}

/// Builds the deterministic randomized workload for one profile/seed:
/// legal sequences, timing violations, out-of-range addresses, bursts,
/// refresh windows, temperature swings.
fn workload(profile: &ChipProfile, seed: u64) -> Vec<(Time, Op)> {
    let banks = u64::from(profile.banks);
    let rows = u64::from(profile.rows_per_bank);
    let cols = u64::from(profile.cols_per_row());
    let timing = profile.timing;
    let mut rng = StreamRng::new(seed ^ 0x7ACE_D1FF);
    let pick = |rng: &mut StreamRng, bound: u64| -> u32 {
        u32::try_from(rng.next_below(bound + 1)).expect("address fits u32")
    };

    let mut ops = Vec::with_capacity(300);
    for _ in 0..300 {
        let gap = match rng.next_below(6) {
            0 => Time::ZERO,
            1 => timing.tck,
            2 => timing.trcd,
            3 => timing.trp,
            4 => timing.tras + timing.trp,
            _ => Time::from_us(20),
        };
        let bank = pick(&mut rng, banks);
        let op = match rng.next_below(10) {
            0..=2 => Op::Issue(Command::Activate {
                bank,
                row: pick(&mut rng, rows),
            }),
            3..=4 => Op::Issue(Command::Read {
                bank,
                col: pick(&mut rng, cols),
            }),
            5 => Op::Issue(Command::Write {
                bank,
                col: pick(&mut rng, cols),
                data: rng.next_u64(),
            }),
            6..=7 => Op::Issue(Command::Precharge { bank }),
            8 => Op::Burst {
                bank,
                row: pick(&mut rng, rows - 1),
                count: rng.next_below(1_500) + 1,
            },
            _ => {
                if rng.next_below(4) == 0 {
                    Op::SetTemperature(20.0 + rng.next_unit() * 60.0)
                } else if rng.next_below(8) == 0 {
                    Op::Mark
                } else {
                    Op::RefreshWindow
                }
            }
        };
        ops.push((gap, op));
    }
    ops
}

/// The artifacts one identically-driven run leaves behind.
struct Recorded {
    trace: Trace,
    metrics_snapshot: String,
}

/// Applies the workload to either chip implementation. The two chips
/// expose the same entry-point surface but deliberately share no trait
/// (the oracle is a frozen verbatim copy), so the drive loop is a macro
/// instantiated once per type.
macro_rules! record_run {
    ($chip_ty:ty, $profile:expr, $seed:expr) => {{
        let profile: &ChipProfile = $profile;
        let seed: u64 = $seed;
        let recorder = SharedRecorder::unbounded();
        let metrics = SharedMetrics::new();
        let mut chip = <$chip_ty>::new(profile.clone(), seed);
        chip.set_sink(Box::new(Tee {
            first: recorder.sink(),
            second: metrics.clone(),
        }));
        let timing = *chip.timing();
        chip.mark("phase:differential");
        let mut t = Time::from_ns(100);
        for (gap, op) in workload(profile, seed) {
            t += gap;
            match op {
                Op::Issue(cmd) => {
                    let _ = chip.issue(cmd, t);
                }
                Op::Burst { bank, row, count } => {
                    if let Ok(end) = chip.activate_burst(bank, row, count, timing.tras, t) {
                        t = end + timing.trp;
                    }
                }
                Op::RefreshWindow => {
                    let _ = chip.refresh_window(t);
                }
                Op::SetTemperature(c) => chip.set_temperature(c),
                Op::Mark => chip.mark("fuzz-op"),
            }
        }
        chip.clear_sink();
        Recorded {
            trace: recorder.finish(profile, seed),
            metrics_snapshot: metrics.take_registry().to_json_lines(),
        }
    }};
}

#[test]
fn flat_and_oracle_runs_leave_identical_artifacts() {
    for (name, profile) in [
        ("small", ChipProfile::test_small()),
        ("coupled", ChipProfile::test_small_coupled()),
        ("ecc", ChipProfile::test_small().with_on_die_ecc()),
    ] {
        let seed = 0xD1FF ^ name.len() as u64;
        let flat: Recorded = record_run!(DramChip, &profile, seed);
        let oracle: Recorded = record_run!(RefChip, &profile, seed);

        assert_eq!(
            flat.trace.to_bytes(),
            oracle.trace.to_bytes(),
            "{name}: trace bytes diverged"
        );
        assert_eq!(
            flat.metrics_snapshot, oracle.metrics_snapshot,
            "{name}: metrics snapshots diverged"
        );

        // The oracle-recorded stream must verify bit-for-bit against the
        // flat chip (replay always runs on the production `DramChip`),
        // and the trusted fast path must reconstruct the same end state.
        let verified = replay_on_chip(&oracle.trace, &profile).expect("oracle trace verifies");
        let trusted =
            replay_on_chip_trusted(&oracle.trace, &profile).expect("trusted replay succeeds");
        assert_eq!(trusted.commands, verified.commands, "{name}");
        assert_eq!(trusted.bitflips, verified.bitflips, "{name}");
    }
}

/// One step of the AIB fuzz, in pin-level addresses.
#[derive(Debug, Clone)]
enum AibOp {
    /// Write one word per column into a row.
    Write {
        bank: u32,
        row: u32,
        words: Vec<u64>,
    },
    /// `count` activations of `row`, each held open for `each_on`.
    Burst {
        bank: u32,
        row: u32,
        count: u64,
        each_on: Time,
    },
    /// Read every column of a row.
    Read {
        bank: u32,
        row: u32,
    },
    RefreshWindow,
}

/// Aggressors drawn per profile; half of them sit in edge subarrays.
const AIB_AGGRESSORS: usize = 8;

/// The seeded AIB workload for one profile: patterns written to every
/// row within ±3 wordlines of each aggressor and of its tandem
/// companion, then two rounds of bursts, a read of every written row and
/// a refresh window. Targets are chosen in wordline space from the
/// chip's ground truth and mapped back to pin rows, so remapped and
/// coupled chips are attacked where it counts.
fn aib_workload(profile: &ChipProfile, seed: u64) -> Vec<AibOp> {
    let truth = DramChip::new(profile.clone(), seed).ground_truth();
    let geom = profile.bank_geometry();
    let wls = geom.wordlines();
    let layout = BankLayout::build(wls, truth.edge_interval_wls, &truth.composition);
    let edges: Vec<SubarrayId> = (0..layout.subarray_count())
        .map(SubarrayId)
        .filter(|&sa| layout.info(sa).is_edge())
        .collect();
    let pin = |wl: u32, half: u32| truth.remap.to_logical(geom.unfold(Wordline(wl), half)).0;
    let below = |rng: &mut StreamRng, bound: u32| -> u32 {
        u32::try_from(rng.next_below(u64::from(bound))).expect("bound fits u32")
    };
    let cols = profile.cols_per_row() as usize;
    let tras = profile.timing.tras;
    let mut rng = StreamRng::new(seed ^ 0xA1B_F022);

    let mut targets: Vec<(u32, u32)> = Vec::new();
    let mut bursts = Vec::new();
    for n in 0..AIB_AGGRESSORS {
        let bank = below(&mut rng, profile.banks);
        let aggressor = if n % 2 == 0 {
            below(&mut rng, wls)
        } else {
            let edge = layout.info(edges[rng.next_below(edges.len() as u64) as usize]);
            edge.start_wl + below(&mut rng, edge.height)
        };
        let companion = layout.companion_wordline(Wordline(aggressor));
        for centre in std::iter::once(aggressor).chain(companion.map(|c| c.0)) {
            for wl in centre.saturating_sub(3)..=(centre + 3).min(wls - 1) {
                for half in 0..geom.rows_per_wordline {
                    if !targets.contains(&(bank, pin(wl, half))) {
                        targets.push((bank, pin(wl, half)));
                    }
                }
            }
        }
        let row = pin(aggressor, below(&mut rng, geom.rows_per_wordline));
        for _ in 0..2 {
            bursts.push(if rng.next_below(2) == 0 {
                AibOp::Burst {
                    bank,
                    row,
                    count: 200_000 + rng.next_below(2_800_000),
                    each_on: tras,
                }
            } else {
                AibOp::Burst {
                    bank,
                    row,
                    count: 2_000 + rng.next_below(8_000),
                    each_on: Time::from_ns(7_800 * (1 + rng.next_below(4))),
                }
            });
        }
    }

    let mut ops: Vec<AibOp> = targets
        .iter()
        .map(|&(bank, row)| {
            let words = match rng.next_below(3) {
                0 => (0..cols).map(|_| rng.next_u64()).collect(),
                1 => vec![rng.next_u64(); cols],
                _ => vec![if rng.next_below(2) == 0 { 0 } else { u64::MAX }; cols],
            };
            AibOp::Write { bank, row, words }
        })
        .collect();
    for round in 0..2 {
        ops.extend(bursts.iter().skip(round).step_by(2).cloned());
        ops.extend(targets.iter().map(|&(bank, row)| AibOp::Read { bank, row }));
        ops.push(AibOp::RefreshWindow);
    }
    ops
}

/// Everything one AIB run lets an observer see.
struct AibRun {
    issues: Vec<Result<Option<ReadData>, CommandError>>,
    bursts: Vec<Result<Time, CommandError>>,
    refreshes: Vec<Result<(), CommandError>>,
    now: Time,
    stats: ChipStats,
    metrics_snapshot: String,
}

/// Drives the AIB workload through either chip implementation (the
/// oracle shares no trait with the production chip, hence a macro).
macro_rules! aib_run {
    ($chip_ty:ty, $profile:expr, $seed:expr, $ops:expr) => {{
        let profile: &ChipProfile = $profile;
        let metrics = SharedMetrics::new();
        let mut chip = <$chip_ty>::new(profile.clone(), $seed);
        chip.set_sink(Box::new(metrics.clone()));
        let timing = *chip.timing();
        let cols = profile.cols_per_row();
        let mut run = AibRun {
            issues: Vec::new(),
            bursts: Vec::new(),
            refreshes: Vec::new(),
            now: Time::ZERO,
            stats: ChipStats::default(),
            metrics_snapshot: String::new(),
        };
        let mut t = Time::from_ns(100);
        for op in $ops {
            match op {
                AibOp::Write { bank, row, .. } | AibOp::Read { bank, row } => {
                    let (bank, row) = (*bank, *row);
                    run.issues
                        .push(chip.issue(Command::Activate { bank, row }, t));
                    let mut tc = t + timing.trcd;
                    for col in 0..cols {
                        let cmd = match op {
                            AibOp::Write { words, .. } => Command::Write {
                                bank,
                                col,
                                data: words[col as usize],
                            },
                            _ => Command::Read { bank, col },
                        };
                        run.issues.push(chip.issue(cmd, tc));
                        tc += timing.tck;
                    }
                    let tp = tc.max(t + timing.tras);
                    run.issues.push(chip.issue(Command::Precharge { bank }, tp));
                    t = tp + timing.trp;
                }
                AibOp::Burst {
                    bank,
                    row,
                    count,
                    each_on,
                } => {
                    let end = chip.activate_burst(*bank, *row, *count, *each_on, t);
                    if let Ok(end) = end {
                        t = end;
                    }
                    run.bursts.push(end);
                }
                AibOp::RefreshWindow => {
                    run.refreshes.push(chip.refresh_window(t));
                    t += timing.trfc;
                }
            }
        }
        chip.clear_sink();
        run.now = chip.now();
        run.stats = chip.stats();
        run.metrics_snapshot = metrics.take_registry().to_json_lines();
        run
    }};
}

/// Fails at the first position where two result streams differ.
fn assert_same<T: PartialEq + Debug>(label: &str, flat: &[T], oracle: &[T]) {
    assert_eq!(flat.len(), oracle.len(), "{label}: lengths differ");
    if let Some(i) = (0..flat.len()).find(|&i| flat[i] != oracle[i]) {
        panic!("{label} #{i}: flat {:?} != oracle {:?}", flat[i], oracle[i]);
    }
}

#[test]
fn flat_and_oracle_agree_on_seeded_aib_attacks() {
    for (name, profile) in [
        ("small", ChipProfile::test_small()),
        ("interleaved", ChipProfile::test_small_interleaved()),
        ("coupled", ChipProfile::test_small_coupled()),
        ("ecc", ChipProfile::test_small().with_on_die_ecc()),
    ] {
        let seed = 0xA1B ^ name.len() as u64;
        let ops = aib_workload(&profile, seed);
        let flat: AibRun = aib_run!(DramChip, &profile, seed, &ops);
        let oracle: AibRun = aib_run!(RefChip, &profile, seed, &ops);

        assert_same(&format!("{name}: issue"), &flat.issues, &oracle.issues);
        assert_same(&format!("{name}: burst"), &flat.bursts, &oracle.bursts);
        assert_same(
            &format!("{name}: refresh"),
            &flat.refreshes,
            &oracle.refreshes,
        );
        assert_eq!(flat.now, oracle.now, "{name}: clocks diverged");
        assert_eq!(flat.stats, oracle.stats, "{name}: stats diverged");
        assert_eq!(
            flat.metrics_snapshot, oracle.metrics_snapshot,
            "{name}: metrics snapshots diverged"
        );
        // The workload must actually reach the disturbance pass.
        assert!(flat.stats.bitflips > 0, "{name}: no bitflips");
        assert!(
            flat.issues.iter().all(Result::is_ok) && flat.bursts.iter().all(Result::is_ok),
            "{name}: the workload issues only legal commands"
        );
    }
}
