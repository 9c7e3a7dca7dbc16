//! Golden-trace workflows over whole characterizations: record a run into
//! a trace, replay it with full verification, and benchmark raw replay
//! throughput.
//!
//! The contract these functions implement is the regression invariant the
//! test suite and CI assert on:
//!
//! 1. [`record_characterization_instrumented`] runs the standard flow with
//!    a recorder attached to the primary testbed and stores the
//!    characterization options and the dossier digest in the trace header.
//! 2. [`replay_characterization_instrumented`] re-runs the *same* flow
//!    from nothing but the trace — profile found by label, options parsed
//!    back from header meta — while a verifier checks the live command
//!    stream against the recording event-by-event. The replayed dossier
//!    must render byte-identically (same digest).
//! 3. [`replay_benchmark`] re-drives a bare chip from the trace (no
//!    characterization logic at all) and reports commands/second through
//!    the same [`RunStats`] machinery the fleet engine uses.
//!
//! The sharded pair ([`record_characterization_sharded`],
//! [`replay_characterization_sharded`]) runs one task-engine task per
//! bank, each with its own recorder or verifier.

use crate::dossier::{
    characterize_instrumented, CharacterizeOptions, ChipDossier, PhaseStat, RunStats, Task,
};
use crate::error::CoreError;
use crate::fleet::run_tasks;
use crate::shard::{ShardConfig, ShardedDossier, ShardedReport};
use dram_sim::{ChipProfile, Time};
use dram_telemetry::Registry;
use dram_trace::{
    geometry_hash, replay_on_chip, SharedRecorder, SharedVerifier, Trace, TraceEvent,
};
use std::time::Instant;

/// Meta keys under which the recorders store the characterization options.
const META_SCAN_ROWS: &str = "scan_rows";
const META_WITH_SWIZZLE: &str = "with_swizzle";
const META_PROBE_LO: &str = "probe_lo";
const META_PROBE_HI: &str = "probe_hi";
const META_RETENTION_WAIT_PS: &str = "retention_wait_ps";
/// Meta key for the bank count of a sharded recording; its presence is
/// what marks a trace as sharded.
const META_SHARD_BANKS: &str = "shard_banks";

/// The marker label prefix every bank shard's stream opens with.
/// Canonically defined in `dram_trace` alongside the other
/// segment-boundary prefixes ([`dram_trace::DEFAULT_SEGMENT_PREFIXES`])
/// so the trace-lake index splits sharded streams exactly where
/// [`replay_characterization_sharded`] does.
pub use dram_trace::SHARD_MARKER_PREFIX;

/// Runs a full characterization with a recorder attached and returns the
/// dossier, its run stats, the captured trace, and the metrics
/// [`Registry`] collected live during the recorded run.
///
/// The trace header carries the profile label, seed, geometry hash, the
/// dossier digest, and the characterization options as meta pairs — i.e.
/// everything [`replay_characterization_instrumented`] needs to reproduce
/// and verify the run from the trace alone.
///
/// The recorder and the metrics sink ride the same testbed, so
/// `dram_trace::trace_metrics` over the returned trace reproduces the
/// returned registry byte-for-byte — the invariant `characterize stats`
/// builds on.
///
/// # Errors
///
/// Propagates characterization failures.
pub fn record_characterization_instrumented(
    profile: &ChipProfile,
    seed: u64,
    opts: CharacterizeOptions,
) -> Result<(ChipDossier, RunStats, Trace, Registry), CoreError> {
    let recorder = SharedRecorder::unbounded();
    let (dossier, stats, metrics) =
        characterize_instrumented(profile, seed, opts, Some(recorder.sink()))?;
    let mut trace = recorder.finish(profile, seed);
    trace.header.dossier_digest = Some(dossier.digest());
    trace.header.meta = opts_to_meta(&opts);
    Ok((dossier, stats, trace, metrics))
}

/// Records a bank-sharded characterization: every bank shard runs with
/// its own recorder, and the per-bank trace segments concatenate in bank
/// order into ONE device trace.
///
/// The byte-identity contract extends to the trace itself: because each
/// segment opens with its `shard:bank=N` marker, carries timestamps as
/// signed deltas, and segments merge in bank order, the returned trace's
/// bytes depend only on `(profile, seed, opts)` — never on the shard
/// count or completion order. The header stores the merged
/// [`ShardedDossier`] digest plus a `shard_banks` meta pair, which is
/// what [`replay_characterization_sharded`] keys on.
///
/// # Errors
///
/// Propagates the first failed bank's characterization error.
pub fn record_characterization_sharded(
    profile: &ChipProfile,
    seed: u64,
    opts: CharacterizeOptions,
    config: ShardConfig,
) -> Result<(ShardedDossier, Trace, Registry), CoreError> {
    let recorders: Vec<SharedRecorder> = (0..profile.banks)
        .map(|_| SharedRecorder::unbounded())
        .collect();
    let report = ShardedReport::run(profile, seed, opts, config, &|bank| {
        Some(recorders[bank].sink())
    });
    let sharded = report.dossier()?;
    let segments: Vec<Trace> = recorders
        .iter()
        .map(|recorder| recorder.finish(profile, seed))
        .collect();
    let mut trace = Trace::concat(&segments)
        .map_err(|e| CoreError::from(format!("merging shard traces failed: {e}")))?;
    trace.header.dossier_digest = Some(sharded.digest());
    trace.header.meta = opts_to_meta(&opts);
    trace
        .header
        .meta
        .push((META_SHARD_BANKS.into(), profile.banks.to_string()));
    Ok((sharded, trace, report.merged_metrics()))
}

/// Re-runs the sharded characterization a trace captured and verifies it
/// reproduces bit-for-bit.
///
/// The trace is split back into bank segments at the `shard:bank=`
/// markers [`record_characterization_sharded`] wrote; each segment is
/// replayed through the same bank-local flow with a verifier checking
/// every live command against the recording, and the merged dossier's
/// digest must equal the recorded one.
///
/// # Errors
///
/// Fails on traces without the `shard_banks` meta key, unknown profiles,
/// changed geometry, partial traces, segment-count mismatches, malformed
/// markers, segments out of bank order, command-stream divergence, and
/// digest mismatches.
pub fn replay_characterization_sharded(
    trace: &Trace,
) -> Result<(ShardedDossier, Registry), CoreError> {
    let profile = profile_for(trace)?;
    let opts = opts_from_meta(trace)?;
    let raw = trace
        .header
        .meta(META_SHARD_BANKS)
        .ok_or_else(|| CoreError::from("trace is not sharded (missing \"shard_banks\" meta)"))?;
    let n: usize = raw.parse().map_err(|_| {
        CoreError::from(format!(
            "trace meta \"shard_banks\" has unparseable value {raw:?}"
        ))
    })?;
    let segments = trace.split_at_markers(SHARD_MARKER_PREFIX);
    if segments.len() != n {
        return Err(format!(
            "sharded trace should split into {n} bank segments, got {}",
            segments.len()
        )
        .into());
    }
    // Segment i must be bank i's. The digest is optional in the format,
    // so without this a duplicated or reordered segment would replay
    // "verified" into a dossier that repeats or permutes banks.
    let mut tasks = Vec::with_capacity(n);
    for (i, segment) in segments.iter().enumerate() {
        let bank = segment_bank(segment)?;
        if bank as usize != i {
            return Err(format!(
                "sharded trace segment {i} opens with shard:bank={bank}, expected shard:bank={i}"
            )
            .into());
        }
        tasks.push(Task {
            profile: &profile,
            seed: trace.header.seed,
            opts,
            bank: Some(bank),
        });
    }
    let verifiers: Vec<SharedVerifier> = segments.iter().map(SharedVerifier::new).collect();
    drop(segments);
    let results = run_tasks(&tasks, 1, None, &|bank| Some(verifiers[bank].sink()));
    let mut banks = Vec::with_capacity(n);
    let mut registries = Vec::with_capacity(n);
    for (result, verifier) in results.into_iter().zip(&verifiers) {
        let bank = result.bank;
        let dossier = result.outcome?;
        verifier
            .finish()
            .map_err(|d| CoreError::from(format!("bank {bank} replay diverged from trace: {d}")))?;
        banks.push((bank, dossier));
        registries.push(result.metrics);
    }
    let sharded = ShardedDossier {
        label: profile.label(),
        banks,
    };
    if let Some(expected) = trace.header.dossier_digest {
        let got = sharded.digest();
        if got != expected {
            return Err(format!(
                "sharded dossier digest mismatch after replay: \
                 trace {expected:#018x}, replay {got:#018x}"
            )
            .into());
        }
    }
    Ok((sharded, Registry::merged(registries.iter())))
}

/// Reads which bank a shard segment belongs to from its opening marker.
fn segment_bank(segment: &Trace) -> Result<u32, CoreError> {
    let Some(TraceEvent::Marker { label }) = segment.events.first() else {
        return Err("shard segment does not open with a marker event".into());
    };
    label
        .strip_prefix(SHARD_MARKER_PREFIX)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| CoreError::from(format!("malformed shard marker {label:?}")))
}

/// Re-runs the characterization a trace captured and verifies it
/// reproduces bit-for-bit, returning the replayed dossier, its run stats
/// and the metrics [`Registry`] collected during the verified re-run.
///
/// The profile is resolved from the trace's label, the options from its
/// meta pairs. A [`SharedVerifier`] rides along on the primary testbed
/// and checks every live command (timestamp, payload, and outcome —
/// read data included) against the recording; afterwards the replayed
/// dossier's digest must equal the recorded one. The registry is
/// identical to what the original recorded run collected (and to
/// `dram_trace::trace_metrics` over the trace), since all three consume
/// the same event stream.
///
/// # Errors
///
/// Fails on unknown profile labels, changed geometry, partial traces,
/// malformed meta, any command-stream divergence, and digest mismatches.
pub fn replay_characterization_instrumented(
    trace: &Trace,
) -> Result<(ChipDossier, RunStats, Registry), CoreError> {
    let profile = profile_for(trace)?;
    let opts = opts_from_meta(trace)?;
    let verifier = SharedVerifier::new(trace);
    let (dossier, stats, metrics) =
        characterize_instrumented(&profile, trace.header.seed, opts, Some(verifier.sink()))?;
    verifier
        .finish()
        .map_err(|d| CoreError::from(format!("replay diverged from trace: {d}")))?;
    if let Some(expected) = trace.header.dossier_digest {
        let got = dossier.digest();
        if got != expected {
            return Err(format!(
                "dossier digest mismatch after replay: trace {expected:#018x}, replay {got:#018x}"
            )
            .into());
        }
    }
    Ok((dossier, stats, metrics))
}

/// Replays a trace `repeats` times on bare chips and reports throughput.
///
/// Each repetition is one `"replay"` phase in the returned [`RunStats`]:
/// wall time, pin-level commands executed (burst activations counted
/// individually), and bitflips resolved. Feeding these through the fleet
/// run-report table gives commands-replayed-per-second directly.
///
/// # Errors
///
/// Fails on unknown profile labels or any replay error.
pub fn replay_benchmark(trace: &Trace, repeats: u32) -> Result<RunStats, CoreError> {
    let profile = profile_for(trace)?;
    let mut stats = RunStats::default();
    for _ in 0..repeats.max(1) {
        let started = Instant::now();
        let replay = replay_on_chip(trace, &profile)
            .map_err(|e| CoreError::from(format!("trace replay failed: {e}")))?;
        stats.phases.push(PhaseStat {
            name: "replay",
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            commands: replay.commands,
            bitflips: replay.bitflips,
        });
    }
    Ok(stats)
}

/// Resolves and validates the chip profile a trace was recorded against.
fn profile_for(trace: &Trace) -> Result<ChipProfile, CoreError> {
    let label = &trace.header.profile_label;
    let profile = ChipProfile::by_label(label)
        .ok_or_else(|| CoreError::from(format!("trace profile {label:?} is not a known preset")))?;
    let hash = geometry_hash(&profile);
    if hash != trace.header.geometry_hash {
        return Err(format!(
            "profile {label:?} geometry changed since recording \
             (trace {:#018x}, current {hash:#018x})",
            trace.header.geometry_hash
        )
        .into());
    }
    if trace.header.dropped > 0 {
        return Err(format!(
            "trace is partial ({} events dropped by the recorder) and cannot be replayed",
            trace.header.dropped
        )
        .into());
    }
    Ok(profile)
}

fn opts_to_meta(opts: &CharacterizeOptions) -> Vec<(String, String)> {
    vec![
        (META_SCAN_ROWS.into(), opts.scan_rows.to_string()),
        (META_WITH_SWIZZLE.into(), opts.with_swizzle.to_string()),
        (META_PROBE_LO.into(), opts.probe_range.0.to_string()),
        (META_PROBE_HI.into(), opts.probe_range.1.to_string()),
        (
            META_RETENTION_WAIT_PS.into(),
            opts.retention_wait.as_ps().to_string(),
        ),
    ]
}

fn opts_from_meta(trace: &Trace) -> Result<CharacterizeOptions, CoreError> {
    fn field<T: std::str::FromStr>(trace: &Trace, key: &str) -> Result<T, CoreError> {
        let raw = trace
            .header
            .meta(key)
            .ok_or_else(|| CoreError::from(format!("trace meta is missing {key:?}")))?;
        raw.parse().map_err(|_| {
            CoreError::from(format!("trace meta {key:?} has unparseable value {raw:?}"))
        })
    }
    Ok(CharacterizeOptions {
        scan_rows: field(trace, META_SCAN_ROWS)?,
        with_swizzle: field(trace, META_WITH_SWIZZLE)?,
        probe_range: (field(trace, META_PROBE_LO)?, field(trace, META_PROBE_HI)?),
        retention_wait: Time::from_ps(field(trace, META_RETENTION_WAIT_PS)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_trace::TraceEvent;

    fn small_opts() -> CharacterizeOptions {
        CharacterizeOptions {
            scan_rows: 129,
            with_swizzle: false,
            probe_range: (44, 60),
            retention_wait: Time::from_ms(120_000),
        }
    }

    #[test]
    fn record_then_verify_replay_round_trips() {
        let profile = ChipProfile::test_small();
        let (dossier, _, trace, _) =
            record_characterization_instrumented(&profile, 123, small_opts()).expect("record");
        assert_eq!(trace.header.profile_label, profile.label());
        assert_eq!(trace.header.dossier_digest, Some(dossier.digest()));
        assert!(trace.events.len() > 100, "{} events", trace.events.len());
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Marker { label } if label == "phase:retention")));

        // Through bytes, then a full verified re-characterization.
        let decoded = Trace::from_bytes(&trace.to_bytes()).expect("decode");
        assert_eq!(decoded, trace);
        let (replayed, _, _) =
            replay_characterization_instrumented(&decoded).expect("replay verifies");
        assert_eq!(replayed.to_string(), dossier.to_string());
        assert_eq!(replayed.digest(), dossier.digest());
    }

    #[test]
    fn replay_rejects_bad_identity_and_tampered_digest() {
        let profile = ChipProfile::test_small();
        let (_, _, trace, _) =
            record_characterization_instrumented(&profile, 5, small_opts()).expect("record");

        let mut unknown = trace.clone();
        unknown.header.profile_label = "No Such Chip".into();
        let err = replay_characterization_instrumented(&unknown).expect_err("unknown label");
        assert!(err.to_string().contains("not a known preset"), "{err}");

        let mut geo = trace.clone();
        geo.header.geometry_hash ^= 1;
        let err = replay_characterization_instrumented(&geo).expect_err("geometry mismatch");
        assert!(err.to_string().contains("geometry changed"), "{err}");

        let mut partial = trace.clone();
        partial.header.dropped = 1;
        let err = replay_characterization_instrumented(&partial).expect_err("partial trace");
        assert!(err.to_string().contains("partial"), "{err}");

        let mut missing = trace.clone();
        missing.header.meta.retain(|(k, _)| k != "scan_rows");
        let err = replay_characterization_instrumented(&missing).expect_err("missing meta");
        assert!(err.to_string().contains("missing \"scan_rows\""), "{err}");

        let mut digest = trace.clone();
        digest.header.dossier_digest = Some(0xbad);
        let err = replay_characterization_instrumented(&digest).expect_err("digest mismatch");
        assert!(err.to_string().contains("digest mismatch"), "{err}");
    }

    #[test]
    fn wrong_seed_diverges_during_verified_replay() {
        let profile = ChipProfile::test_small();
        let (_, _, mut trace, _) =
            record_characterization_instrumented(&profile, 9, small_opts()).expect("record");
        trace.header.seed ^= 1;
        trace.header.dossier_digest = None;
        let err = replay_characterization_instrumented(&trace).expect_err("reseeded replay");
        assert!(err.to_string().contains("diverged"), "{err}");
    }

    #[test]
    fn record_replay_and_trace_derived_metrics_agree() {
        let profile = ChipProfile::test_small();
        let (_, _, trace, live) =
            record_characterization_instrumented(&profile, 123, small_opts()).expect("record");
        let live_snap = live.to_json_lines();
        // The same registry falls out of a verified replay…
        let (_, _, replayed) =
            replay_characterization_instrumented(&trace).expect("replay verifies");
        assert_eq!(replayed.to_json_lines(), live_snap);
        // …and out of a pure trace pass with no simulation at all.
        assert_eq!(dram_trace::trace_metrics(&trace).to_json_lines(), live_snap);
        // Span markers made it into the trace and the registry.
        assert!(live.sum_counters("span_count") > 0);
    }

    #[test]
    fn sharded_record_then_verify_replay_round_trips() {
        let profile = ChipProfile::test_small();
        let (sharded, trace, metrics) =
            record_characterization_sharded(&profile, 123, small_opts(), ShardConfig::default())
                .expect("record");
        assert_eq!(sharded.banks.len(), profile.banks as usize);
        assert_eq!(trace.header.dossier_digest, Some(sharded.digest()));
        assert_eq!(
            trace.header.meta("shard_banks"),
            Some(profile.banks.to_string().as_str())
        );
        // One opening marker per bank shard survives concatenation.
        let markers: Vec<&str> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Marker { label } if label.starts_with("shard:bank=") => {
                    Some(label.as_str())
                }
                _ => None,
            })
            .collect();
        assert_eq!(markers, vec!["shard:bank=0", "shard:bank=1"]);

        // Through bytes, then a fully verified sharded re-run.
        let decoded = Trace::from_bytes(&trace.to_bytes()).expect("decode");
        assert_eq!(decoded, trace);
        let (replayed, replayed_metrics) =
            replay_characterization_sharded(&decoded).expect("replay verifies");
        assert_eq!(replayed.to_string(), sharded.to_string());
        assert_eq!(replayed.digest(), sharded.digest());
        assert_eq!(replayed_metrics.to_json_lines(), metrics.to_json_lines());
    }

    #[test]
    fn sharded_trace_bytes_are_identical_for_any_shard_count() {
        let profile = ChipProfile::test_small();
        let (_, serial, _) =
            record_characterization_sharded(&profile, 7, small_opts(), ShardConfig { shards: 1 })
                .expect("serial record");
        let (_, wide, _) = record_characterization_sharded(
            &profile,
            7,
            small_opts(),
            ShardConfig {
                shards: profile.banks as usize,
            },
        )
        .expect("parallel record");
        assert_eq!(serial.to_bytes(), wide.to_bytes());
    }

    #[test]
    fn sharded_replay_rejects_unsharded_and_tampered_traces() {
        let profile = ChipProfile::test_small();
        let (_, _, plain, _) =
            record_characterization_instrumented(&profile, 5, small_opts()).expect("record");
        let err = replay_characterization_sharded(&plain).expect_err("unsharded trace");
        assert!(err.to_string().contains("not sharded"), "{err}");

        let (_, trace, _) =
            record_characterization_sharded(&profile, 5, small_opts(), ShardConfig::default())
                .expect("record");
        let mut miscounted = trace.clone();
        for (k, v) in &mut miscounted.header.meta {
            if k == "shard_banks" {
                *v = "3".into();
            }
        }
        let err = replay_characterization_sharded(&miscounted).expect_err("segment count");
        assert!(err.to_string().contains("3 bank segments"), "{err}");

        let mut digest = trace.clone();
        digest.header.dossier_digest = Some(0xbad);
        let err = replay_characterization_sharded(&digest).expect_err("digest mismatch");
        assert!(err.to_string().contains("digest mismatch"), "{err}");
    }

    #[test]
    fn sharded_replay_names_the_diverging_bank() {
        let profile = ChipProfile::test_small();
        let (_, mut trace, _) =
            record_characterization_sharded(&profile, 5, small_opts(), ShardConfig::default())
                .expect("record");
        // Nudge the timestamp of the first command in bank 1's segment.
        let bank1 = trace
            .events
            .iter()
            .position(|e| matches!(e, TraceEvent::Marker { label } if label == "shard:bank=1"))
            .expect("bank 1 segment");
        let at = trace.events[bank1..]
            .iter_mut()
            .find_map(|e| match e {
                TraceEvent::Command { at, .. } => Some(at),
                _ => None,
            })
            .expect("a command in bank 1's segment");
        *at = Time::from_ps(at.as_ps() + 1);
        let err = replay_characterization_sharded(&trace).expect_err("tampered bank 1");
        assert!(
            err.to_string()
                .contains("bank 1 replay diverged from trace: "),
            "{err}"
        );
    }

    #[test]
    fn sharded_replay_rejects_a_duplicated_bank_segment() {
        // [bank 0, bank 0] with `shard_banks=2` and no dossier digest:
        // every segment replays cleanly on its own, so only the bank
        // order check stands between this trace and a "verified" replay.
        let profile = ChipProfile::test_small();
        let (_, trace, _) =
            record_characterization_sharded(&profile, 5, small_opts(), ShardConfig::default())
                .expect("record");
        let bank0 = trace.split_at_markers(SHARD_MARKER_PREFIX).swap_remove(0);
        let mut duplicated = Trace::concat(&[bank0.clone(), bank0]).expect("concat");
        duplicated.header.meta = trace.header.meta.clone();
        assert_eq!(duplicated.header.meta("shard_banks"), Some("2"));
        assert_eq!(duplicated.header.dossier_digest, None);
        let decoded = Trace::from_bytes(&duplicated.to_bytes()).expect("decode");
        let err = replay_characterization_sharded(&decoded).expect_err("duplicated bank segment");
        assert!(
            err.to_string()
                .contains("segment 1 opens with shard:bank=0, expected shard:bank=1"),
            "{err}"
        );
    }

    #[test]
    fn replay_benchmark_reports_throughput_phases() {
        let profile = ChipProfile::test_small();
        let (_, _, trace, _) =
            record_characterization_instrumented(&profile, 1, small_opts()).expect("record");
        let stats = replay_benchmark(&trace, 2).expect("benchmark");
        assert_eq!(stats.phases.len(), 2);
        assert!(stats.phases.iter().all(|p| p.name == "replay"));
        assert!(stats.commands() > 0);
    }
}
