//! Cross-crate determinism contract for bank-sharded characterization:
//! the sharded path must produce byte-identical output — dossier digest,
//! metrics snapshot bytes, and recorded trace bytes — for `shards = 1`,
//! `shards = n_banks`, and the strictly serial reference, regardless of
//! worker scheduling.
//!
//! The fast tests cover one DDR4-style profile (`test_small`) and one
//! HBM2 profile (`test_small_hbm2`) and run in the tier-1 debug suite.
//! The `#[ignore]`d exhaustive test extends the digest contract to every
//! bundled Table I preset; CI runs it in release
//! (`cargo test --release --test sharded -- --ignored`).

use dramscope::core::dossier::CharacterizeOptions;
use dramscope::core::shard::{self, ShardConfig};
use dramscope::core::{fleet, trace_run};
use dramscope::sim::{ChipProfile, Time};

fn small_opts() -> CharacterizeOptions {
    CharacterizeOptions {
        scan_rows: 129,
        with_swizzle: false,
        probe_range: (44, 60),
        retention_wait: Time::from_ms(120_000),
    }
}

/// One DDR4-style and one HBM2 profile, with the bank counts the
/// shard-count sweep exercises.
fn small_profiles() -> Vec<ChipProfile> {
    vec![ChipProfile::test_small(), ChipProfile::test_small_hbm2()]
}

#[test]
fn sharded_output_is_byte_identical_across_shard_counts_and_serial() {
    for profile in small_profiles() {
        let n_banks = profile.banks as usize;
        let serial = shard::characterize_sharded_serial(&profile, 77, small_opts());
        assert!(serial.all_ok(), "{}", serial.table());
        let serial_dossier = serial.dossier().unwrap();
        let serial_metrics = serial.merged_metrics().to_json_lines();

        for shards in [1, n_banks] {
            let report =
                shard::characterize_sharded(&profile, 77, small_opts(), ShardConfig { shards });
            assert!(report.all_ok(), "{}", report.table());
            let dossier = report.dossier().unwrap();
            assert_eq!(
                dossier.to_string(),
                serial_dossier.to_string(),
                "{}: rendered dossier must not depend on shards={shards}",
                profile.label()
            );
            assert_eq!(dossier.digest(), serial_dossier.digest());
            assert_eq!(
                report.merged_metrics().to_json_lines(),
                serial_metrics,
                "{}: metrics snapshot must not depend on shards={shards}",
                profile.label()
            );
        }
    }
}

#[test]
fn sharded_trace_bytes_do_not_depend_on_shard_count() {
    for profile in small_profiles() {
        let n_banks = profile.banks as usize;
        let (dossier_one, trace_one, metrics_one) = trace_run::record_characterization_sharded(
            &profile,
            77,
            small_opts(),
            ShardConfig { shards: 1 },
        )
        .unwrap();
        let (dossier_all, trace_all, metrics_all) = trace_run::record_characterization_sharded(
            &profile,
            77,
            small_opts(),
            ShardConfig { shards: n_banks },
        )
        .unwrap();
        assert_eq!(dossier_one.digest(), dossier_all.digest());
        assert_eq!(
            trace_one.to_bytes(),
            trace_all.to_bytes(),
            "{}: trace bytes must not depend on the shard count",
            profile.label()
        );
        assert_eq!(metrics_one.to_json_lines(), metrics_all.to_json_lines());

        // The recorded trace replays bit-for-bit back into the dossier.
        let (replayed, replayed_metrics) =
            trace_run::replay_characterization_sharded(&trace_all).unwrap();
        assert_eq!(replayed.digest(), dossier_all.digest());
        assert_eq!(
            replayed_metrics.to_json_lines(),
            metrics_all.to_json_lines()
        );
    }
}

/// The two-level fleet scheduler obeys the same contract: flattening
/// `(profile, bank)` tasks onto one shared pool regroups into exactly
/// the per-device serial sharded reference.
#[test]
fn sharded_fleet_regroups_to_the_serial_reference() {
    let opts = small_opts();
    let jobs: Vec<fleet::FleetJob> = small_profiles()
        .into_iter()
        .map(|profile| fleet::FleetJob { profile, opts })
        .collect();
    let report = fleet::run_fleet_sharded(&jobs, 77, fleet::FleetConfig { workers: 3 }, None);
    assert!(report.all_ok(), "{}", report.table());
    assert_eq!(report.tasks, 2 + 4);
    for (job, sharded) in jobs.iter().zip(&report.profiles) {
        let seed = fleet::derive_seed(77, &job.profile.label());
        let reference = shard::characterize_sharded_serial(&job.profile, seed, job.opts);
        assert_eq!(
            sharded.dossier().unwrap().to_string(),
            reference.dossier().unwrap().to_string()
        );
        assert_eq!(
            sharded.merged_metrics().to_json_lines(),
            reference.merged_metrics().to_json_lines()
        );
    }
}

/// Exhaustive digest contract over every bundled Table I preset, with
/// each preset's own interior probe range. Expensive (every bank of
/// every preset characterizes twice), so it is `#[ignore]`d from the
/// debug tier-1 suite; CI runs it in release.
#[test]
#[ignore = "exhaustive; run in release: cargo test --release --test sharded -- --ignored"]
fn sharded_matches_serial_for_every_bundled_profile() {
    for job in fleet::table1_jobs() {
        let label = job.profile.label();
        let serial = shard::characterize_sharded_serial(&job.profile, 77, job.opts);
        assert!(serial.all_ok(), "{label}: {}", serial.table());
        let sharded =
            shard::characterize_sharded(&job.profile, 77, job.opts, ShardConfig::default());
        assert!(sharded.all_ok(), "{label}: {}", sharded.table());
        assert_eq!(
            sharded.dossier().unwrap().digest(),
            serial.dossier().unwrap().digest(),
            "{label}: sharded digest diverged from serial"
        );
        assert_eq!(
            sharded.merged_metrics().to_json_lines(),
            serial.merged_metrics().to_json_lines(),
            "{label}: merged metrics diverged from serial"
        );
    }
}
