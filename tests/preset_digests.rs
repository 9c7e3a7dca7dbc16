//! Pins the characterization output of every bundled preset against a
//! committed fixture (`tests/golden/preset_digests.json`).
//!
//! Each fixture line records, for one `(profile, seed 77)` pair, the
//! FNV-1a 64 digest of the rendered dossier and of the metrics snapshot
//! bytes. Any change to the device model that perturbs physics, command
//! scheduling, or metrics vocabulary shows up here as a digest mismatch —
//! this is the before/after byte-identity contract that allowed the chip
//! hot path to be rewritten on flat state without a physics review.
//!
//! The fast test covers the four small test profiles and runs in the
//! tier-1 debug suite; the `#[ignore]`d test extends the pin to all 16
//! Table I presets and runs in release on every CI run.
//!
//! Regenerate after an *intentional* model change with:
//!
//! ```text
//! DRAMSCOPE_BLESS=1 cargo test --release --test preset_digests -- --ignored bless
//! ```

use dramscope::core::dossier::{characterize_instrumented, CharacterizeOptions};
use dramscope::core::fleet;
use dramscope::sim::{ChipProfile, Time};
use std::path::PathBuf;

const SEED: u64 = 77;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("preset_digests.json")
}

fn small_opts() -> CharacterizeOptions {
    CharacterizeOptions {
        scan_rows: 129,
        with_swizzle: false,
        probe_range: (44, 60),
        retention_wait: Time::from_ms(120_000),
    }
}

/// The fast PR-tier subset: one profile per small-geometry family.
fn fast_jobs() -> Vec<(ChipProfile, CharacterizeOptions)> {
    vec![
        (ChipProfile::test_small(), small_opts()),
        (ChipProfile::test_small_coupled(), small_opts()),
        (ChipProfile::test_small_interleaved(), small_opts()),
        (ChipProfile::test_small_hbm2(), small_opts()),
    ]
}

/// All 16 Table I presets with their interior probe ranges.
fn table1_jobs() -> Vec<(ChipProfile, CharacterizeOptions)> {
    fleet::table1_jobs()
        .into_iter()
        .map(|job| (job.profile, job.opts))
        .collect()
}

/// One fixture line: label plus both digests, formatted by hand so the
/// file stays dependency-free and byte-stable.
fn digest_line(profile: &ChipProfile, opts: CharacterizeOptions) -> String {
    let (dossier, _stats, metrics) =
        characterize_instrumented(profile, SEED, opts, None).expect("characterize");
    let metrics_fnv = dramscope::trace::fnv1a_64(metrics.to_json_lines().as_bytes());
    format!(
        "{{\"label\":\"{}\",\"dossier\":\"{:#018x}\",\"metrics\":\"{:#018x}\"}}",
        profile.label(),
        dossier.digest(),
        metrics_fnv
    )
}

fn fixture_lines() -> Vec<String> {
    let raw = std::fs::read_to_string(fixture_path()).expect(
        "tests/golden/preset_digests.json missing; regenerate with \
         DRAMSCOPE_BLESS=1 cargo test --release --test preset_digests -- --ignored bless",
    );
    raw.lines().map(str::to_owned).collect()
}

fn assert_pinned(jobs: Vec<(ChipProfile, CharacterizeOptions)>) {
    let fixture = fixture_lines();
    for (profile, opts) in jobs {
        let line = digest_line(&profile, opts);
        let label = profile.label();
        let pinned = fixture
            .iter()
            .find(|l| l.contains(&format!("\"label\":\"{label}\"")))
            .unwrap_or_else(|| panic!("{label}: no fixture line; re-bless the fixture"));
        assert_eq!(
            &line, pinned,
            "{label}: characterization digests diverged from the committed fixture"
        );
    }
}

#[test]
fn small_preset_digests_match_fixture() {
    assert_pinned(fast_jobs());
}

/// Exhaustive pin over every bundled Table I preset. Expensive, so it is
/// `#[ignore]`d from the debug tier-1 suite; CI runs it in release.
#[test]
#[ignore = "exhaustive; run in release: cargo test --release --test preset_digests -- --ignored"]
fn table1_preset_digests_match_fixture() {
    assert_pinned(table1_jobs());
}

/// Regenerates the fixture. Only writes when `DRAMSCOPE_BLESS` is set,
/// so an accidental `--include-ignored` run cannot silently re-pin.
#[test]
#[ignore = "fixture generator; set DRAMSCOPE_BLESS=1 to write"]
fn bless_fixture() {
    if std::env::var_os("DRAMSCOPE_BLESS").is_none() {
        eprintln!("DRAMSCOPE_BLESS not set; refusing to rewrite the fixture");
        return;
    }
    let mut lines = Vec::new();
    for (profile, opts) in fast_jobs().into_iter().chain(table1_jobs()) {
        lines.push(digest_line(&profile, opts));
    }
    let mut body = lines.join("\n");
    body.push('\n');
    std::fs::write(fixture_path(), body).expect("write fixture");
}
