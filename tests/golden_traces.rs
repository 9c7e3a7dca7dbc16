//! Golden-trace regression suite.
//!
//! Checked-in binary traces (`tests/golden/*.trace`, one per small vendor
//! profile, recorded with `characterize record <profile> --seed 2024`)
//! pin the exact command stream, read data, and dossier digest of a full
//! characterization. Any change to the simulator physics, the probe
//! pipelines, or the trace codec that alters behavior bit-for-bit shows
//! up here as a replay divergence or digest mismatch — the simulated
//! equivalent of keeping measured silicon behavior under version control.

use dramscope::core::dossier::CharacterizeOptions;
use dramscope::core::Table;
use dramscope::core::{
    record_characterization_instrumented, replay_benchmark, replay_characterization_instrumented,
};
use dramscope::sim::digest::fnv1a_64;
use dramscope::sim::{ChipProfile, Time};
use dramscope::trace::index::TRAILER_MAGIC;
use dramscope::trace::{
    query_bytes, replay_on_chip, split_container, trace_metrics, Container, IndexedTrace, Query,
    Trace, TraceError,
};

/// The golden fixtures: three profiles with three distinct vendors,
/// geometries, and hidden configurations.
const GOLDEN: &[(&str, &[u8])] = &[
    (
        "test_small",
        include_bytes!("golden/test_small.trace") as &[u8],
    ),
    (
        "test_small_interleaved",
        include_bytes!("golden/test_small_interleaved.trace") as &[u8],
    ),
    (
        "test_small_coupled",
        include_bytes!("golden/test_small_coupled.trace") as &[u8],
    ),
];

/// The options the fixtures were recorded with (mirrors the CLI's
/// `record` defaults for the small profiles).
fn opts_for(name: &str) -> CharacterizeOptions {
    CharacterizeOptions {
        scan_rows: if name == "test_small_coupled" {
            257
        } else {
            129
        },
        with_swizzle: false,
        probe_range: (44, 60),
        retention_wait: Time::from_ms(120_000),
    }
}

fn profile_for(name: &str) -> ChipProfile {
    match name {
        "test_small" => ChipProfile::test_small(),
        "test_small_interleaved" => ChipProfile::test_small_interleaved(),
        "test_small_coupled" => ChipProfile::test_small_coupled(),
        other => panic!("unknown fixture {other}"),
    }
}

#[test]
fn golden_traces_decode_with_expected_identity() {
    for (name, bytes) in GOLDEN {
        let trace = Trace::from_bytes(bytes).expect("golden trace decodes");
        let profile = profile_for(name);
        assert_eq!(trace.header.profile_label, profile.label(), "{name}");
        assert_eq!(trace.header.seed, 2024, "{name}");
        assert_eq!(trace.header.dropped, 0, "{name}");
        assert!(trace.header.dossier_digest.is_some(), "{name}");
        assert!(
            trace.events.len() > 10_000,
            "{name}: {}",
            trace.events.len()
        );
        // Serialization is canonical: decode → encode is the identity.
        assert_eq!(trace.to_bytes(), *bytes, "{name}");
    }
}

#[test]
fn golden_traces_verified_replay_reproduces_dossier_digest() {
    for (name, bytes) in GOLDEN {
        let trace = Trace::from_bytes(bytes).expect("golden trace decodes");
        // Re-runs the full characterization with a verifier riding along;
        // internally asserts the command stream matches event-by-event
        // and the replayed dossier digest equals the recorded one.
        let (dossier, stats, _) = replay_characterization_instrumented(&trace)
            .unwrap_or_else(|e| panic!("{name}: golden replay failed: {e}"));
        assert_eq!(
            Some(dossier.digest()),
            trace.header.dossier_digest,
            "{name}"
        );
        assert!(stats.commands() > 0, "{name}");
    }
}

#[test]
fn golden_traces_replay_bit_for_bit_on_bare_chips() {
    for (name, bytes) in GOLDEN {
        let trace = Trace::from_bytes(bytes).expect("golden trace decodes");
        let profile = profile_for(name);
        let stats = replay_on_chip(&trace, &profile)
            .unwrap_or_else(|e| panic!("{name}: bare-chip replay failed: {e}"));
        assert_eq!(stats.events, trace.events.len() as u64, "{name}");
        assert!(stats.reads_verified > 1_000, "{name}: {stats:?}");
        assert!(stats.commands > 5_000_000, "{name}: {stats:?}");
    }
}

#[test]
fn corrupt_and_truncated_golden_bytes_error_without_panicking() {
    let bytes = GOLDEN[0].1;
    // Sampled prefixes, including every early header boundary.
    let prefix_lens = (0..64).chain((64..bytes.len()).step_by(4099));
    for len in prefix_lens {
        let err = Trace::from_bytes(&bytes[..len]).expect_err("prefix must not decode");
        assert!(
            matches!(
                err,
                TraceError::TruncatedHeader { .. }
                    | TraceError::TruncatedEvents { .. }
                    | TraceError::Corrupt { .. }
            ),
            "prefix {len}: {err:?}"
        );
    }
    // Sampled single-byte corruptions: any Result is fine, panics are not.
    for i in (0..bytes.len()).step_by(997) {
        let mut mutated = bytes.to_vec();
        mutated[i] ^= 0xff;
        let _ = Trace::from_bytes(&mutated);
    }
    // Bad magic and version bumps are reported as such.
    let mut mutated = bytes.to_vec();
    mutated[0] = b'!';
    assert!(matches!(
        Trace::from_bytes(&mutated),
        Err(TraceError::BadMagic { .. })
    ));
    let mut mutated = bytes.to_vec();
    mutated[4] = 99;
    assert!(matches!(
        Trace::from_bytes(&mutated),
        Err(TraceError::UnsupportedVersion {
            found: 99,
            supported: 1
        })
    ));
}

/// The v2 indexed container of the `test_small` golden trace,
/// generated with `characterize index tests/golden/test_small.trace
/// --out tests/golden/test_small.v2.trace`. Pins the index encoding:
/// the payload prefix must stay byte-identical to the v1 fixture, and
/// the appended segment table must keep describing it exactly.
const GOLDEN_V2: &[u8] = include_bytes!("golden/test_small.v2.trace") as &[u8];

#[test]
fn golden_v2_container_wraps_the_v1_fixture_byte_identically() {
    let v1 = GOLDEN[0].1;
    // v2 = unchanged v1 payload + index section + trailer.
    assert!(GOLDEN_V2.len() > v1.len());
    assert_eq!(&GOLDEN_V2[..v1.len()], v1);

    // Re-encoding the decoded v1 fixture reproduces the fixture's
    // container bit-for-bit: the index encoder is canonical too.
    let trace = Trace::from_bytes(v1).expect("golden trace decodes");
    assert_eq!(trace.to_bytes_indexed(), GOLDEN_V2);

    // The container opens indexed and decodes to exactly the v1
    // fixture's events.
    let opened = IndexedTrace::from_bytes(GOLDEN_V2).expect("golden v2 opens");
    assert!(opened.is_indexed());
    assert!(opened.fallback().is_none());
    assert_eq!(opened.event_count(), trace.events.len() as u64);
    assert!(opened.segments().len() > 10, "{}", opened.segments().len());
    assert_eq!(opened.decode_all().expect("decodes"), trace);
    // Segment 0 is the structure phase and dominates the stream.
    assert_eq!(opened.segments()[0].label, "phase:structure");
    assert!(opened.segments()[0].events > 50_000);
}

/// `GOLDEN_V2` with `payload` in place of its v1 payload, where only
/// segment `seg` differs from the fixture and is `cut` bytes shorter:
/// the index moves the later segments and vouches for the damaged one
/// with a fresh digest, so the container opens and the damage is left
/// for the segment decoder to find.
fn redigested(payload: &[u8], seg: usize, cut: u64) -> Vec<u8> {
    let Container::V2 { mut index, .. } = split_container(GOLDEN_V2) else {
        panic!("golden v2 has an index");
    };
    index.segments[seg].len -= cut;
    for later in &mut index.segments[seg + 1..] {
        later.offset -= cut;
    }
    let damaged = &mut index.segments[seg];
    let start = damaged.offset as usize;
    damaged.digest = fnv1a_64(&payload[start..start + damaged.len as usize]);
    let section = index.to_bytes();
    let mut out = payload.to_vec();
    out.extend_from_slice(&section);
    out.extend_from_slice(&(section.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a_64(&section).to_le_bytes());
    out.extend_from_slice(&TRAILER_MAGIC);
    out
}

/// The three ways a sampled byte at `at` is damaged: all bits flipped,
/// the continuation bit alone flipped, and a run of eleven continuation
/// bytes (clamped to `end`), which overflows any varint read into it.
fn damaged(bytes: &[u8], at: usize, end: usize) -> [Vec<u8>; 3] {
    let flipped = |mask: u8| {
        let mut out = bytes.to_vec();
        out[at] ^= mask;
        out
    };
    let mut run = bytes.to_vec();
    run[at..end.min(at + 11)].fill(0x80);
    [flipped(0xff), flipped(0x80), run]
}

/// Every way the two event loops refuse damaged golden bytes, pinned
/// exactly. The totality test above checks only error kinds; here the
/// `Debug` text of each sampled case's result (error variant, offset,
/// event index and reason, or the event count of a damaged input that
/// still decodes) folds into one FNV-1a digest, so a decode path that
/// moves an error by one byte fails. Cases: truncations and damaged
/// bytes of the v1 fixture through `Trace::from_bytes`, and of the v2
/// fixture's segments, re-digested so the index still vouches for them,
/// through the segment loop. The digest was recorded with the
/// byte-at-a-time decoder.
#[test]
fn golden_decode_errors_keep_their_exact_offsets() {
    let v1 = GOLDEN[0].1;
    let mut text = String::new();
    let mut cases = 0usize;
    let mut fold = |line: String| {
        text.push_str(&line);
        text.push('\n');
        cases += 1;
    };
    let whole = |bytes: &[u8]| format!("{:?}", Trace::from_bytes(bytes).map(|t| t.events.len()));
    // v1: every early header boundary, then sampled prefixes and
    // damaged bytes.
    for len in (0..64).chain((64..v1.len()).step_by(PREFIX_STEP)) {
        fold(whole(&v1[..len]));
    }
    for at in (0..v1.len()).step_by(FLIP_STEP) {
        for mutated in damaged(v1, at, v1.len()) {
            fold(whole(&mutated));
        }
    }
    // v2: per segment, a cut and each damage at sampled bytes, decoded
    // by the segment loop alone.
    let opened = IndexedTrace::from_bytes(GOLDEN_V2).expect("golden v2 opens");
    let segment = |bytes: &[u8], seg: usize| {
        format!(
            "{seg} {:?}",
            IndexedTrace::from_bytes(bytes)
                .and_then(|t| t.decode_segment(seg))
                .map(|events| events.len())
        )
    };
    for (seg, meta) in opened.segments().iter().enumerate() {
        let (start, len) = (meta.offset as usize, meta.len as usize);
        let step = (len / SEGMENT_SAMPLES).max(1);
        for at in (start..start + len).step_by(step) {
            let cut = (start + len - at) as u64;
            let mut payload = v1[..at].to_vec();
            payload.extend_from_slice(&v1[start + len..]);
            fold(segment(&redigested(&payload, seg, cut), seg));
            for payload in damaged(v1, at, start + len) {
                fold(segment(&redigested(&payload, seg, 0), seg));
            }
        }
    }
    assert_eq!(
        (cases, fnv1a_64(text.as_bytes())),
        (DECODE_CASES, DECODE_DIGEST),
        "first lines:\n{}",
        text.lines().take(8).collect::<Vec<_>>().join("\n")
    );
}

/// Sampling of [`golden_decode_errors_keep_their_exact_offsets`], and
/// the case count and digest it must reproduce.
const PREFIX_STEP: usize = 4_099;
const FLIP_STEP: usize = 4_099;
const SEGMENT_SAMPLES: usize = 12;
const DECODE_CASES: usize = 1_340;
const DECODE_DIGEST: u64 = 0x3a72_eba3_4ec1_88df;

/// Query reports over the golden v2 container, as `to_json` rendered
/// them on the byte-at-a-time decoder: the three predicates of the
/// benchmark's query workload (bank 2 `ACT`s, the `span:attack_scan`
/// marker, a full scan) and a time window on bank 0 that cuts the
/// structure phase in two.
#[test]
fn golden_query_reports_are_pinned() {
    let queries = [
        Query {
            banks: Some(vec![2]),
            mnemonics: Some(vec!["act".into()]),
            ..Query::default()
        },
        Query {
            marker_prefix: Some("span:attack_scan".into()),
            ..Query::default()
        },
        Query {
            min_count: Some(0),
            ..Query::default()
        },
        Query {
            from_ps: Some(500_000_000),
            to_ps: Some(972_100_000),
            banks: Some(vec![0]),
            ..Query::default()
        },
    ];
    let pinned = include_str!("golden/test_small.v2.query.json");
    assert_eq!(pinned.lines().count(), queries.len());
    for (query, want) in queries.iter().zip(pinned.lines()) {
        let report = query_bytes("test_small.v2.trace", GOLDEN_V2, query).expect("queries");
        assert_eq!(report.to_json(), want, "{query:?}");
    }
}

#[test]
fn record_serialize_replay_round_trip_per_vendor_profile() {
    for (name, _) in GOLDEN {
        let profile = profile_for(name);
        let opts = opts_for(name);
        let (dossier, _, trace, _) =
            record_characterization_instrumented(&profile, 7, opts).expect("record succeeds");

        let decoded = Trace::from_bytes(&trace.to_bytes()).expect("round trip decodes");
        assert_eq!(decoded, trace, "{name}");

        let (replayed, _, _) = replay_characterization_instrumented(&decoded)
            .unwrap_or_else(|e| panic!("{name}: replay failed: {e}"));
        assert_eq!(
            replayed.to_string(),
            dossier.to_string(),
            "{name}: replayed dossier must be byte-identical"
        );
        assert_eq!(replayed.digest(), dossier.digest(), "{name}");
    }
}

#[test]
fn golden_trace_throughput_feeds_fleet_reporting() {
    let trace = Trace::from_bytes(GOLDEN[0].1).expect("golden trace decodes");
    let stats = replay_benchmark(&trace, 2).expect("benchmark replays");
    assert_eq!(stats.phases.len(), 2);
    let mut table = Table::new(vec!["run", "wall_ms", "commands"]);
    for (i, p) in stats.phases.iter().enumerate() {
        assert_eq!(p.name, "replay");
        assert!(p.commands > 5_000_000, "{p:?}");
        table.row(vec![
            i.to_string(),
            format!("{:.2}", p.wall_ms),
            p.commands.to_string(),
        ]);
    }
    let csv = table.to_csv();
    assert!(csv.lines().count() == 3, "{csv}");
}

/// Metrics snapshot derived from `tests/golden/test_small.trace`,
/// generated with `characterize stats tests/golden/test_small.trace
/// --json`. Pins the telemetry vocabulary and the exact counts the
/// golden command stream produces.
const GOLDEN_METRICS: &str = include_str!("golden/test_small.metrics.json");

#[test]
fn golden_metrics_fixture_matches_trace_derived_snapshot() {
    let trace = Trace::from_bytes(GOLDEN[0].1).expect("golden trace decodes");
    let reg = trace_metrics(&trace);
    assert_eq!(
        reg.to_json_lines(),
        GOLDEN_METRICS,
        "regenerate with: characterize stats tests/golden/test_small.trace --json"
    );
}

#[test]
fn golden_metrics_trace_derivation_equals_live_instrumentation() {
    // The same snapshot must be reachable two independent ways: derived
    // offline from the recorded trace, and captured live by the metrics
    // sink riding along a fresh characterization. Phase/span markers and
    // command accounting must agree exactly.
    for (name, _) in GOLDEN {
        let profile = profile_for(name);
        let (_, _, trace, live) =
            record_characterization_instrumented(&profile, 2024, opts_for(name))
                .expect("record succeeds");
        let derived = trace_metrics(&trace);
        assert_eq!(
            live.to_json_lines(),
            derived.to_json_lines(),
            "{name}: live and trace-derived telemetry diverge"
        );
        assert!(live.sum_counters("span_count") > 0, "{name}");
        assert!(live.sum_counters("phase_count") > 0, "{name}");
    }
}
