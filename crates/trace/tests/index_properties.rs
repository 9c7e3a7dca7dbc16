//! Property tests for the v2 segment index.
//!
//! Arbitrary [`StreamRng`]-generated event streams — markers at random
//! positions, including no markers at all and a marker as the very
//! first event — must round-trip through `to_bytes_indexed` with an
//! index whose segment table exactly describes the payload: contiguous
//! byte ranges, per-segment digests that recompute from the bytes,
//! metadata that recounts from the decoded events, and per-segment
//! decodes that concatenate back to the original stream.

use dram_sim::digest::fnv1a_64;
use dram_sim::rng::StreamRng;
use dram_sim::{Command, CommandOutcome, Time};
use dram_trace::index::{event_bank, event_mnemonic};
use dram_trace::{split_container, Container, IndexedTrace, Trace, TraceEvent, TraceHeader};

/// Marker labels the generator draws from. The first four open
/// segments (default prefixes); the last is a free-form marker that
/// must stay inside whatever segment is open.
const MARKERS: [&str; 5] = [
    "phase:structure",
    "phase:power",
    "span:trr_window:enter",
    "shard:bank=1",
    "note:free-form",
];

/// One random event. Timestamps are drawn unordered on purpose: the
/// delta chain zigzags, so the index must cope with non-monotone time.
fn random_event(rng: &mut StreamRng) -> TraceEvent {
    let at = Time::from_ps(rng.next_below(1_000_000_000));
    let bank = rng.next_below(8) as u32;
    match rng.next_below(7) {
        0 => TraceEvent::Command {
            cmd: Command::Activate {
                bank,
                row: rng.next_below(2048) as u32,
            },
            at,
            outcome: CommandOutcome::Accepted,
        },
        1 => TraceEvent::Command {
            cmd: Command::Precharge { bank },
            at,
            outcome: CommandOutcome::Accepted,
        },
        2 => TraceEvent::Command {
            cmd: Command::Read {
                bank,
                col: rng.next_below(64) as u32,
            },
            at,
            outcome: CommandOutcome::Data(rng.next_u64()),
        },
        3 => TraceEvent::Burst {
            bank,
            row: rng.next_below(2048) as u32,
            count: 1 + rng.next_below(50),
            each_on: Time::from_ns(1 + rng.next_below(40)),
            at,
            outcome: CommandOutcome::Accepted,
        },
        4 => TraceEvent::RefreshWindow {
            at,
            outcome: CommandOutcome::Accepted,
        },
        5 => TraceEvent::SetTemperature {
            celsius: rng.next_below(80) as f64,
        },
        _ => TraceEvent::Marker {
            label: MARKERS[rng.next_below(MARKERS.len() as u64) as usize].into(),
        },
    }
}

/// A random trace for `seed`. Seed 0 is pinned to the zero-marker edge
/// case, seed 1 to the marker-first edge case; every other seed draws
/// freely.
fn random_trace(seed: u64) -> Trace {
    let mut rng = StreamRng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) + seed);
    let count = match seed {
        0 => 40,
        _ => rng.next_below(150) as usize,
    };
    let mut events = Vec::with_capacity(count);
    if seed == 1 {
        events.push(TraceEvent::Marker {
            label: "phase:structure".into(),
        });
    }
    while events.len() < count {
        let ev = random_event(&mut rng);
        // Seed 0: suppress markers entirely so the whole stream is one
        // unlabeled segment.
        if seed == 0 && matches!(ev, TraceEvent::Marker { .. }) {
            continue;
        }
        events.push(ev);
    }
    Trace {
        header: TraceHeader {
            profile_label: format!("prop-{seed}"),
            seed,
            geometry_hash: 0xfeed,
            dossier_digest: None,
            dropped: 0,
            meta: vec![],
        },
        events,
    }
}

#[test]
fn random_traces_round_trip_segment_offsets_digests_and_metadata() {
    for seed in 0..16u64 {
        let trace = random_trace(seed);
        let v2 = trace.to_bytes_indexed();

        let Container::V2 { payload, index } = split_container(&v2) else {
            panic!("seed {seed}: container did not classify as V2");
        };
        assert_eq!(payload, &trace.to_bytes()[..], "seed {seed}");

        // Segments tile the event region of the payload: the first
        // starts where the header ends, each starts where the previous
        // ended, and the last ends at the payload boundary. Digests
        // recompute from the covered bytes.
        let mut expected_offset = index.events_offset;
        for (i, seg) in index.segments.iter().enumerate() {
            assert_eq!(seg.offset, expected_offset, "seed {seed} segment {i}");
            let bytes = &payload[seg.offset as usize..(seg.offset + seg.len) as usize];
            assert_eq!(seg.digest, fnv1a_64(bytes), "seed {seed} segment {i}");
            expected_offset += seg.len;
        }
        assert_eq!(expected_offset, payload.len() as u64, "seed {seed}");

        // Per-segment decodes concatenate to the original stream, and
        // each segment's metadata recounts from its decoded events.
        let opened = IndexedTrace::from_bytes(&v2).expect("opens");
        assert!(opened.is_indexed(), "seed {seed}");
        assert!(opened.fallback().is_none(), "seed {seed}");
        assert_eq!(opened.header(), &trace.header, "seed {seed}");
        let mut reassembled = Vec::new();
        for (i, seg) in opened.segments().iter().enumerate() {
            assert_eq!(
                opened.segment_event_start(i),
                reassembled.len() as u64,
                "seed {seed} segment {i}"
            );
            let events = opened.decode_segment(i).expect("segment decodes");
            assert_eq!(events.len() as u64, seg.events, "seed {seed} segment {i}");
            for ev in &events {
                assert!(
                    seg.op_count(event_mnemonic(ev)) > 0,
                    "seed {seed} segment {i}: op histogram misses {ev}"
                );
                if let Some(bank) = event_bank(ev) {
                    assert!(seg.has_bank(bank), "seed {seed} segment {i}");
                }
                if let Some(at) = ev.at() {
                    let ps = at.as_ps();
                    assert!(
                        seg.min_ps.is_some_and(|m| m <= ps) && seg.max_ps.is_some_and(|m| m >= ps),
                        "seed {seed} segment {i}: {ps} outside bounds"
                    );
                }
            }
            reassembled.extend(events);
        }
        assert_eq!(reassembled, trace.events, "seed {seed}");
    }
}

#[test]
fn zero_marker_and_marker_first_streams_index_as_expected() {
    // Seed 0: no markers — one unlabeled segment holding everything.
    let flat = random_trace(0);
    let opened = IndexedTrace::from_bytes(&flat.to_bytes_indexed()).expect("opens");
    assert_eq!(opened.segments().len(), 1);
    assert_eq!(opened.segments()[0].label, "");
    assert_eq!(opened.segments()[0].events, flat.events.len() as u64);

    // Seed 1: the very first event is a marker — no empty leading
    // segment, the marker's label opens segment 0.
    let fronted = random_trace(1);
    let opened = IndexedTrace::from_bytes(&fronted.to_bytes_indexed()).expect("opens");
    assert_eq!(opened.segments()[0].label, "phase:structure");

    // An empty trace still round-trips.
    let empty = Trace {
        header: flat.header.clone(),
        events: vec![],
    };
    let opened = IndexedTrace::from_bytes(&empty.to_bytes_indexed()).expect("opens");
    assert_eq!(opened.event_count(), 0);
    assert_eq!(opened.decode_all().expect("decodes"), empty);
}

#[test]
fn single_prefix_streams_split_identically_via_index_and_split_at_markers() {
    // When the only markers share one prefix, the index's segmentation
    // must agree with the older `split_at_markers` slicing exactly —
    // the index is a seekable encoding of the same partition.
    for seed in [2u64, 5, 9] {
        let mut rng = StreamRng::new(seed);
        let mut events = Vec::new();
        for shard in 0..4u32 {
            events.push(TraceEvent::Marker {
                label: format!("shard:bank={shard}"),
            });
            for _ in 0..rng.next_below(30) {
                let mut ev = random_event(&mut rng);
                while matches!(ev, TraceEvent::Marker { .. }) {
                    ev = random_event(&mut rng);
                }
                events.push(ev);
            }
        }
        let trace = Trace {
            header: TraceHeader {
                profile_label: "split".into(),
                seed,
                geometry_hash: 1,
                dossier_digest: None,
                dropped: 0,
                meta: vec![],
            },
            events,
        };
        let split = trace.split_at_markers("shard:bank=");
        let opened = IndexedTrace::from_bytes(&trace.to_bytes_indexed()).expect("opens");
        assert_eq!(opened.segments().len(), split.len(), "seed {seed}");
        for (i, part) in split.iter().enumerate() {
            assert_eq!(
                opened.decode_segment(i).expect("segment decodes"),
                part.events,
                "seed {seed} segment {i}"
            );
        }
    }
}
