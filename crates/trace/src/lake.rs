//! The indexed trace container ("trace lake" storage layer): writing v2
//! files, detecting and stripping the index footer, and decoding
//! segments independently.
//!
//! A v2 container is the unmodified v1 byte stream followed by an
//! [index section](crate::index) and a fixed trailer:
//!
//! ```text
//! [ v1 payload ... ][ index section ][ index len u64 | index digest u64 | b"DRTRIDX1" ]
//! ```
//!
//! Because the payload bytes are untouched, every v1 consumer keeps
//! working on the payload slice, golden traces and dossier digests stay
//! byte-identical, and a v2 file degrades to a v1 decode when its index
//! is damaged but the payload is intact. A v1 file (no trailer) reads
//! as one synthesized whole-file segment list, split at the same
//! markers in memory, so segment-level filters behave identically —
//! only without the seek savings.

use crate::error::TraceError;
use crate::event::TraceEvent;
use crate::format::{self, Reader, Trace, TraceHeader};
use crate::index::{
    event_bank, event_op_index, SegmentMeta, TraceIndex, DEFAULT_SEGMENT_PREFIXES, TRAILER_LEN,
    TRAILER_MAGIC,
};
use dram_sim::digest::fnv1a_64;

/// What the tail of a trace file turned out to contain.
#[derive(Debug)]
pub enum Container<'a> {
    /// No index trailer: a plain v1 stream.
    V1(&'a [u8]),
    /// A well-formed v2 container: payload plus its decoded index. The
    /// index is structurally valid but not yet checked against the
    /// payload (see [`TraceIndex::validate`]).
    V2 {
        /// The unmodified v1 byte stream.
        payload: &'a [u8],
        /// The decoded index footer.
        index: TraceIndex,
    },
    /// The trailer magic is present but the index is damaged. When the
    /// trailer's length field still locates the payload boundary the
    /// payload slice is recovered so callers can fall back to a v1
    /// whole-file decode.
    DamagedIndex {
        /// The payload slice, when the boundary could be recovered.
        payload: Option<&'a [u8]>,
        /// Why the index was rejected.
        error: TraceError,
    },
}

/// Classifies a byte stream as v1 or v2 and decodes the index if there
/// is one. Total: never panics, and index damage comes back as
/// [`Container::DamagedIndex`] rather than an `Err` so the payload
/// slice survives for fallback.
pub fn split_container(bytes: &[u8]) -> Container<'_> {
    let len = bytes.len();
    if len < TRAILER_LEN || bytes[len - 8..] != TRAILER_MAGIC {
        return Container::V1(bytes);
    }
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[len - TRAILER_LEN..len - 16]);
    let index_len = u64::from_le_bytes(raw);
    raw.copy_from_slice(&bytes[len - 16..len - 8]);
    let index_digest = u64::from_le_bytes(raw);
    let body_len = (len - TRAILER_LEN) as u64;
    if index_len > body_len {
        return Container::DamagedIndex {
            payload: None,
            error: TraceError::CorruptIndex {
                offset: 0,
                what: "index length exceeds file",
            },
        };
    }
    let index_start = (body_len - index_len) as usize;
    let section = &bytes[index_start..len - TRAILER_LEN];
    let payload = &bytes[..index_start];
    if fnv1a_64(section) != index_digest {
        return Container::DamagedIndex {
            payload: Some(payload),
            error: TraceError::CorruptIndex {
                offset: 0,
                what: "index digest mismatch",
            },
        };
    }
    match TraceIndex::from_bytes(section) {
        Ok(index) => Container::V2 { payload, index },
        Err(error) => Container::DamagedIndex {
            payload: Some(payload),
            error,
        },
    }
}

/// Decodes a trace from either container version, ignoring the index:
/// the v2 footer is stripped and the payload decoded whole. A damaged
/// index falls back to the payload when it is intact.
pub fn decode_container(bytes: &[u8]) -> Result<Trace, TraceError> {
    match split_container(bytes) {
        Container::V1(payload) | Container::V2 { payload, .. } => Trace::from_bytes(payload),
        Container::DamagedIndex {
            payload: Some(payload),
            error,
        } => Trace::from_bytes(payload).map_err(|_| error),
        Container::DamagedIndex {
            payload: None,
            error,
        } => Err(error),
    }
}

impl Trace {
    /// Serializes the trace as a v2 indexed container with segments
    /// opened at the [`DEFAULT_SEGMENT_PREFIXES`] markers. The payload
    /// bytes are exactly [`to_bytes`](Self::to_bytes).
    pub fn to_bytes_indexed(&self) -> Vec<u8> {
        self.to_bytes_indexed_with(&DEFAULT_SEGMENT_PREFIXES)
    }

    /// Serializes the trace as a v2 indexed container, opening a new
    /// segment at every marker whose label starts with one of
    /// `prefixes` ([`split_at_markers`](Self::split_at_markers)
    /// semantics: the marker stays the first event of its segment, and
    /// events before the first match form an unlabeled leading
    /// segment).
    pub fn to_bytes_indexed_with(&self, prefixes: &[&str]) -> Vec<u8> {
        let mut out = Vec::with_capacity(96 + self.events.len() * 4);
        self.encode_header_and_count(&mut out);
        let events_offset = out.len() as u64;
        let mut prev_ps = 0u64;
        let mut segments: Vec<SegmentMeta> = Vec::new();
        let mut open: Option<SegmentMeta> = None;
        for ev in &self.events {
            let opens = matches!(
                ev,
                TraceEvent::Marker { label } if prefixes.iter().any(|p| label.starts_with(p))
            );
            if opens || open.is_none() {
                if let Some(seg) = open.take() {
                    segments.push(seal_segment(seg, &out));
                }
                let label = match ev {
                    TraceEvent::Marker { label } if opens => label.clone(),
                    _ => String::new(),
                };
                open = Some(SegmentMeta {
                    label,
                    offset: out.len() as u64,
                    len: 0,
                    base_ps: prev_ps,
                    min_ps: None,
                    max_ps: None,
                    events: 0,
                    banks: Vec::new(),
                    ops: [0; 10],
                    digest: 0,
                });
            }
            format::encode_event(&mut out, ev, &mut prev_ps);
            let seg = open.as_mut().expect("a segment was just ensured");
            seg.events += 1;
            seg.ops[event_op_index(ev)] += 1;
            if let Some(bank) = event_bank(ev) {
                if let Err(slot) = seg.banks.binary_search(&bank) {
                    seg.banks.insert(slot, bank);
                }
            }
            if let Some(at) = ev.at() {
                let ps = at.as_ps();
                seg.min_ps = Some(seg.min_ps.map_or(ps, |m| m.min(ps)));
                seg.max_ps = Some(seg.max_ps.map_or(ps, |m| m.max(ps)));
            }
        }
        if let Some(seg) = open.take() {
            segments.push(seal_segment(seg, &out));
        }
        let index = TraceIndex {
            events_offset,
            segments,
        };
        let section = index.to_bytes();
        let digest = fnv1a_64(&section);
        out.extend_from_slice(&section);
        out.extend_from_slice(&(section.len() as u64).to_le_bytes());
        out.extend_from_slice(&digest.to_le_bytes());
        out.extend_from_slice(&TRAILER_MAGIC);
        out
    }
}

/// Closes a segment under construction: fixes its length and digest
/// from the bytes encoded since its offset.
fn seal_segment(mut seg: SegmentMeta, out: &[u8]) -> SegmentMeta {
    let start = seg.offset as usize;
    seg.len = (out.len() - start) as u64;
    seg.digest = fnv1a_64(&out[start..]);
    seg
}

/// A trace file opened through its index: the header is decoded, the
/// events are not — segments decode on demand, independently, so
/// filtered reads touch only the bytes they need.
///
/// Opening is total and version-transparent:
///
/// * a v2 container with a healthy index opens seekably;
/// * a v2 container whose index is damaged but whose payload is intact
///   falls back to a whole-file decode, recording why in
///   [`fallback`](Self::fallback);
/// * a v1 stream decodes whole and its segments are synthesized in
///   memory at the same [`DEFAULT_SEGMENT_PREFIXES`] markers, so
///   segment-level filters behave identically (synthesized metadata
///   carries zero `offset`/`len`/`digest`, since no per-segment byte
///   ranges exist on disk).
#[derive(Debug)]
pub struct IndexedTrace {
    header: TraceHeader,
    payload: Vec<u8>,
    segments: Vec<SegmentMeta>,
    /// Cumulative event index at each segment's start.
    event_starts: Vec<u64>,
    /// Whole-file decode retained for v1/fallback opens.
    cached: Option<Vec<TraceEvent>>,
    fallback: Option<TraceError>,
}

/// What verifying a trace file's bytes found: a payload that opens
/// seekably through its index, or a trace that had to be decoded whole.
enum Verified {
    /// A healthy v2 container whose payload is `bytes[..payload_len]`.
    Seekable {
        header: TraceHeader,
        payload_len: usize,
        index: TraceIndex,
    },
    /// A v1 stream or an index fallback, fully decoded.
    Decoded(IndexedTrace),
}

impl IndexedTrace {
    /// Opens a trace file from its bytes; see the type docs for the
    /// fallback ladder. Never panics. A seekable open copies the payload;
    /// [`from_vec`](Self::from_vec) keeps an owned buffer instead.
    pub fn from_bytes(bytes: &[u8]) -> Result<IndexedTrace, TraceError> {
        Ok(match IndexedTrace::verify(bytes)? {
            Verified::Seekable {
                header,
                payload_len,
                index,
            } => IndexedTrace::from_parts(header, bytes[..payload_len].to_vec(), index),
            Verified::Decoded(trace) => trace,
        })
    }

    /// [`from_bytes`](Self::from_bytes) over a buffer the caller gives
    /// up: a seekable open keeps `bytes` itself, cut to its payload, so
    /// the file is never held twice.
    pub fn from_vec(mut bytes: Vec<u8>) -> Result<IndexedTrace, TraceError> {
        Ok(match IndexedTrace::verify(&bytes)? {
            Verified::Seekable {
                header,
                payload_len,
                index,
            } => {
                bytes.truncate(payload_len);
                IndexedTrace::from_parts(header, bytes, index)
            }
            Verified::Decoded(trace) => trace,
        })
    }

    /// The one validation path behind both constructors.
    fn verify(bytes: &[u8]) -> Result<Verified, TraceError> {
        match split_container(bytes) {
            Container::V2 { payload, index } => {
                let mut r = Reader::new(payload);
                let (header, event_count) = Trace::decode_header_and_count(&mut r)?;
                let checked = index
                    .validate(payload.len() as u64, event_count)
                    .and_then(|()| {
                        if index.events_offset != r.pos() as u64 {
                            Err(TraceError::CorruptIndex {
                                offset: 0,
                                what: "events offset disagrees with header",
                            })
                        } else {
                            Ok(())
                        }
                    });
                match checked {
                    Ok(()) => {
                        index.verify_payload(payload)?;
                        Ok(Verified::Seekable {
                            header,
                            payload_len: payload.len(),
                            index,
                        })
                    }
                    // The index contradicts the payload; trust the payload.
                    Err(error) => match Trace::from_bytes(payload) {
                        Ok(trace) => Ok(Verified::Decoded(IndexedTrace::synthesize(
                            trace,
                            Some(error),
                        ))),
                        Err(_) => Err(error),
                    },
                }
            }
            Container::V1(payload) => Trace::from_bytes(payload)
                .map(|t| Verified::Decoded(IndexedTrace::synthesize(t, None))),
            Container::DamagedIndex {
                payload: Some(payload),
                error,
            } => match Trace::from_bytes(payload) {
                Ok(trace) => Ok(Verified::Decoded(IndexedTrace::synthesize(
                    trace,
                    Some(error),
                ))),
                Err(_) => Err(error),
            },
            Container::DamagedIndex {
                payload: None,
                error,
            } => Err(error),
        }
    }

    fn from_parts(header: TraceHeader, payload: Vec<u8>, index: TraceIndex) -> IndexedTrace {
        let event_starts = cumulative_starts(&index.segments);
        IndexedTrace {
            header,
            payload,
            segments: index.segments,
            event_starts,
            cached: None,
            fallback: None,
        }
    }

    /// Builds the in-memory form of a fully decoded trace: segments
    /// synthesized at the default markers, events cached.
    fn synthesize(trace: Trace, fallback: Option<TraceError>) -> IndexedTrace {
        let mut segments: Vec<SegmentMeta> = Vec::new();
        let mut open: Option<SegmentMeta> = None;
        for ev in &trace.events {
            let opens = matches!(
                ev,
                TraceEvent::Marker { label }
                    if DEFAULT_SEGMENT_PREFIXES.iter().any(|p| label.starts_with(p))
            );
            if opens || open.is_none() {
                if let Some(seg) = open.take() {
                    segments.push(seg);
                }
                let label = match ev {
                    TraceEvent::Marker { label } if opens => label.clone(),
                    _ => String::new(),
                };
                open = Some(SegmentMeta {
                    label,
                    offset: 0,
                    len: 0,
                    base_ps: 0,
                    min_ps: None,
                    max_ps: None,
                    events: 0,
                    banks: Vec::new(),
                    ops: [0; 10],
                    digest: 0,
                });
            }
            let seg = open.as_mut().expect("a segment was just ensured");
            seg.events += 1;
            seg.ops[event_op_index(ev)] += 1;
            if let Some(bank) = event_bank(ev) {
                if let Err(slot) = seg.banks.binary_search(&bank) {
                    seg.banks.insert(slot, bank);
                }
            }
            if let Some(at) = ev.at() {
                let ps = at.as_ps();
                seg.min_ps = Some(seg.min_ps.map_or(ps, |m| m.min(ps)));
                seg.max_ps = Some(seg.max_ps.map_or(ps, |m| m.max(ps)));
            }
        }
        segments.extend(open);
        let event_starts = cumulative_starts(&segments);
        IndexedTrace {
            header: trace.header,
            payload: Vec::new(),
            segments,
            event_starts,
            cached: Some(trace.events),
            fallback,
        }
    }

    /// The decoded run metadata.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Per-segment metadata, in stream order.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// Index of the first event of segment `i` within the whole stream.
    pub fn segment_event_start(&self, i: usize) -> u64 {
        self.event_starts.get(i).copied().unwrap_or(0)
    }

    /// Whether segments decode independently from an on-disk index
    /// (`false` for v1 opens and index-damage fallbacks, which decoded
    /// the whole payload up front).
    pub fn is_indexed(&self) -> bool {
        self.cached.is_none()
    }

    /// Why the on-disk index was discarded, when it was.
    pub fn fallback(&self) -> Option<&TraceError> {
        self.fallback.as_ref()
    }

    /// Total event count across all segments.
    pub fn event_count(&self) -> u64 {
        self.segments.iter().map(|s| s.events).sum()
    }

    /// Decodes the events of segment `i` only.
    pub fn decode_segment(&self, i: usize) -> Result<Vec<TraceEvent>, TraceError> {
        let mut events = Vec::with_capacity(self.segments.get(i).map_or(0, |s| s.events as usize));
        self.for_each_event(i, |ev| events.push(ev))?;
        Ok(events)
    }

    /// Decodes the events of segment `i` one at a time, handing each to
    /// `f` in stream order without collecting the segment. On an error,
    /// `f` has seen the events before the damage.
    pub(crate) fn for_each_event(
        &self,
        i: usize,
        mut f: impl FnMut(TraceEvent),
    ) -> Result<(), TraceError> {
        let seg = self.segments.get(i).ok_or(TraceError::CorruptIndex {
            offset: 0,
            what: "segment index out of range",
        })?;
        if let Some(events) = &self.cached {
            let start = self.event_starts[i] as usize;
            events[start..start + seg.events as usize]
                .iter()
                .cloned()
                .for_each(f);
            return Ok(());
        }
        let start = seg.offset as usize;
        let bytes = &self.payload[start..start + seg.len as usize];
        let mut r = Reader::new(bytes);
        let mut prev_ps = seg.base_ps;
        for index in 0..seg.events {
            r.enter_event(self.event_starts[i] + index);
            f(format::decode_event(&mut r, &mut prev_ps)?);
        }
        if r.remaining() != 0 {
            return Err(TraceError::CorruptIndex {
                offset: start + r.pos(),
                what: "segment bytes extend past its event count",
            });
        }
        Ok(())
    }

    /// Decodes every segment in stream order and reassembles the whole
    /// trace — equal to [`Trace::from_bytes`] on the payload; the first
    /// damaged segment's error wins.
    pub fn decode_all(&self) -> Result<Trace, TraceError> {
        let mut events = Vec::with_capacity(self.event_count() as usize);
        for i in 0..self.segments.len() {
            self.for_each_event(i, |ev| events.push(ev))?;
        }
        Ok(Trace {
            header: self.header.clone(),
            events,
        })
    }
}

/// Cumulative event-start indices for a segment list.
fn cumulative_starts(segments: &[SegmentMeta]) -> Vec<u64> {
    let mut starts = Vec::with_capacity(segments.len());
    let mut total = 0u64;
    for seg in segments {
        starts.push(total);
        total += seg.events;
    }
    starts
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::chip::Command;
    use dram_sim::sink::CommandOutcome;
    use dram_sim::time::Time;

    fn marked_trace() -> Trace {
        let mut events = vec![TraceEvent::SetTemperature { celsius: 45.0 }];
        for (shard, bank) in [(0u32, 0u32), (1, 1), (2, 3)] {
            events.push(TraceEvent::Marker {
                label: format!("shard:bank={shard}"),
            });
            for i in 0..4u64 {
                events.push(TraceEvent::Command {
                    cmd: Command::Activate {
                        bank,
                        row: i as u32,
                    },
                    at: Time::from_ns(10 + i * 5),
                    outcome: CommandOutcome::Accepted,
                });
                events.push(TraceEvent::Command {
                    cmd: Command::Precharge { bank },
                    at: Time::from_ns(12 + i * 5),
                    outcome: CommandOutcome::Accepted,
                });
            }
        }
        Trace {
            header: TraceHeader {
                profile_label: "test".into(),
                seed: 7,
                geometry_hash: 9,
                dossier_digest: None,
                dropped: 0,
                meta: vec![],
            },
            events,
        }
    }

    #[test]
    fn v2_payload_is_byte_identical_to_v1() {
        let trace = marked_trace();
        let v1 = trace.to_bytes();
        let v2 = trace.to_bytes_indexed();
        assert!(v2.len() > v1.len());
        assert_eq!(&v2[..v1.len()], &v1[..]);
        assert_eq!(&v2[v2.len() - 8..], &TRAILER_MAGIC);
        match split_container(&v2) {
            Container::V2 { payload, index } => {
                assert_eq!(payload, &v1[..]);
                assert_eq!(index.segments.len(), 4);
                assert_eq!(index.segments[0].label, "");
                assert_eq!(index.segments[1].label, "shard:bank=0");
                index
                    .validate(v1.len() as u64, trace.events.len() as u64)
                    .expect("valid");
                index.verify_payload(payload).expect("digests match");
            }
            other => panic!("expected V2, got {other:?}"),
        }
        // A v1 stream classifies as V1.
        assert!(matches!(split_container(&v1), Container::V1(_)));
    }

    #[test]
    fn owned_open_matches_borrowed_open() {
        let trace = marked_trace();
        let v1 = trace.to_bytes();
        let v2 = trace.to_bytes_indexed();
        // Every outcome of the ladder: v1, v2, every truncation, and a
        // flip of every footer byte (errors and index fallbacks).
        let mut inputs = vec![v1.clone(), v2.clone()];
        inputs.extend((0..v2.len()).map(|len| v2[..len].to_vec()));
        inputs.extend((v1.len()..v2.len()).map(|i| {
            let mut bytes = v2.clone();
            bytes[i] ^= 0xff;
            bytes
        }));
        for bytes in inputs {
            let borrowed = format!("{:?}", IndexedTrace::from_bytes(&bytes));
            assert_eq!(format!("{:?}", IndexedTrace::from_vec(bytes)), borrowed);
        }
        // A seekable owned open keeps only the payload.
        let owned = IndexedTrace::from_vec(v2).expect("opens");
        assert!(owned.is_indexed());
        assert_eq!(owned.payload, v1);
    }

    #[test]
    fn indexed_open_decodes_segments_independently() {
        let trace = marked_trace();
        let v2 = trace.to_bytes_indexed();
        let opened = IndexedTrace::from_bytes(&v2).expect("opens");
        assert!(opened.is_indexed());
        assert!(opened.fallback().is_none());
        assert_eq!(opened.header(), &trace.header);
        assert_eq!(opened.event_count(), trace.events.len() as u64);
        // Segment 2 alone equals the split_at_markers slice.
        let split = trace.split_at_markers("shard:bank=");
        assert_eq!(opened.decode_segment(1).expect("decodes"), split[1].events);
        // Reassembly equals the whole decode.
        assert_eq!(
            opened.decode_all().expect("decodes"),
            Trace::from_bytes(&trace.to_bytes()).expect("v1")
        );
        assert_eq!(decode_container(&v2).expect("decodes"), trace);
    }

    #[test]
    fn v1_open_synthesizes_equivalent_segments() {
        let trace = marked_trace();
        let v1 = trace.to_bytes();
        let opened = IndexedTrace::from_bytes(&v1).expect("opens");
        assert!(!opened.is_indexed());
        assert!(opened.fallback().is_none());
        let v2 = trace.to_bytes_indexed();
        let indexed = IndexedTrace::from_bytes(&v2).expect("opens");
        // Synthesized metadata matches the real index everywhere except
        // the byte-range fields, which do not exist without an index.
        assert_eq!(opened.segments().len(), indexed.segments().len());
        for (synth, real) in opened.segments().iter().zip(indexed.segments()) {
            assert_eq!(synth.label, real.label);
            assert_eq!(synth.events, real.events);
            assert_eq!(synth.banks, real.banks);
            assert_eq!(synth.ops, real.ops);
            assert_eq!(synth.min_ps, real.min_ps);
            assert_eq!(synth.max_ps, real.max_ps);
            assert_eq!((synth.offset, synth.len, synth.digest), (0, 0, 0));
        }
        for i in 0..opened.segments().len() {
            assert_eq!(
                opened.decode_segment(i).expect("decodes"),
                indexed.decode_segment(i).expect("decodes")
            );
        }
    }

    #[test]
    fn damaged_index_falls_back_to_intact_payload() {
        let trace = marked_trace();
        let v2 = trace.to_bytes_indexed();
        let v1_len = trace.to_bytes().len();
        // Flip a byte inside the index section: digest check trips,
        // payload is intact, the open falls back and still decodes.
        let mut damaged = v2.clone();
        damaged[v1_len + 2] ^= 0xff;
        let opened = IndexedTrace::from_bytes(&damaged).expect("falls back");
        assert!(!opened.is_indexed());
        assert!(matches!(
            opened.fallback(),
            Some(TraceError::CorruptIndex { .. })
        ));
        assert_eq!(opened.decode_all().expect("decodes"), trace);
        assert_eq!(decode_container(&damaged).expect("decodes"), trace);
        // Flip a payload byte under an intact index: the segment digest
        // catches it.
        let mut corrupt_payload = v2.clone();
        corrupt_payload[v1_len - 3] ^= 0xff;
        match IndexedTrace::from_bytes(&corrupt_payload) {
            Err(
                TraceError::Corrupt { .. }
                | TraceError::CorruptIndex { .. }
                | TraceError::TruncatedEvents { .. },
            ) => {}
            other => panic!("payload corruption must error, got {other:?}"),
        }
        // Destroy the length field so the payload cannot be located.
        let mut unlocatable = v2.clone();
        let len_at = v2.len() - TRAILER_LEN;
        unlocatable[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            IndexedTrace::from_bytes(&unlocatable),
            Err(TraceError::CorruptIndex {
                what: "index length exceeds file",
                ..
            })
        ));
    }

    #[test]
    fn empty_trace_round_trips_through_the_container() {
        let trace = Trace {
            header: marked_trace().header,
            events: vec![],
        };
        let v2 = trace.to_bytes_indexed();
        let opened = IndexedTrace::from_bytes(&v2).expect("opens");
        assert!(opened.is_indexed());
        assert_eq!(opened.segments().len(), 0);
        assert_eq!(opened.decode_all().expect("decodes"), trace);
    }
}
