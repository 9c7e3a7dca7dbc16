//! The v2 segment index: per-segment metadata appended after a v1
//! payload so tools can seek, prune, and decode segments independently.
//!
//! # Layout (index section, all multi-byte scalars little-endian)
//!
//! ```text
//! magic            4 bytes   b"DRIX"
//! version          u16       1
//! flags            u16       must be 0
//! events offset    varint    byte offset of the first event in the payload
//! segment count    varint
//! per segment:
//!   label          varint length + UTF-8 bytes ("" for an unmarked
//!                  leading segment)
//!   offset         varint    byte offset of the segment in the payload
//!   length         varint    byte length of the segment
//!   base ps        varint    delta-decode base: the previous timed
//!                  event's timestamp at the segment's first byte
//!   timed flag     u8        0 = no timed events, 1 = bounds follow
//!   [min ps        varint    smallest timestamp in the segment]
//!   [max ps        varint    largest timestamp in the segment]
//!   event count    varint
//!   bank count     varint    then per bank: varint, strictly increasing
//!   op counts      10 varints, [`SEGMENT_MNEMONICS`] order
//!   digest         u64       fnv1a-64 over the segment's payload bytes
//! ```
//!
//! The index section is followed by a fixed 24-byte trailer — index
//! length `u64`, fnv1a-64 of the index section `u64`, then the 8 magic
//! bytes `b"DRTRIDX1"` — so a reader finds the index from the end of the
//! file without touching the payload, and any damage to the footer is
//! caught by the digest before the index is trusted. Decoding is total:
//! every malformed index maps to [`TraceError::CorruptIndex`], never a
//! panic.

use crate::error::TraceError;
use crate::event::TraceEvent;
use crate::varint;
use dram_sim::chip::Command;
use dram_sim::digest::fnv1a_64;

/// The four magic bytes the index section starts with.
pub const INDEX_MAGIC: [u8; 4] = *b"DRIX";

/// The index format version this build reads and writes.
pub const INDEX_VERSION: u16 = 1;

/// The eight magic bytes a v2 container ends with.
pub const TRAILER_MAGIC: [u8; 8] = *b"DRTRIDX1";

/// Size of the fixed trailer: index length, index digest, magic.
pub const TRAILER_LEN: usize = 24;

/// Marker prefix the characterization pipeline emits at phase
/// boundaries (`phase:structure`, `phase:retention`, ...).
pub const PHASE_MARKER_PREFIX: &str = "phase:";

/// Marker prefix for named sub-phase spans (`span:trr_window`, ...).
pub const SPAN_MARKER_PREFIX: &str = "span:";

/// Marker prefix a sharded recording opens each per-bank segment with
/// (`shard:bank=3`); [`Trace::split_at_markers`](crate::Trace::split_at_markers)
/// on this prefix is the inverse of the sharded concat.
pub const SHARD_MARKER_PREFIX: &str = "shard:bank=";

/// The marker prefixes that open a new segment when building an index,
/// in match order.
pub const DEFAULT_SEGMENT_PREFIXES: [&str; 3] =
    [PHASE_MARKER_PREFIX, SPAN_MARKER_PREFIX, SHARD_MARKER_PREFIX];

/// Mnemonics for the per-segment op counters, in stored order. The
/// first six mirror [`Command::mnemonic`](dram_sim::Command::mnemonic);
/// the rest cover the loop-accelerated and annotation events.
pub const SEGMENT_MNEMONICS: [&str; 10] = [
    "act", "pre", "rd", "wr", "ref", "rfm", "burst", "refw", "temp", "mark",
];

/// Index of `ev`'s op counter in [`SEGMENT_MNEMONICS`].
pub(crate) fn event_op_index(ev: &TraceEvent) -> usize {
    match ev {
        TraceEvent::Command { cmd, .. } => match cmd {
            Command::Activate { .. } => 0,
            Command::Precharge { .. } => 1,
            Command::Read { .. } => 2,
            Command::Write { .. } => 3,
            Command::Refresh => 4,
            Command::Rfm { .. } => 5,
        },
        TraceEvent::Burst { .. } => 6,
        TraceEvent::RefreshWindow { .. } => 7,
        TraceEvent::SetTemperature { .. } => 8,
        TraceEvent::Marker { .. } => 9,
    }
}

/// The mnemonic an event counts under in a segment's op table.
pub fn event_mnemonic(ev: &TraceEvent) -> &'static str {
    SEGMENT_MNEMONICS[event_op_index(ev)]
}

/// The bank an event addresses, if it is bank-scoped (`REF`, refresh
/// windows, temperature changes, and markers have none).
pub fn event_bank(ev: &TraceEvent) -> Option<u32> {
    match ev {
        TraceEvent::Command { cmd, .. } => cmd.bank(),
        TraceEvent::Burst { bank, .. } => Some(*bank),
        TraceEvent::RefreshWindow { .. }
        | TraceEvent::SetTemperature { .. }
        | TraceEvent::Marker { .. } => None,
    }
}

/// Everything the index records about one segment of the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Label of the marker that opened the segment; `""` for the
    /// unmarked leading segment (or the whole file when no marker
    /// matched).
    pub label: String,
    /// Byte offset of the segment within the payload.
    pub offset: u64,
    /// Byte length of the segment.
    pub len: u64,
    /// Timestamp-delta base at the segment's first byte: the previous
    /// timed event's picosecond value, `0` for the first segment.
    /// Timestamps delta-chain across the whole stream, so a segment
    /// cannot be decoded independently without it.
    pub base_ps: u64,
    /// Smallest timestamp in the segment, if it has timed events. For
    /// a monotone stream this is the first timed event's timestamp.
    pub min_ps: Option<u64>,
    /// Largest timestamp in the segment, if it has timed events. For a
    /// monotone stream this is the last timed event's timestamp.
    pub max_ps: Option<u64>,
    /// Number of events in the segment.
    pub events: u64,
    /// Sorted, deduplicated banks addressed by the segment's events.
    pub banks: Vec<u32>,
    /// Event counts per mnemonic, [`SEGMENT_MNEMONICS`] order.
    pub ops: [u64; 10],
    /// fnv1a-64 over the segment's payload bytes.
    pub digest: u64,
}

impl SegmentMeta {
    /// The count recorded for `mnemonic`, `0` for unknown names.
    pub fn op_count(&self, mnemonic: &str) -> u64 {
        SEGMENT_MNEMONICS
            .iter()
            .position(|m| *m == mnemonic)
            .map_or(0, |i| self.ops[i])
    }

    /// Whether any event in the segment addresses `bank`.
    pub fn has_bank(&self, bank: u32) -> bool {
        self.banks.binary_search(&bank).is_ok()
    }

    /// Whether the segment's timestamp bounds intersect the inclusive
    /// range `[from, to]` (either bound optional). A segment without
    /// timed events cannot overlap a bounded range.
    pub fn overlaps_ps(&self, from: Option<u64>, to: Option<u64>) -> bool {
        if from.is_none() && to.is_none() {
            return true;
        }
        let (Some(min), Some(max)) = (self.min_ps, self.max_ps) else {
            return false;
        };
        from.is_none_or(|f| max >= f) && to.is_none_or(|t| min <= t)
    }
}

/// The decoded index of a v2 container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceIndex {
    /// Byte offset of the first event in the payload (end of the v1
    /// header); equal to the payload length when there are no events.
    pub events_offset: u64,
    /// Per-segment metadata, in payload order.
    pub segments: Vec<SegmentMeta>,
}

impl TraceIndex {
    /// Serializes the index section (without the trailer). Byte-stable:
    /// the same index always encodes to the same bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.segments.len() * 48);
        out.extend_from_slice(&INDEX_MAGIC);
        out.extend_from_slice(&INDEX_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        varint::encode_u64(&mut out, self.events_offset);
        varint::encode_u64(&mut out, self.segments.len() as u64);
        for seg in &self.segments {
            varint::encode_u64(&mut out, seg.label.len() as u64);
            out.extend_from_slice(seg.label.as_bytes());
            varint::encode_u64(&mut out, seg.offset);
            varint::encode_u64(&mut out, seg.len);
            varint::encode_u64(&mut out, seg.base_ps);
            match (seg.min_ps, seg.max_ps) {
                (Some(min), Some(max)) => {
                    out.push(1);
                    varint::encode_u64(&mut out, min);
                    varint::encode_u64(&mut out, max);
                }
                _ => out.push(0),
            }
            varint::encode_u64(&mut out, seg.events);
            varint::encode_u64(&mut out, seg.banks.len() as u64);
            for bank in &seg.banks {
                varint::encode_u64(&mut out, u64::from(*bank));
            }
            for count in &seg.ops {
                varint::encode_u64(&mut out, *count);
            }
            out.extend_from_slice(&seg.digest.to_le_bytes());
        }
        out
    }

    /// Decodes an index section. Total: every malformed input yields
    /// [`TraceError::CorruptIndex`] with the offset of the damage,
    /// never a panic. Offsets are relative to the section start.
    pub fn from_bytes(buf: &[u8]) -> Result<TraceIndex, TraceError> {
        let mut r = IndexReader { buf, pos: 0 };
        let magic = r.take(4, "index magic")?;
        if magic != INDEX_MAGIC {
            return Err(corrupt(0, "bad index magic"));
        }
        let version = r.u16_le("index version")?;
        if version != INDEX_VERSION {
            return Err(corrupt(4, "unsupported index version"));
        }
        let flags = r.u16_le("index flags")?;
        if flags != 0 {
            return Err(corrupt(6, "unknown index flag bits"));
        }
        let events_offset = r.varint("events offset")?;
        let count = r.varint("segment count")?;
        if count > r.remaining() as u64 {
            return Err(corrupt(r.pos, "segment count exceeds remaining input"));
        }
        let mut segments = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let label = r.string("segment label")?;
            let offset = r.varint("segment offset")?;
            let len = r.varint("segment length")?;
            let base_ps = r.varint("segment base ps")?;
            let (min_ps, max_ps) = match r.u8("segment timed flag")? {
                0 => (None, None),
                1 => {
                    let min = r.varint("segment min ps")?;
                    let max = r.varint("segment max ps")?;
                    if min > max {
                        return Err(corrupt(r.pos, "segment time bounds reversed"));
                    }
                    (Some(min), Some(max))
                }
                _ => return Err(corrupt(r.pos, "unknown segment timed flag")),
            };
            let events = r.varint("segment event count")?;
            let bank_count = r.varint("segment bank count")?;
            if bank_count > r.remaining() as u64 {
                return Err(corrupt(r.pos, "bank count exceeds remaining input"));
            }
            let mut banks = Vec::with_capacity(bank_count as usize);
            for _ in 0..bank_count {
                let bank = r.varint("segment bank")?;
                let bank =
                    u32::try_from(bank).map_err(|_| corrupt(r.pos, "segment bank exceeds u32"))?;
                if banks.last().is_some_and(|prev| *prev >= bank) {
                    return Err(corrupt(r.pos, "segment banks not strictly increasing"));
                }
                banks.push(bank);
            }
            let mut ops = [0u64; 10];
            for slot in &mut ops {
                *slot = r.varint("segment op count")?;
            }
            let op_total: u64 = ops
                .iter()
                .try_fold(0u64, |acc, c| acc.checked_add(*c))
                .ok_or_else(|| corrupt(r.pos, "segment op counts overflow"))?;
            if op_total != events {
                return Err(corrupt(
                    r.pos,
                    "segment op counts disagree with event count",
                ));
            }
            if events == 0 {
                return Err(corrupt(r.pos, "empty segment"));
            }
            let digest = r.u64_le("segment digest")?;
            segments.push(SegmentMeta {
                label,
                offset,
                len,
                base_ps,
                min_ps,
                max_ps,
                events,
                banks,
                ops,
                digest,
            });
        }
        if r.remaining() != 0 {
            return Err(corrupt(r.pos, "trailing bytes after last segment entry"));
        }
        Ok(TraceIndex {
            events_offset,
            segments,
        })
    }

    /// Checks the index against the payload it claims to describe:
    /// segments must tile the event region contiguously and their event
    /// counts must sum to the header's declared count.
    pub fn validate(&self, payload_len: u64, header_event_count: u64) -> Result<(), TraceError> {
        if self.events_offset > payload_len {
            return Err(corrupt(0, "events offset beyond payload"));
        }
        let mut cursor = self.events_offset;
        let mut events = 0u64;
        for seg in &self.segments {
            if seg.offset != cursor {
                return Err(corrupt(0, "segments do not tile the payload"));
            }
            cursor = cursor
                .checked_add(seg.len)
                .ok_or_else(|| corrupt(0, "segment length overflow"))?;
            events = events
                .checked_add(seg.events)
                .ok_or_else(|| corrupt(0, "segment event counts overflow"))?;
        }
        if cursor != payload_len {
            return Err(corrupt(0, "segments do not cover the payload"));
        }
        if events != header_event_count {
            return Err(corrupt(0, "segment event counts disagree with header"));
        }
        Ok(())
    }

    /// Verifies every segment digest against the payload bytes.
    pub fn verify_payload(&self, payload: &[u8]) -> Result<(), TraceError> {
        for seg in &self.segments {
            let (Ok(start), Ok(len)) = (usize::try_from(seg.offset), usize::try_from(seg.len))
            else {
                return Err(corrupt(0, "segment bounds exceed address space"));
            };
            let Some(bytes) = start
                .checked_add(len)
                .and_then(|end| payload.get(start..end))
            else {
                return Err(corrupt(0, "segment bounds beyond payload"));
            };
            if fnv1a_64(bytes) != seg.digest {
                return Err(TraceError::Corrupt {
                    offset: start,
                    what: "segment payload digest mismatch",
                });
            }
        }
        Ok(())
    }
}

fn corrupt(offset: usize, what: &'static str) -> TraceError {
    TraceError::CorruptIndex { offset, what }
}

/// Bounds-checked cursor over an index section; every failure maps to
/// [`TraceError::CorruptIndex`].
struct IndexReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> IndexReader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], TraceError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| corrupt(self.pos, what))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| corrupt(self.pos, what))?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, TraceError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16_le(&mut self, what: &'static str) -> Result<u16, TraceError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u64_le(&mut self, what: &'static str) -> Result<u64, TraceError> {
        let b = self.take(8, what)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    fn varint(&mut self, what: &'static str) -> Result<u64, TraceError> {
        varint::decode_u64(self.buf, &mut self.pos).map_err(|_| corrupt(self.pos, what))
    }

    fn string(&mut self, what: &'static str) -> Result<String, TraceError> {
        let len = self.varint(what)?;
        if len > self.remaining() as u64 {
            return Err(corrupt(self.pos, what));
        }
        let bytes = self.take(len as usize, what)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| corrupt(self.pos, "invalid UTF-8 in segment label"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> TraceIndex {
        TraceIndex {
            events_offset: 40,
            segments: vec![
                SegmentMeta {
                    label: String::new(),
                    offset: 40,
                    len: 12,
                    base_ps: 0,
                    min_ps: Some(1_000),
                    max_ps: Some(5_000),
                    events: 3,
                    banks: vec![0, 2],
                    ops: [2, 0, 0, 0, 0, 0, 0, 0, 0, 1],
                    digest: 0xdead_beef,
                },
                SegmentMeta {
                    label: "shard:bank=1".into(),
                    offset: 52,
                    len: 9,
                    base_ps: 5_000,
                    min_ps: None,
                    max_ps: None,
                    events: 2,
                    banks: vec![],
                    ops: [0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
                    digest: 7,
                },
            ],
        }
    }

    #[test]
    fn index_round_trips_and_is_byte_stable() {
        let index = sample_index();
        let bytes = index.to_bytes();
        assert_eq!(bytes, index.to_bytes());
        let back = TraceIndex::from_bytes(&bytes).expect("round trip decodes");
        assert_eq!(back, index);
        assert!(index.validate(61, 5).is_ok());
    }

    #[test]
    fn validate_rejects_gaps_and_count_mismatches() {
        let index = sample_index();
        assert!(matches!(
            index.validate(60, 5),
            Err(TraceError::CorruptIndex {
                what: "segments do not cover the payload",
                ..
            })
        ));
        assert!(matches!(
            index.validate(61, 6),
            Err(TraceError::CorruptIndex {
                what: "segment event counts disagree with header",
                ..
            })
        ));
        let mut gap = sample_index();
        gap.segments[1].offset += 1;
        assert!(matches!(
            gap.validate(62, 5),
            Err(TraceError::CorruptIndex {
                what: "segments do not tile the payload",
                ..
            })
        ));
    }

    #[test]
    fn every_truncation_point_is_a_structured_error() {
        let bytes = sample_index().to_bytes();
        for len in 0..bytes.len() {
            let err = TraceIndex::from_bytes(&bytes[..len]).expect_err("prefix must not decode");
            assert!(
                matches!(err, TraceError::CorruptIndex { .. }),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn structural_damage_is_reported() {
        let mut bytes = sample_index().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            TraceIndex::from_bytes(&bytes),
            Err(TraceError::CorruptIndex {
                what: "bad index magic",
                ..
            })
        ));
        let mut bytes = sample_index().to_bytes();
        bytes[4] = 9;
        assert!(matches!(
            TraceIndex::from_bytes(&bytes),
            Err(TraceError::CorruptIndex {
                what: "unsupported index version",
                ..
            })
        ));
        let mut bytes = sample_index().to_bytes();
        bytes.push(0);
        assert!(matches!(
            TraceIndex::from_bytes(&bytes),
            Err(TraceError::CorruptIndex {
                what: "trailing bytes after last segment entry",
                ..
            })
        ));
    }

    #[test]
    fn segment_meta_answers_pruning_questions() {
        let seg = sample_index().segments[0].clone();
        assert_eq!(seg.op_count("act"), 2);
        assert_eq!(seg.op_count("mark"), 1);
        assert_eq!(seg.op_count("nonsense"), 0);
        assert!(seg.has_bank(2));
        assert!(!seg.has_bank(1));
        assert!(seg.overlaps_ps(None, None));
        assert!(seg.overlaps_ps(Some(0), Some(1_000)));
        assert!(seg.overlaps_ps(Some(5_000), None));
        assert!(!seg.overlaps_ps(Some(5_001), None));
        assert!(!seg.overlaps_ps(None, Some(999)));
        // A segment without timed events never overlaps a bounded range.
        let untimed = sample_index().segments[1].clone();
        assert!(untimed.overlaps_ps(None, None));
        assert!(!untimed.overlaps_ps(Some(0), None));
    }

    #[test]
    fn command_op_counters_mirror_command_mnemonics() {
        for cmd in [
            Command::Activate { bank: 1, row: 2 },
            Command::Precharge { bank: 1 },
            Command::Read { bank: 1, col: 3 },
            Command::Write {
                bank: 1,
                col: 3,
                data: 4,
            },
            Command::Refresh,
            Command::Rfm { bank: 1 },
        ] {
            let ev = TraceEvent::Command {
                cmd,
                at: dram_sim::time::Time::from_ns(1),
                outcome: dram_sim::sink::CommandOutcome::Accepted,
            };
            assert_eq!(event_mnemonic(&ev), cmd.mnemonic());
        }
    }
}
