//! The versioned binary trace format, its encoder/decoder, and the
//! human-readable dump.
//!
//! # Layout (version 1, all multi-byte scalars little-endian)
//!
//! ```text
//! magic            4 bytes   b"DRTR"
//! version          u16       1
//! flags            u16       bit 0: dossier digest present; others must be 0
//! seed             u64       chip RNG seed the run was recorded with
//! geometry hash    u64       fnv1a-64 over the profile geometry (see
//!                            [`geometry_hash`](crate::geometry_hash))
//! profile label    varint length + UTF-8 bytes
//! dossier digest   u64       only if flags bit 0 is set
//! dropped          varint    events the recorder's ring buffer discarded
//! meta count       varint    then per pair: key string, value string
//! event count      varint
//! events           ...       see below
//! ```
//!
//! Each event starts with a one-byte opcode. Timed events (opcodes 1–8)
//! follow it with the timestamp as a zigzag varint delta in picoseconds
//! from the previous timed event, then their payload, then the outcome.
//! `TEMP` (9) carries the `f64` bits as 8 raw bytes; `MARK` (10) carries a
//! length-prefixed UTF-8 label. An outcome is one tag byte — `0` accepted,
//! `1` data (+ varint), `2` rejected (+ error code byte and its varint
//! payloads).
//!
//! Decoding is total: any truncation or structural damage yields a
//! [`TraceError`], never a panic, and unknown opcodes/flags/tags are
//! rejected rather than skipped so a trace cannot silently lose events.

use crate::error::TraceError;
use crate::event::TraceEvent;
use crate::varint::{self, VarintFault};
use dram_sim::chip::{Command, CommandError};
use dram_sim::sink::CommandOutcome;
use dram_sim::time::Time;
use std::fmt::Write as _;

/// The four magic bytes every trace stream starts with.
pub const MAGIC: [u8; 4] = *b"DRTR";

/// The trace format version this build reads and writes.
pub const VERSION: u16 = 1;

/// Header flag bit: the header carries a dossier digest.
const FLAG_DOSSIER_DIGEST: u16 = 1 << 0;

/// Placeholder message for `CommandError::Internal` payloads, whose
/// `&'static str` cannot survive deserialization. The original message is
/// preserved in the byte stream (and shown by `dump`) but a decoded trace
/// carries this fixed marker instead; internal errors indicate simulator
/// bugs and never occur in a healthy recording.
pub const INTERNAL_ERROR_PLACEHOLDER: &str = "(recorded internal error)";

/// Everything known about a recorded run besides its events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Label of the chip profile the run used, e.g. `"Mfr. A x4 2016"`.
    pub profile_label: String,
    /// Chip RNG seed of the run.
    pub seed: u64,
    /// [`geometry_hash`](crate::geometry_hash) of the profile at record
    /// time; replay refuses a trace whose geometry no longer matches.
    pub geometry_hash: u64,
    /// FNV-1a 64 digest of the run's rendered dossier, when the recording
    /// wrapped a full characterization.
    pub dossier_digest: Option<u64>,
    /// Events the recorder's ring buffer discarded (oldest-first). A
    /// value above zero marks the trace as partial.
    pub dropped: u64,
    /// Free-form key/value pairs (e.g. the characterization options used).
    pub meta: Vec<(String, String)>,
}

impl TraceHeader {
    /// Looks up a meta value by key (first match).
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A decoded (or freshly recorded) command trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Run metadata.
    pub header: TraceHeader,
    /// The events, in issue order, with absolute timestamps.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Appends the header section — everything up to and including the
    /// event count varint — exactly as [`to_bytes`](Self::to_bytes)
    /// writes it. Shared with the indexed container writer in
    /// [`lake`](crate::lake) so a v2 payload is byte-identical to v1.
    pub(crate) fn encode_header_and_count(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        let mut flags = 0u16;
        if self.header.dossier_digest.is_some() {
            flags |= FLAG_DOSSIER_DIGEST;
        }
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(&self.header.seed.to_le_bytes());
        out.extend_from_slice(&self.header.geometry_hash.to_le_bytes());
        put_str(out, &self.header.profile_label);
        if let Some(digest) = self.header.dossier_digest {
            out.extend_from_slice(&digest.to_le_bytes());
        }
        varint::encode_u64(out, self.header.dropped);
        varint::encode_u64(out, self.header.meta.len() as u64);
        for (key, value) in &self.header.meta {
            put_str(out, key);
            put_str(out, value);
        }
        varint::encode_u64(out, self.events.len() as u64);
    }

    /// Serializes the trace into the version-1 binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.events.len() * 4);
        self.encode_header_and_count(&mut out);
        let mut prev_ps = 0u64;
        for ev in &self.events {
            encode_event(&mut out, ev, &mut prev_ps);
        }
        out
    }

    /// Decodes the header section, leaving the reader positioned at the
    /// first event, and returns the header with the declared event count.
    pub(crate) fn decode_header_and_count(
        r: &mut Reader<'_>,
    ) -> Result<(TraceHeader, u64), TraceError> {
        let magic = r.take(4)?;
        if magic != MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(magic);
            return Err(TraceError::BadMagic { found });
        }
        let version = r.u16_le()?;
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let flags = r.u16_le()?;
        if flags & !FLAG_DOSSIER_DIGEST != 0 {
            return Err(r.corrupt("unknown header flag bits"));
        }
        let seed = r.u64_le()?;
        let geometry_hash = r.u64_le()?;
        let profile_label = r.string()?;
        let dossier_digest = if flags & FLAG_DOSSIER_DIGEST != 0 {
            Some(r.u64_le()?)
        } else {
            None
        };
        let dropped = r.varint()?;
        let meta_count = r.varint()?;
        // Each meta pair needs at least two length bytes; an impossible
        // count is corruption, not an allocation request.
        if meta_count > r.remaining() as u64 {
            return Err(r.corrupt("meta count exceeds remaining input"));
        }
        let mut meta = Vec::with_capacity(meta_count as usize);
        for _ in 0..meta_count {
            let key = r.string()?;
            let value = r.string()?;
            meta.push((key, value));
        }
        let event_count = r.varint()?;
        if event_count > r.remaining() as u64 {
            return Err(r.corrupt("event count exceeds remaining input"));
        }
        Ok((
            TraceHeader {
                profile_label,
                seed,
                geometry_hash,
                dossier_digest,
                dropped,
                meta,
            },
            event_count,
        ))
    }

    /// Decodes a version-1 binary trace. Never panics: malformed input of
    /// any kind yields a [`TraceError`].
    pub fn from_bytes(buf: &[u8]) -> Result<Trace, TraceError> {
        let mut r = Reader::new(buf);
        let (header, event_count) = Self::decode_header_and_count(&mut r)?;
        let mut events = Vec::with_capacity(event_count as usize);
        let mut prev_ps = 0u64;
        for index in 0..event_count {
            r.enter_event(index);
            events.push(decode_event(&mut r, &mut prev_ps)?);
        }
        if r.remaining() != 0 {
            return Err(r.corrupt("trailing bytes after last event"));
        }
        Ok(Trace { header, events })
    }

    /// Concatenates per-shard trace segments into one stream, in the
    /// order given.
    ///
    /// Every segment must agree on profile label, seed, and geometry
    /// hash — they were recorded against clones of one device, and a
    /// mismatch means the caller mixed runs. `dropped` counts sum; the
    /// result carries no dossier digest and no meta (run-level identity
    /// belongs to the caller, who knows what the merged stream means).
    ///
    /// Concatenation is deterministic: the merged event stream is
    /// exactly the segments' streams back to back, and the delta
    /// timestamp encoding is signed, so a later segment restarting its
    /// clock at zero round-trips through bytes unchanged.
    ///
    /// # Errors
    ///
    /// [`TraceError::SegmentMismatch`] on an empty segment list or
    /// disagreeing identity fields.
    pub fn concat(segments: &[Trace]) -> Result<Trace, TraceError> {
        let first = segments.first().ok_or(TraceError::SegmentMismatch {
            what: "no segments",
        })?;
        for s in segments {
            if s.header.profile_label != first.header.profile_label {
                return Err(TraceError::SegmentMismatch {
                    what: "profile label",
                });
            }
            if s.header.seed != first.header.seed {
                return Err(TraceError::SegmentMismatch { what: "seed" });
            }
            if s.header.geometry_hash != first.header.geometry_hash {
                return Err(TraceError::SegmentMismatch {
                    what: "geometry hash",
                });
            }
        }
        Ok(Trace {
            header: TraceHeader {
                profile_label: first.header.profile_label.clone(),
                seed: first.header.seed,
                geometry_hash: first.header.geometry_hash,
                dossier_digest: None,
                dropped: segments.iter().map(|s| s.header.dropped).sum(),
                meta: Vec::new(),
            },
            events: segments
                .iter()
                .flat_map(|s| s.events.iter().cloned())
                .collect(),
        })
    }

    /// Splits the event stream into segments at every marker whose label
    /// starts with `prefix` (each matching marker opens a new segment
    /// and stays as its first event). Events before the first matching
    /// marker, if any, form a leading segment of their own; a trace with
    /// no matching markers comes back as one segment.
    ///
    /// Each segment clones this trace's header minus the dossier digest
    /// (a digest describes the whole run, not a slice of it), so a
    /// segment is itself a replayable trace. The exact inverse of
    /// [`concat`](Self::concat) for streams whose shards each open with
    /// such a marker.
    pub fn split_at_markers(&self, prefix: &str) -> Vec<Trace> {
        let segment_header = TraceHeader {
            dossier_digest: None,
            ..self.header.clone()
        };
        let mut segments: Vec<Trace> = Vec::new();
        for ev in &self.events {
            let opens = matches!(ev, TraceEvent::Marker { label } if label.starts_with(prefix));
            if opens || segments.is_empty() {
                segments.push(Trace {
                    header: segment_header.clone(),
                    events: Vec::new(),
                });
            }
            segments
                .last_mut()
                .expect("a segment was just ensured")
                .events
                .push(ev.clone());
        }
        segments
    }

    /// Renders the trace as human-readable text: a commented header
    /// followed by one numbered line per event.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# dram-trace v{VERSION}");
        let _ = writeln!(out, "# profile: {}", self.header.profile_label);
        let _ = writeln!(out, "# seed: {}", self.header.seed);
        let _ = writeln!(out, "# geometry: {:#018x}", self.header.geometry_hash);
        match self.header.dossier_digest {
            Some(d) => {
                let _ = writeln!(out, "# dossier digest: {d:#018x}");
            }
            None => {
                let _ = writeln!(out, "# dossier digest: none");
            }
        }
        let _ = writeln!(out, "# dropped: {}", self.header.dropped);
        for (key, value) in &self.header.meta {
            let _ = writeln!(out, "# meta {key} = {value}");
        }
        let _ = writeln!(out, "# events: {}", self.events.len());
        for (i, ev) in self.events.iter().enumerate() {
            let _ = writeln!(out, "{i:>8} {ev}");
        }
        out
    }
}

/// Appends a length-prefixed UTF-8 string.
fn put_str(out: &mut Vec<u8>, s: &str) {
    varint::encode_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

// Event opcodes. 1–6 mirror the `Command` variants; 7–8 are the
// loop-accelerated entry points; 9–10 are untimed annotations.
const OP_ACT: u8 = 1;
const OP_PRE: u8 = 2;
const OP_RD: u8 = 3;
const OP_WR: u8 = 4;
const OP_REF: u8 = 5;
const OP_RFM: u8 = 6;
const OP_BURST: u8 = 7;
const OP_REFW: u8 = 8;
const OP_TEMP: u8 = 9;
const OP_MARK: u8 = 10;

// Outcome tags.
const OUT_ACCEPTED: u8 = 0;
const OUT_DATA: u8 = 1;
const OUT_REJECTED: u8 = 2;

pub(crate) fn encode_event(out: &mut Vec<u8>, ev: &TraceEvent, prev_ps: &mut u64) {
    // Timestamps round-trip exactly for every u64 because the delta is
    // computed and re-applied with wrapping arithmetic.
    let mut put_delta = |out: &mut Vec<u8>, at: Time| {
        varint::encode_i64(out, at.as_ps().wrapping_sub(*prev_ps) as i64);
        *prev_ps = at.as_ps();
    };
    match ev {
        TraceEvent::Command { cmd, at, outcome } => {
            match *cmd {
                Command::Activate { bank, row } => {
                    out.push(OP_ACT);
                    put_delta(out, *at);
                    varint::encode_u64(out, bank as u64);
                    varint::encode_u64(out, row as u64);
                }
                Command::Precharge { bank } => {
                    out.push(OP_PRE);
                    put_delta(out, *at);
                    varint::encode_u64(out, bank as u64);
                }
                Command::Read { bank, col } => {
                    out.push(OP_RD);
                    put_delta(out, *at);
                    varint::encode_u64(out, bank as u64);
                    varint::encode_u64(out, col as u64);
                }
                Command::Write { bank, col, data } => {
                    out.push(OP_WR);
                    put_delta(out, *at);
                    varint::encode_u64(out, bank as u64);
                    varint::encode_u64(out, col as u64);
                    varint::encode_u64(out, data);
                }
                Command::Refresh => {
                    out.push(OP_REF);
                    put_delta(out, *at);
                }
                Command::Rfm { bank } => {
                    out.push(OP_RFM);
                    put_delta(out, *at);
                    varint::encode_u64(out, bank as u64);
                }
            }
            encode_outcome(out, outcome);
        }
        TraceEvent::Burst {
            bank,
            row,
            count,
            each_on,
            at,
            outcome,
        } => {
            out.push(OP_BURST);
            put_delta(out, *at);
            varint::encode_u64(out, *bank as u64);
            varint::encode_u64(out, *row as u64);
            varint::encode_u64(out, *count);
            varint::encode_u64(out, each_on.as_ps());
            encode_outcome(out, outcome);
        }
        TraceEvent::RefreshWindow { at, outcome } => {
            out.push(OP_REFW);
            put_delta(out, *at);
            encode_outcome(out, outcome);
        }
        TraceEvent::SetTemperature { celsius } => {
            out.push(OP_TEMP);
            out.extend_from_slice(&celsius.to_bits().to_le_bytes());
        }
        TraceEvent::Marker { label } => {
            out.push(OP_MARK);
            put_str(out, label);
        }
    }
}

fn encode_outcome(out: &mut Vec<u8>, outcome: &CommandOutcome) {
    match outcome {
        CommandOutcome::Accepted => out.push(OUT_ACCEPTED),
        CommandOutcome::Data(d) => {
            out.push(OUT_DATA);
            varint::encode_u64(out, *d);
        }
        CommandOutcome::Rejected(e) => {
            out.push(OUT_REJECTED);
            encode_error(out, e);
        }
    }
}

// Error codes for `CommandError` variants; payload varints follow the
// code for the range variants, a length-prefixed string for `Internal`.
const ERR_BANK: u8 = 0;
const ERR_ROW: u8 = 1;
const ERR_COL: u8 = 2;
const ERR_NO_OPEN_ROW: u8 = 3;
const ERR_ROW_ALREADY_OPEN: u8 = 4;
const ERR_TRCD: u8 = 5;
const ERR_REFRESH_WHILE_OPEN: u8 = 6;
const ERR_TIME_REVERSED: u8 = 7;
const ERR_INTERNAL: u8 = 8;

fn encode_error(out: &mut Vec<u8>, e: &CommandError) {
    match *e {
        CommandError::BankOutOfRange { bank, banks } => {
            out.push(ERR_BANK);
            varint::encode_u64(out, bank as u64);
            varint::encode_u64(out, banks as u64);
        }
        CommandError::RowOutOfRange { row, rows } => {
            out.push(ERR_ROW);
            varint::encode_u64(out, row as u64);
            varint::encode_u64(out, rows as u64);
        }
        CommandError::ColOutOfRange { col, cols } => {
            out.push(ERR_COL);
            varint::encode_u64(out, col as u64);
            varint::encode_u64(out, cols as u64);
        }
        CommandError::NoOpenRow => out.push(ERR_NO_OPEN_ROW),
        CommandError::RowAlreadyOpen => out.push(ERR_ROW_ALREADY_OPEN),
        CommandError::TrcdViolation => out.push(ERR_TRCD),
        CommandError::RefreshWhileOpen => out.push(ERR_REFRESH_WHILE_OPEN),
        CommandError::TimeReversed => out.push(ERR_TIME_REVERSED),
        CommandError::Internal(what) => {
            out.push(ERR_INTERNAL);
            put_str(out, what);
        }
    }
}

/// Decodes one event, the only parser of event bytes. Inlined into the
/// two loops that call it, [`Trace::from_bytes`] and
/// `IndexedTrace::for_each_event`, so each event is built in place
/// rather than returned through memory.
#[inline(always)]
pub(crate) fn decode_event(
    r: &mut Reader<'_>,
    prev_ps: &mut u64,
) -> Result<TraceEvent, TraceError> {
    let opcode = r.u8()?;
    let ev = match opcode {
        OP_ACT => {
            let at = r.timestamp(prev_ps)?;
            let bank = r.varint_u32()?;
            let row = r.varint_u32()?;
            let outcome = decode_outcome(r)?;
            TraceEvent::Command {
                cmd: Command::Activate { bank, row },
                at,
                outcome,
            }
        }
        OP_PRE => {
            let at = r.timestamp(prev_ps)?;
            let bank = r.varint_u32()?;
            let outcome = decode_outcome(r)?;
            TraceEvent::Command {
                cmd: Command::Precharge { bank },
                at,
                outcome,
            }
        }
        OP_RD => {
            let at = r.timestamp(prev_ps)?;
            let bank = r.varint_u32()?;
            let col = r.varint_u32()?;
            let outcome = decode_outcome(r)?;
            TraceEvent::Command {
                cmd: Command::Read { bank, col },
                at,
                outcome,
            }
        }
        OP_WR => {
            let at = r.timestamp(prev_ps)?;
            let bank = r.varint_u32()?;
            let col = r.varint_u32()?;
            let data = r.varint()?;
            let outcome = decode_outcome(r)?;
            TraceEvent::Command {
                cmd: Command::Write { bank, col, data },
                at,
                outcome,
            }
        }
        OP_REF => {
            let at = r.timestamp(prev_ps)?;
            let outcome = decode_outcome(r)?;
            TraceEvent::Command {
                cmd: Command::Refresh,
                at,
                outcome,
            }
        }
        OP_RFM => {
            let at = r.timestamp(prev_ps)?;
            let bank = r.varint_u32()?;
            let outcome = decode_outcome(r)?;
            TraceEvent::Command {
                cmd: Command::Rfm { bank },
                at,
                outcome,
            }
        }
        OP_BURST => {
            let at = r.timestamp(prev_ps)?;
            let bank = r.varint_u32()?;
            let row = r.varint_u32()?;
            let count = r.varint()?;
            let each_on = Time::from_ps(r.varint()?);
            let outcome = decode_outcome(r)?;
            TraceEvent::Burst {
                bank,
                row,
                count,
                each_on,
                at,
                outcome,
            }
        }
        OP_REFW => {
            let at = r.timestamp(prev_ps)?;
            let outcome = decode_outcome(r)?;
            TraceEvent::RefreshWindow { at, outcome }
        }
        OP_TEMP => {
            let bytes = r.take(8)?;
            let mut raw = [0u8; 8];
            raw.copy_from_slice(bytes);
            TraceEvent::SetTemperature {
                celsius: f64::from_bits(u64::from_le_bytes(raw)),
            }
        }
        OP_MARK => {
            let label = r.string()?;
            TraceEvent::Marker { label }
        }
        _ => return Err(r.corrupt("unknown event opcode")),
    };
    Ok(ev)
}

#[inline(always)]
fn decode_outcome(r: &mut Reader<'_>) -> Result<CommandOutcome, TraceError> {
    match r.u8()? {
        OUT_ACCEPTED => Ok(CommandOutcome::Accepted),
        OUT_DATA => Ok(CommandOutcome::Data(r.varint()?)),
        OUT_REJECTED => Ok(CommandOutcome::Rejected(decode_error(r)?)),
        _ => Err(r.corrupt("unknown outcome tag")),
    }
}

fn decode_error(r: &mut Reader<'_>) -> Result<CommandError, TraceError> {
    let code = r.u8()?;
    Ok(match code {
        ERR_BANK => CommandError::BankOutOfRange {
            bank: r.varint_u32()?,
            banks: r.varint_u32()?,
        },
        ERR_ROW => CommandError::RowOutOfRange {
            row: r.varint_u32()?,
            rows: r.varint_u32()?,
        },
        ERR_COL => CommandError::ColOutOfRange {
            col: r.varint_u32()?,
            cols: r.varint_u32()?,
        },
        ERR_NO_OPEN_ROW => CommandError::NoOpenRow,
        ERR_ROW_ALREADY_OPEN => CommandError::RowAlreadyOpen,
        ERR_TRCD => CommandError::TrcdViolation,
        ERR_REFRESH_WHILE_OPEN => CommandError::RefreshWhileOpen,
        ERR_TIME_REVERSED => CommandError::TimeReversed,
        ERR_INTERNAL => {
            // `Internal` holds a `&'static str`; the recorded message is
            // validated and skipped, the decoded value carries a fixed
            // placeholder (see `INTERNAL_ERROR_PLACEHOLDER`).
            let _ = r.string()?;
            CommandError::Internal(INTERNAL_ERROR_PLACEHOLDER)
        }
        _ => return Err(r.corrupt("unknown command error code")),
    })
}

/// Bounds-checked cursor over a trace byte stream that knows which
/// section it is in, so truncation errors carry the right context.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    event: Option<u64>,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            event: None,
        }
    }

    pub(crate) fn enter_event(&mut self, index: u64) {
        self.event = Some(index);
    }

    /// Current byte position within the buffer.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[cold]
    pub(crate) fn truncated(&self) -> TraceError {
        match self.event {
            None => TraceError::TruncatedHeader { offset: self.pos },
            Some(index) => TraceError::TruncatedEvents {
                offset: self.pos,
                index,
            },
        }
    }

    #[cold]
    pub(crate) fn corrupt(&self, what: &'static str) -> TraceError {
        TraceError::Corrupt {
            offset: self.pos,
            what,
        }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| self.corrupt("length overflow"))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| self.truncated())?;
        self.pos = end;
        Ok(slice)
    }

    #[inline(always)]
    pub(crate) fn u8(&mut self) -> Result<u8, TraceError> {
        let byte = *self.buf.get(self.pos).ok_or_else(|| self.truncated())?;
        self.pos += 1;
        Ok(byte)
    }

    pub(crate) fn u16_le(&mut self) -> Result<u16, TraceError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u64_le(&mut self) -> Result<u64, TraceError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    #[inline(always)]
    pub(crate) fn varint(&mut self) -> Result<u64, TraceError> {
        varint::decode_u64(self.buf, &mut self.pos).map_err(|fault| self.varint_fault(fault))
    }

    #[cold]
    fn varint_fault(&self, fault: VarintFault) -> TraceError {
        match fault {
            VarintFault::Truncated => self.truncated(),
            VarintFault::Overflow => self.corrupt("varint overflows u64"),
        }
    }

    /// Reads a timed event's zigzag delta and applies it to `prev_ps`,
    /// the previous timed event's timestamp.
    #[inline(always)]
    pub(crate) fn timestamp(&mut self, prev_ps: &mut u64) -> Result<Time, TraceError> {
        let dt = varint::unzigzag(self.varint()?);
        *prev_ps = prev_ps.wrapping_add(dt as u64);
        Ok(Time::from_ps(*prev_ps))
    }

    #[inline(always)]
    pub(crate) fn varint_u32(&mut self) -> Result<u32, TraceError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| self.corrupt("varint exceeds u32 field"))
    }

    pub(crate) fn string(&mut self) -> Result<String, TraceError> {
        let len = self.varint()?;
        if len > self.remaining() as u64 {
            return Err(self.truncated());
        }
        let bytes = self.take(len as usize)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| TraceError::Corrupt {
                offset: self.pos,
                what: "invalid UTF-8 in string",
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            header: TraceHeader {
                profile_label: "Mfr. B x4 0".into(),
                seed: 0x1234_5678_9abc_def0,
                geometry_hash: 0xfeed_face_cafe_beef,
                dossier_digest: Some(42),
                dropped: 0,
                meta: vec![("scan_rows".into(), "129".into())],
            },
            events: vec![
                TraceEvent::Marker {
                    label: "phase:structure".into(),
                },
                TraceEvent::Command {
                    cmd: Command::Activate { bank: 0, row: 21 },
                    at: Time::from_ns(10),
                    outcome: CommandOutcome::Accepted,
                },
                TraceEvent::Command {
                    cmd: Command::Read { bank: 0, col: 3 },
                    at: Time::from_ns(25),
                    outcome: CommandOutcome::Data(u64::MAX),
                },
                TraceEvent::Command {
                    cmd: Command::Write {
                        bank: 0,
                        col: 3,
                        data: 0xdead,
                    },
                    at: Time::from_ns(30),
                    outcome: CommandOutcome::Rejected(CommandError::TrcdViolation),
                },
                TraceEvent::Command {
                    cmd: Command::Rfm { bank: 1 },
                    at: Time::from_ns(31),
                    outcome: CommandOutcome::Rejected(CommandError::BankOutOfRange {
                        bank: 9,
                        banks: 2,
                    }),
                },
                TraceEvent::SetTemperature { celsius: 85.5 },
                TraceEvent::Burst {
                    bank: 1,
                    row: 7,
                    count: 150_000,
                    each_on: Time::from_ns(36),
                    at: Time::from_ns(40),
                    outcome: CommandOutcome::Accepted,
                },
                TraceEvent::RefreshWindow {
                    at: Time::from_ms(70),
                    outcome: CommandOutcome::Accepted,
                },
                TraceEvent::Command {
                    cmd: Command::Refresh,
                    at: Time::from_ms(140),
                    outcome: CommandOutcome::Accepted,
                },
                TraceEvent::Command {
                    cmd: Command::Precharge { bank: 0 },
                    at: Time::from_ms(141),
                    outcome: CommandOutcome::Rejected(CommandError::NoOpenRow),
                },
            ],
        }
    }

    #[test]
    fn binary_round_trip_preserves_everything() {
        let trace = sample_trace();
        let bytes = trace.to_bytes();
        let back = Trace::from_bytes(&bytes).expect("round trip decodes");
        assert_eq!(back, trace);
    }

    /// A shard-style segment: opens with a `shard:bank=` marker, clock
    /// starting over from near zero like a fresh per-bank testbed.
    fn shard_segment(bank: u32) -> Trace {
        let mut t = sample_trace();
        t.header.dossier_digest = None;
        t.header.meta.clear();
        let mut events = vec![TraceEvent::Marker {
            label: format!("shard:bank={bank}"),
        }];
        events.extend(t.events.iter().cloned());
        t.events = events;
        t
    }

    #[test]
    fn concat_then_split_round_trips_segments() {
        let segments = [shard_segment(0), shard_segment(1), shard_segment(2)];
        let merged = Trace::concat(&segments).expect("one run");
        assert_eq!(
            merged.events.len(),
            segments.iter().map(|s| s.events.len()).sum::<usize>()
        );
        assert_eq!(merged.header.dossier_digest, None);
        // The merged stream survives the binary format even though each
        // segment's clock restarts (negative inter-segment deltas).
        let back = Trace::from_bytes(&merged.to_bytes()).expect("decodes");
        assert_eq!(back, merged);
        // And splits back into exactly the original segment streams.
        let split = back.split_at_markers("shard:bank=");
        assert_eq!(split.len(), segments.len());
        for (got, want) in split.iter().zip(&segments) {
            assert_eq!(got.events, want.events);
        }
    }

    #[test]
    fn split_keeps_a_leading_unmarked_segment_and_whole_traces() {
        let trace = sample_trace();
        // No matching markers: one segment, identical events.
        let whole = trace.split_at_markers("shard:bank=");
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].events, trace.events);
        assert_eq!(whole[0].header.dossier_digest, None);
        // A preamble before the first shard marker stays a segment.
        let mut with_preamble = trace.events.clone();
        with_preamble.push(TraceEvent::Marker {
            label: "shard:bank=5".into(),
        });
        with_preamble.push(TraceEvent::SetTemperature { celsius: 40.0 });
        let t = Trace {
            header: trace.header.clone(),
            events: with_preamble,
        };
        let parts = t.split_at_markers("shard:bank=");
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].events, trace.events);
        assert_eq!(parts[1].events.len(), 2);
        assert_eq!(Trace::concat(&parts).expect("same run").events, t.events);
    }

    #[test]
    fn concat_rejects_mixed_runs_and_empty_input() {
        assert_eq!(
            Trace::concat(&[]),
            Err(TraceError::SegmentMismatch {
                what: "no segments"
            })
        );
        let a = shard_segment(0);
        for (mutate, what) in [
            (
                Box::new(|t: &mut Trace| t.header.profile_label.push('X'))
                    as Box<dyn Fn(&mut Trace)>,
                "profile label",
            ),
            (Box::new(|t: &mut Trace| t.header.seed ^= 1), "seed"),
            (
                Box::new(|t: &mut Trace| t.header.geometry_hash ^= 1),
                "geometry hash",
            ),
        ] {
            let mut b = shard_segment(1);
            mutate(&mut b);
            assert_eq!(
                Trace::concat(&[a.clone(), b]),
                Err(TraceError::SegmentMismatch { what }),
                "{what}"
            );
        }
        // Dropped counts sum across segments.
        let mut partial = shard_segment(1);
        partial.header.dropped = 3;
        let merged = Trace::concat(&[a, partial]).expect("same run");
        assert_eq!(merged.header.dropped, 3);
    }

    #[test]
    fn header_without_digest_round_trips() {
        let mut trace = sample_trace();
        trace.header.dossier_digest = None;
        trace.header.meta.clear();
        let back = Trace::from_bytes(&trace.to_bytes()).expect("decodes");
        assert_eq!(back.header.dossier_digest, None);
        assert_eq!(back, trace);
    }

    #[test]
    fn internal_error_payload_decodes_to_placeholder() {
        let mut trace = sample_trace();
        trace.events = vec![TraceEvent::Command {
            cmd: Command::Refresh,
            at: Time::from_ns(1),
            outcome: CommandOutcome::Rejected(CommandError::Internal("specific message")),
        }];
        let back = Trace::from_bytes(&trace.to_bytes()).expect("decodes");
        match &back.events[0] {
            TraceEvent::Command {
                outcome: CommandOutcome::Rejected(e),
                ..
            } => {
                assert_eq!(*e, CommandError::Internal(INTERNAL_ERROR_PLACEHOLDER));
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_reported() {
        let mut bytes = sample_trace().to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            Trace::from_bytes(&bytes),
            Err(TraceError::BadMagic {
                found: [b'X', b'R', b'T', b'R']
            })
        );
    }

    #[test]
    fn version_mismatch_is_reported() {
        let mut bytes = sample_trace().to_bytes();
        bytes[4] = 2;
        assert_eq!(
            Trace::from_bytes(&bytes),
            Err(TraceError::UnsupportedVersion {
                found: 2,
                supported: VERSION
            })
        );
    }

    #[test]
    fn truncated_header_is_reported() {
        let bytes = sample_trace().to_bytes();
        assert_eq!(
            Trace::from_bytes(&[]),
            Err(TraceError::TruncatedHeader { offset: 0 })
        );
        assert!(matches!(
            Trace::from_bytes(&bytes[..10]),
            Err(TraceError::TruncatedHeader { .. })
        ));
    }

    #[test]
    fn every_truncation_point_errors_without_panicking() {
        let bytes = sample_trace().to_bytes();
        for len in 0..bytes.len() {
            let err = Trace::from_bytes(&bytes[..len]).expect_err("prefix must not decode");
            assert!(
                matches!(
                    err,
                    TraceError::TruncatedHeader { .. }
                        | TraceError::TruncatedEvents { .. }
                        | TraceError::Corrupt { .. }
                ),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn single_byte_corruption_never_panics() {
        let bytes = sample_trace().to_bytes();
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xff;
            // Any result is fine as long as it is not a panic; a flipped
            // byte may still decode to a different, valid trace.
            let _ = Trace::from_bytes(&mutated);
        }
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let mut bytes = sample_trace().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Corrupt {
                what: "trailing bytes after last event",
                ..
            })
        ));
    }

    #[test]
    fn unknown_opcode_and_flag_bits_are_corrupt() {
        let mut trace = sample_trace();
        trace.events.clear();
        let mut bytes = trace.to_bytes();
        // Append one fake event with an unknown opcode.
        let count_pos = bytes.len() - 1;
        bytes[count_pos] = 1;
        bytes.push(200);
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Corrupt {
                what: "unknown event opcode",
                ..
            })
        ));

        let mut bytes = sample_trace().to_bytes();
        bytes[6] |= 0x80; // set an undefined flag bit
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Corrupt {
                what: "unknown header flag bits",
                ..
            })
        ));
    }

    #[test]
    fn dump_renders_header_and_events() {
        let text = sample_trace().dump();
        assert!(text.contains("# dram-trace v1"), "{text}");
        assert!(text.contains("# profile: Mfr. B x4 0"));
        assert!(text.contains("# meta scan_rows = 129"));
        assert!(text.contains("ACT bank=0 row=21"));
        assert!(text.contains("BURST bank=1 row=7 x150000"));
        assert_eq!(text.lines().count(), 8 + sample_trace().events.len());
    }

    #[test]
    fn delta_encoding_keeps_steady_streams_compact() {
        let mut events = Vec::new();
        for i in 0..1000u64 {
            events.push(TraceEvent::Command {
                cmd: Command::Refresh,
                at: Time::from_ps(i * 100),
                outcome: CommandOutcome::Accepted,
            });
        }
        let trace = Trace {
            header: TraceHeader {
                profile_label: "x".into(),
                seed: 0,
                geometry_hash: 0,
                dossier_digest: None,
                dropped: 0,
                meta: vec![],
            },
            events,
        };
        let bytes = trace.to_bytes();
        // opcode + 1-byte delta + outcome tag = 3 bytes per event.
        assert!(bytes.len() < 40 + 1000 * 4, "{} bytes", bytes.len());
        assert_eq!(Trace::from_bytes(&bytes).expect("decodes"), trace);
    }
}
