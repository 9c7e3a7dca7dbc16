//! # dram-trace
//!
//! Command-trace capture, deterministic replay, and golden-trace
//! regression support for the DRAMScope reproduction.
//!
//! Every interesting run of the simulator is a sequence of commands at
//! the chip boundary, and the whole stack is deterministic given a
//! profile and a seed. This crate exploits that: attach a recording sink
//! to a [`DramChip`](dram_sim::DramChip), capture every command with its
//! timestamp and outcome, write the run to a compact versioned binary
//! format, and later *replay* it on a fresh chip — proving bit-for-bit
//! that the simulation still reproduces the recorded behavior, read data
//! and protocol errors included.
//!
//! The pieces:
//!
//! * [`TraceRecorder`] / [`SharedRecorder`] — ring-buffer sinks that
//!   capture [`ChipEvent`](dram_sim::ChipEvent)s into a [`Trace`].
//! * [`Trace`] — the in-memory trace; [`Trace::to_bytes`] /
//!   [`Trace::from_bytes`] for the binary format (decoding is total:
//!   malformed input yields a [`TraceError`], never a panic) and
//!   [`Trace::dump`] for human-readable text.
//! * [`replay_on_chip`] — re-drives a fresh chip from a trace and checks
//!   every outcome against the recording; [`replay_on_chip_trusted`] is
//!   the decoded-command fast path for streams already proven once (same
//!   drive, header identity checks only, no per-event comparison).
//! * [`TraceVerifier`] / [`SharedVerifier`] — the inverse sink: run a
//!   live experiment and check it against a recorded trace as it goes.
//! * [`diff_traces`] — structural comparison for golden-trace debugging.
//!
//! # Example
//!
//! ```
//! use dram_sim::{ChipProfile, Command, DramChip, Time};
//! use dram_trace::{replay_on_chip, SharedRecorder, Trace};
//!
//! let profile = ChipProfile::test_small();
//! let recorder = SharedRecorder::unbounded();
//! let mut chip = DramChip::new(profile.clone(), 42);
//! chip.set_sink(recorder.sink());
//!
//! let mut t = Time::from_ns(100);
//! chip.issue(Command::Activate { bank: 0, row: 7 }, t).unwrap();
//! t += chip.timing().trcd;
//! chip.issue(Command::Read { bank: 0, col: 0 }, t).unwrap();
//!
//! let trace = recorder.finish(&profile, 42);
//! let bytes = trace.to_bytes();
//! let decoded = Trace::from_bytes(&bytes).unwrap();
//! let stats = replay_on_chip(&decoded, &profile).unwrap();
//! assert_eq!(stats.reads_verified, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod diff;
pub mod error;
pub mod event;
pub mod format;
pub mod index;
pub mod lake;
pub mod metrics;
pub mod query;
pub mod record;
pub mod replay;
pub mod varint;

pub use diff::{diff_traces, TraceDiff};
pub use error::{ReplayError, TraceError};
pub use event::TraceEvent;
pub use format::{Trace, TraceHeader, INTERNAL_ERROR_PLACEHOLDER, MAGIC, VERSION};
pub use index::{
    SegmentMeta, TraceIndex, DEFAULT_SEGMENT_PREFIXES, PHASE_MARKER_PREFIX, SEGMENT_MNEMONICS,
    SHARD_MARKER_PREFIX, SPAN_MARKER_PREFIX,
};
pub use lake::{decode_container, split_container, Container, IndexedTrace};
pub use metrics::trace_metrics;
pub use query::{query_bytes, query_path, Lake, Query, QueryHit, QueryReport};
pub use record::{Divergence, SharedRecorder, SharedVerifier, TraceRecorder, TraceVerifier};
pub use replay::{replay_on_chip, replay_on_chip_trusted, ReplayStats};

use dram_sim::profile::ChipProfile;

/// FNV-1a 64-bit hash, used for dossier digests and geometry hashes.
/// Stable across platforms and releases by construction; not
/// collision-resistant against adversaries, which golden-trace regression
/// does not need.
///
/// The canonical implementation lives in [`dram_sim::digest`] (profile
/// and geometry digests hash there too); this re-export keeps the
/// historical `dram_trace::fnv1a_64` path working.
pub use dram_sim::digest::fnv1a_64;

/// Hashes the externally visible geometry and timing of a profile.
///
/// Stored in every trace header and checked before replay: if a profile
/// definition changes shape (banks, rows, row width, read width, column
/// count, or any JEDEC timing), old traces are rejected with
/// [`ReplayError::GeometryMismatch`] instead of diverging confusingly
/// halfway through.
pub fn geometry_hash(profile: &ChipProfile) -> u64 {
    let mut bytes = Vec::with_capacity(96);
    bytes.extend_from_slice(profile.label().as_bytes());
    for v in [
        u64::from(profile.banks),
        u64::from(profile.rows_per_bank),
        u64::from(profile.row_bits),
        u64::from(profile.io_width.rd_bits()),
        u64::from(profile.cols_per_row()),
        u64::from(profile.density_gbit),
        profile.timing.tck.as_ps(),
        profile.timing.trcd.as_ps(),
        profile.timing.tras.as_ps(),
        profile.timing.trp.as_ps(),
        profile.timing.trfc.as_ps(),
        profile.timing.trefw.as_ps(),
    ] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a_64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn geometry_hash_distinguishes_profiles_and_is_stable() {
        let a = geometry_hash(&ChipProfile::test_small());
        let b = geometry_hash(&ChipProfile::test_small_interleaved());
        let c = geometry_hash(&ChipProfile::mfr_a_x4_2021());
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, geometry_hash(&ChipProfile::test_small()));
    }
}
