//! # dramscope-core
//!
//! The DRAMScope toolkit (the paper's primary contribution): black-box
//! reverse-engineering of DRAM microarchitecture and activate-induced
//! bitflip (AIB) characterization, built on three cross-validating
//! techniques driven purely through the DRAM command interface:
//!
//! 1. **AIB tests** ([`hammer`]) — RowHammer and RowPress reveal physical
//!    row adjacency, internal row remapping, horizontal cell coupling,
//!    and the 6F²-induced error patterns.
//! 2. **RowCopy** ([`rowcopy_probe`]) — timing-violating in-memory copies
//!    reveal subarray heights, the open-bitline structure, even/odd
//!    bitline parity, edge-subarray tandem pairs, and coupled rows.
//! 3. **Retention tests** ([`retention_probe`]) — true-/anti-cell
//!    classification.
//!
//! On top of the probes sit the full pipelines ([`swizzle_re`],
//! [`remap_re`]), the §III-C pitfall handling ([`mapping`]), the
//! data-pattern machinery including the adversarial patterns of §V-D
//! ([`patterns`]), executable validations of the paper's fourteen
//! observations ([`observations`]), and the attack/defense analyses of
//! §VI ([`protect`]).
//!
//! # Example: discover subarray heights of an unknown chip
//!
//! ```
//! use dram_sim::{ChipProfile, DramChip};
//! use dram_testbed::Testbed;
//! use dramscope_core::rowcopy_probe;
//!
//! # fn main() -> Result<(), dram_testbed::TestbedError> {
//! let mut tb = Testbed::new(DramChip::new(ChipProfile::test_small(), 7));
//! let heights = rowcopy_probe::subarray_heights(&mut tb, 0, 0..256)?;
//! assert_eq!(heights, vec![40, 24, 40, 24, 40, 24, 40]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod dossier;
pub mod ecc_probe;
pub mod error;
pub mod fleet;
pub mod hammer;
pub mod mapping;
pub mod observations;
pub mod patterns;
pub mod power_channel;
pub mod protect;
pub mod remap_re;
pub mod report;
pub mod retention_probe;
pub mod rowcopy_probe;
pub mod shard;
pub mod swizzle_re;
pub mod templating;
pub mod trace_run;
pub mod trr_re;

pub use dossier::{characterize, characterize_instrumented, ChipDossier};
pub use error::CoreError;
pub use fleet::{
    parallel_map, run_fleet, run_fleet_sharded, FleetConfig, FleetPool, FleetReport, JobHandle,
    PoolStats, ProfileResult, ShardedFleetReport,
};
pub use hammer::{AibConfig, HcntResult};
pub use observations::{ObservationReport, ObservationSuite};
pub use patterns::DataPattern;
pub use report::Table;
pub use shard::{
    characterize_sharded, characterize_sharded_serial, BankResult, ShardConfig, ShardedDossier,
    ShardedReport,
};
pub use trace_run::{
    record_characterization_instrumented, record_characterization_sharded, replay_benchmark,
    replay_characterization_instrumented, replay_characterization_sharded,
};

// The segment-boundary marker prefixes the characterization pipeline
// emits (`phase:`/`span:`/`shard:bank=`), canonically defined next to
// the trace-lake index that splits streams at them.
pub use dram_trace::{
    DEFAULT_SEGMENT_PREFIXES, PHASE_MARKER_PREFIX, SHARD_MARKER_PREFIX, SPAN_MARKER_PREFIX,
};
