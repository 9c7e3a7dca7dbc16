//! The simulated DRAM chip: command interface, state machine, and the
//! physical effects (AIB, retention, RowCopy) that the DRAMScope toolkit
//! observes through it.
//!
//! # Evaluation model
//!
//! Physical effects are *lazily materialized*: per-wordline activation
//! counters accumulate as commands arrive, and a row's pending bitflips
//! (disturbance and retention) are resolved when the row is next sensed
//! (`ACT`) or refreshed — which is also when real silicon would reveal
//! them. Activating a row restores its charge, so the disturbance and
//! retention clocks of that row reset at every activation, exactly as in
//! hardware.
//!
//! # Flat bank state
//!
//! All per-wordline state lives in dense `Vec` tables indexed by wordline
//! (allocated lazily per bank on first touch): activation counters in
//! `BankState::wl_acts`, materialized rows in `BankState::rows`. A
//! sorted dirty list records which rows are materialized so refresh can
//! settle them in the same deterministic ascending order the previous
//! `BTreeMap`-backed implementation used. Static per-wordline facts
//! (aggressor slots, tandem companion, polarity, edge role) are
//! precomputed once per chip into `WlStatic` so the per-command hot
//! path does no tree lookups and no allocation; two provably
//! conservative pre-filters (a cached retention-negligibility horizon
//! and a cubic disturbance-dose bound) skip the expensive `powf`/CDF
//! evaluations whenever no cell could plausibly flip. A settle that does
//! run the per-cell pass computes each aggressor's flip probabilities
//! once per distinct [`FlipContext`] (a per-aggressor, per-settle memo),
//! and every chip of one silicon shares its static tables through
//! `Arc`s ([`DramChip::fresh`]). See `DESIGN.md` § "Flat bank state" for
//! the identity argument.
//!
//! # Loop acceleration
//!
//! A tight `ACT`-`PRE` hammer loop is physically equivalent to adding
//! `count` activations to one wordline's counters. [`DramChip::activate_burst`]
//! exposes that equivalence so testbed programs can run 300 K-activation
//! attacks in O(1); it performs exactly the same state updates a command
//! loop would.

use crate::cell::{gate_type, AggressorDir, CellPolarity, GateType};
use crate::disturb::{FlipContext, Mechanism};
use crate::geometry::{BankGeometry, Bitline, LogicalRow, Wordline};
use crate::layout::{BankLayout, CopyRelation};
use crate::profile::{ChipProfile, PolarityScheme};
use crate::remap::RowRemap;
use crate::retention::RetentionModel;
use crate::rng::unit_open;
use crate::rowdata::RowBits;
use crate::sink::{ChipEvent, CommandOutcome, CommandSink, SinkSlot};
use crate::swizzle::SwizzleMap;
use crate::time::{Time, TimingParams};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Hash-stream tags so each physical phenomenon draws independent
/// variates. RowHammer and RowPress use *separate* streams: their failure
/// mechanisms differ (electron migration vs. crosstalk), so a cell weak
/// under one is not necessarily weak under the other — the paper observes
/// that their flipped-cell populations barely overlap (§V-B).
const TAG_HAMMER: u64 = 0xD157;
const TAG_PRESS: u64 = 0x9435;
const TAG_RETENTION: u64 = 0x4E7E;

/// `ACT` issued within this fraction of `tRP` after a `PRE` latches the
/// not-yet-precharged bitline state into the destination row (RowCopy).
const COPY_WINDOW_FRACTION: f64 = 0.5;

/// Flip probabilities at or below this are treated as "cannot happen":
/// both the retention horizon and the disturbance dose bound compare
/// against it before running the per-cell physics pass.
const NEGLIGIBLE_P: f64 = 1e-12;

/// The most generous context multiplier any [`FlipContext`] can produce;
/// used to bound the best-case flip probability of an accumulated dose.
const MAX_CONTEXT_MULTIPLIER: f64 = 4.0;

/// A wordline has at most two distance-1 and two distance-2 aggressors
/// (subarray-clipped), so every aggressor set fits four static slots.
const MAX_AGGRESSORS: usize = 4;

/// Sentinel in [`WlStatic::companion`] for "no tandem companion". Valid
/// wordline indices are bounded by the bank geometry, far below this.
const NO_COMPANION: u32 = u32::MAX;

/// Die temperature of a chip at power-on, °C.
const POWER_ON_C: f64 = 75.0;

/// Upper bound on a [`FlipMemo`]'s slot count. One aggressor's contexts
/// in one settle take fewer than 4096 distinct keys whatever the row
/// width (gate, victim data, four victim-neighbour and five aggressor
/// cells, plus the MAT-edge `None` patterns), so the table stays at most
/// half full.
const MEMO_MAX_SLOTS: usize = 8192;

/// Widens a wordline index for dense-table addressing; `u32 → usize`
/// cannot truncate on any supported target (usize is ≥ 32 bits).
#[inline(always)]
fn wi(wl: u32) -> usize {
    wl as usize
}

/// The bitline `off` columns away from `bl`, if it exists on the die:
/// non-negative, representable as a `u32` index, and under `cells`.
/// Checked conversion instead of `n as u32`, which would silently wrap
/// a geometry-derived index near the top of the `u32` range.
#[inline(always)]
fn bl_offset(bl: u32, off: i64, cells: u32) -> Option<u32> {
    u32::try_from(i64::from(bl) + off)
        .ok()
        .filter(|&n| n < cells)
}

/// Elapsed time from `earlier` to `later`, failing loudly when the order
/// is reversed. A saturating subtraction here would clamp to zero and
/// let an out-of-order command slip past the tRCD / copy-window / decay
/// computations it should fail.
fn elapsed(later: Time, earlier: Time) -> Result<Time, CommandError> {
    later.checked_sub(earlier).ok_or(CommandError::TimeReversed)
}

/// JEDEC refresh granularity: one `REF` covers 1/8192 of the rows; a full
/// refresh window (`tREFW`) is 8192 `REF` commands.
pub const REF_SLICES: u64 = 8192;

/// A DRAM command as it arrives on the chip's pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// Open a row: sense it into the sense amplifiers.
    Activate {
        /// Bank index.
        bank: u32,
        /// Pin-level row address.
        row: u32,
    },
    /// Close the open row and start precharging the bitlines.
    Precharge {
        /// Bank index.
        bank: u32,
    },
    /// Read one RD_data burst from the open row.
    Read {
        /// Bank index.
        bank: u32,
        /// Column address.
        col: u32,
    },
    /// Write one RD_data burst into the open row.
    Write {
        /// Bank index.
        bank: u32,
        /// Column address.
        col: u32,
        /// RD_data payload, bit 0 = first burst bit.
        data: u64,
    },
    /// Refresh: restore every row and reset all retention clocks. Also
    /// the point where an in-DRAM TRR engine spends its mitigation work.
    Refresh,
    /// DDR5-style refresh management: ask the device to run its in-DRAM
    /// AIB mitigation for one bank, now (paper §VI-B).
    Rfm {
        /// Bank index.
        bank: u32,
    },
}

impl Command {
    /// The command's pin mnemonic (`act`, `pre`, `rd`, `wr`, `ref`,
    /// `rfm`) — the stable label telemetry buckets command mixes under.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Command::Activate { .. } => "act",
            Command::Precharge { .. } => "pre",
            Command::Read { .. } => "rd",
            Command::Write { .. } => "wr",
            Command::Refresh => "ref",
            Command::Rfm { .. } => "rfm",
        }
    }

    /// The bank the command addresses, if it is bank-scoped (`REF` is
    /// all-bank and has none).
    pub fn bank(&self) -> Option<u32> {
        match self {
            Command::Activate { bank, .. }
            | Command::Precharge { bank }
            | Command::Read { bank, .. }
            | Command::Write { bank, .. }
            | Command::Rfm { bank } => Some(*bank),
            Command::Refresh => None,
        }
    }
}

/// Data returned by a `RD` command (RD_data bits, LSB first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ReadData(pub u64);

/// Errors from [`DramChip::issue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandError {
    /// Bank index out of range.
    BankOutOfRange {
        /// Offending bank.
        bank: u32,
        /// Banks on the chip.
        banks: u32,
    },
    /// Row address out of range.
    RowOutOfRange {
        /// Offending row.
        row: u32,
        /// Rows per bank.
        rows: u32,
    },
    /// Column address out of range.
    ColOutOfRange {
        /// Offending column.
        col: u32,
        /// Columns per row.
        cols: u32,
    },
    /// `RD`/`WR`/`PRE` issued with no open row.
    NoOpenRow,
    /// `ACT` issued while a row is already open in the bank.
    RowAlreadyOpen,
    /// `RD`/`WR` issued before `tRCD` elapsed.
    TrcdViolation,
    /// `REF` issued while a row is open.
    RefreshWhileOpen,
    /// Command timestamp precedes the previous command.
    TimeReversed,
    /// An internal simulator invariant failed (a map lookup or checked
    /// conversion the protocol state machine should guarantee). This is
    /// a simulator bug surfaced as an error instead of a panic; the
    /// payload names the violated invariant.
    Internal(&'static str),
}

impl CommandError {
    /// A stable short name for the error variant — the label telemetry
    /// buckets rejections under (payload-free on purpose, so all
    /// `BankOutOfRange` rejections share one counter).
    pub fn kind(&self) -> &'static str {
        match self {
            CommandError::BankOutOfRange { .. } => "bank_out_of_range",
            CommandError::RowOutOfRange { .. } => "row_out_of_range",
            CommandError::ColOutOfRange { .. } => "col_out_of_range",
            CommandError::NoOpenRow => "no_open_row",
            CommandError::RowAlreadyOpen => "row_already_open",
            CommandError::TrcdViolation => "trcd_violation",
            CommandError::RefreshWhileOpen => "refresh_while_open",
            CommandError::TimeReversed => "time_reversed",
            CommandError::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandError::BankOutOfRange { bank, banks } => {
                write!(f, "bank {bank} out of range ({banks} banks)")
            }
            CommandError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range ({rows} rows)")
            }
            CommandError::ColOutOfRange { col, cols } => {
                write!(f, "column {col} out of range ({cols} columns)")
            }
            CommandError::NoOpenRow => write!(f, "no open row in bank"),
            CommandError::RowAlreadyOpen => write!(f, "a row is already open in bank"),
            CommandError::TrcdViolation => write!(f, "read/write issued before tRCD"),
            CommandError::RefreshWhileOpen => write!(f, "refresh issued while a row is open"),
            CommandError::TimeReversed => write!(f, "command timestamp precedes previous command"),
            CommandError::Internal(what) => {
                write!(f, "internal simulator invariant failed: {what}")
            }
        }
    }
}

impl Error for CommandError {}

/// Cumulative activity counters for one wordline (as an aggressor).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct WlActivity {
    /// Direct activations.
    acts: u64,
    /// Direct accumulated on-time, ns.
    on_ns: f64,
    /// Tandem companion co-activations (paper O5 / §VI-C).
    comp_acts: u64,
    /// Companion accumulated on-time, ns.
    comp_on_ns: f64,
}

impl WlActivity {
    fn delta(&self, snap: &WlActivity) -> WlActivity {
        WlActivity {
            acts: self.acts - snap.acts,
            on_ns: self.on_ns - snap.on_ns,
            comp_acts: self.comp_acts - snap.comp_acts,
            comp_on_ns: self.comp_on_ns - snap.comp_on_ns,
        }
    }

    fn is_zero(&self) -> bool {
        self.acts == 0 && self.comp_acts == 0 && self.on_ns == 0.0 && self.comp_on_ns == 0.0
    }
}

/// Per-wordline stored state.
#[derive(Debug, Clone)]
struct RowState {
    /// Cell data in physical bitline order, covering the full wordline.
    data: RowBits,
    /// Aggressor counter snapshots taken at the last restore, aligned to
    /// the wordline's [`WlStatic::aggr`] slots.
    snapshot: [WlActivity; MAX_AGGRESSORS],
    /// When the row's charge was last restored.
    last_restore: Time,
}

/// Precomputed static facts about one wordline, shared by all banks: the
/// hot path reads these instead of re-deriving them from the layout on
/// every command.
#[derive(Debug, Clone, Copy)]
struct WlStatic {
    /// Aggressor wordlines in settle order: distance-1 neighbors in
    /// ascending order, then distance-2 neighbors in ascending order
    /// (the order `BankLayout::neighbors_at` yields them, which the
    /// previous implementation's `aggressors_of` concatenated).
    aggr: [u32; MAX_AGGRESSORS],
    /// Slots `0..n_dist1` are distance-1 (dose scale 1.0); slots
    /// `n_dist1..n_aggr` are distance-2 (`distance_two_dose`).
    n_dist1: u8,
    /// Occupied slot count; slots `n_aggr..` are unused.
    n_aggr: u8,
    /// Whether the wordline sits in an edge (tandem) subarray.
    is_edge: bool,
    /// The wordline's cell polarity under the chip's polarity scheme.
    polarity: CellPolarity,
    /// Tandem companion wordline, or [`NO_COMPANION`].
    companion: u32,
}

/// The currently open row of a bank.
#[derive(Debug, Clone, Copy)]
struct OpenRow {
    wl: Wordline,
    half: u32,
    since: Time,
    companion: Option<Wordline>,
}

/// A completed precharge whose bitlines may still carry the old row.
#[derive(Debug, Clone, Copy)]
struct PreEvent {
    at: Time,
    wl: Wordline,
}

#[derive(Debug, Default)]
struct BankState {
    open: Option<OpenRow>,
    last_pre: Option<PreEvent>,
    /// Dense per-wordline activation counters, allocated on the bank's
    /// first counted activation (an empty table reads as all zeros).
    wl_acts: Vec<WlActivity>,
    /// Dense per-wordline materialized rows, allocated on first touch.
    rows: Vec<Option<Box<RowState>>>,
    /// Sorted wordline indices with a materialized row. Refresh settles
    /// rows in this (ascending) order, and settle order feeds the
    /// physics through neighbor data, so the order must stay
    /// deterministic — it matches the old `BTreeMap` key order exactly.
    dirty: Vec<u32>,
    /// The in-DRAM TRR activation sampler (inert when TRR is disabled).
    sampler: crate::mitigation::Sampler,
}

impl BankState {
    /// Current counters for a wordline; an unallocated table reads as
    /// all zeros, exactly like a missing map entry did.
    #[inline]
    fn wl_act(&self, wl: u32) -> WlActivity {
        self.wl_acts.get(wi(wl)).copied().unwrap_or_default()
    }

    /// Mutable counters for a wordline, allocating the dense table
    /// (`wls` entries) on the bank's first counted activation.
    #[inline]
    fn wl_act_mut(&mut self, wl: u32, wls: usize) -> &mut WlActivity {
        if self.wl_acts.is_empty() {
            self.wl_acts = vec![WlActivity::default(); wls];
        }
        &mut self.wl_acts[wi(wl)]
    }

    /// The materialized row for a wordline, if any.
    #[inline]
    fn row(&self, wl: u32) -> Option<&RowState> {
        self.rows.get(wi(wl)).and_then(|r| r.as_deref())
    }

    /// Records `wl` in the sorted dirty list (idempotent).
    fn mark_dirty(&mut self, wl: u32) {
        if let Err(pos) = self.dirty.binary_search(&wl) {
            self.dirty.insert(pos, wl);
        }
    }
}

/// Precomputes the per-wordline static table for a chip.
fn build_wl_static(layout: &BankLayout, profile: &ChipProfile, wls: u32) -> Vec<WlStatic> {
    (0..wls)
        .map(|widx| {
            let wl = Wordline(widx);
            let d1 = layout.neighbors_at(wl, 1);
            let d2 = layout.neighbors_at(wl, 2);
            let n_dist1 = d1.len();
            let n_aggr = n_dist1 + d2.len();
            assert!(
                n_aggr <= MAX_AGGRESSORS,
                "a wordline has at most {MAX_AGGRESSORS} aggressors"
            );
            let mut aggr = [0u32; MAX_AGGRESSORS];
            for (slot, a) in d1.iter().chain(d2.iter()).enumerate() {
                aggr[slot] = a.0;
            }
            let sub = layout.subarray_of(wl);
            let polarity = match profile.hidden.polarity {
                PolarityScheme::AllTrue => CellPolarity::True,
                PolarityScheme::SubarrayInterleaved => {
                    if sub.0.is_multiple_of(2) {
                        CellPolarity::True
                    } else {
                        CellPolarity::Anti
                    }
                }
            };
            WlStatic {
                aggr,
                n_dist1: n_dist1 as u8,
                n_aggr: n_aggr as u8,
                is_edge: layout.info(sub).is_edge(),
                polarity,
                companion: layout.companion_wordline(wl).map_or(NO_COMPANION, |c| c.0),
            }
        })
        .collect()
}

/// One aggressor of a settle's per-cell pass: its direction, doses and
/// row data, which stay fixed across the victim's cells.
struct SettleAggressor {
    dir: AggressorDir,
    /// [`FlipContext::dose_scale`] of every context this aggressor forms.
    dose_scale: f64,
    /// RowHammer dose: activations, companion activations scaled.
    dose_h: f64,
    /// RowPress dose: on-time in ns, companion on-time scaled.
    dose_p: f64,
    bits: RowBits,
    memo: FlipMemo,
}

/// `(p_hammer, p_press)` per distinct [`FlipContext`] of one aggressor in
/// one settle. The probabilities also depend on the aggressor's doses and
/// `dose_scale`, which are fixed within that scope and nowhere else, so a
/// memo is never shared across aggressors or settles. A miss runs the
/// model's own functions in their usual order, so every cached value is
/// bit-for-bit the value the uncached pass computes.
struct FlipMemo {
    /// Open-addressing table: 0 is empty, `i + 1` points at `entries[i]`.
    slots: Vec<u32>,
    /// Right shift that turns a multiplicative hash into a slot index.
    shift: u32,
    /// `(key, p_hammer, p_press)` in insertion order.
    entries: Vec<(u32, f64, f64)>,
}

impl FlipMemo {
    /// An empty memo for a settle over `cells` victim cells: twice as
    /// many slots as the settle can have distinct keys (capped at
    /// [`MEMO_MAX_SLOTS`], above twice what any settle reaches).
    fn new(cells: u32) -> FlipMemo {
        let slots = (2 * wi(cells))
            .next_power_of_two()
            .clamp(16, MEMO_MAX_SLOTS);
        FlipMemo {
            slots: vec![0; slots],
            shift: u32::BITS - slots.trailing_zeros(),
            entries: Vec::new(),
        }
    }

    /// A packed image of every context field except `dose_scale`: one
    /// bit each for the flags, two bits (`None`, `Some(false)`,
    /// `Some(true)`) per horizontal neighbour — 23 bits in all. The
    /// destructuring is exhaustive, so a field added to [`FlipContext`]
    /// fails to compile here until the key covers it.
    fn key(ctx: &FlipContext) -> u32 {
        let FlipContext {
            gate,
            charged,
            vic_data,
            vic_neighbor_differs,
            aggr_same,
            edge,
            aggr0_data,
            dose_scale: _,
        } = *ctx;
        let mut key = u32::from(gate == GateType::Passing)
            | u32::from(charged) << 1
            | u32::from(vic_data) << 2
            | u32::from(edge) << 3
            | u32::from(aggr0_data) << 4;
        for (i, cell) in vic_neighbor_differs
            .into_iter()
            .chain(aggr_same)
            .enumerate()
        {
            let code = match cell {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            };
            key |= code << (5 + 2 * i);
        }
        key
    }

    /// The memoized probabilities for `ctx`, running `compute` on a
    /// miss. A table already half full answers the miss without
    /// inserting, so probing always ends at an empty slot.
    fn get_or_insert_with(
        &mut self,
        ctx: &FlipContext,
        compute: impl FnOnce() -> (f64, f64),
    ) -> (f64, f64) {
        let key = FlipMemo::key(ctx);
        let mask = self.slots.len() - 1;
        let mut slot = (key.wrapping_mul(0x9E37_79B1) >> self.shift) as usize;
        while let Some(entry) = self.slots[slot].checked_sub(1) {
            let (k, p_h, p_p) = self.entries[entry as usize];
            if k == key {
                return (p_h, p_p);
            }
            slot = (slot + 1) & mask;
        }
        let probs = compute();
        if 2 * (self.entries.len() + 1) <= self.slots.len() {
            self.entries.push((key, probs.0, probs.1));
            self.slots[slot] = self.entries.len() as u32;
        }
        probs
    }
}

/// One silicon's immutable tables: everything [`DramChip::new`] derives
/// from the profile alone, built once and shared by every chip of the
/// same silicon. Each table sits behind its own `Arc` and the bundle
/// lives inline in the chip, so the hot path indexes a table through one
/// pointer, as it would a `Vec`.
#[derive(Debug, Clone)]
struct SiliconTables {
    layout: Arc<BankLayout>,
    /// Per-wordline static facts, indexed by wordline.
    wl_static: Arc<[WlStatic]>,
    /// Flattened swizzle map: physical bitline of `(col, bit)` at index
    /// `col * rd_bits + bit`, covering all raw columns (including the
    /// ECC parity region). Precomputed so the read/write hot loops do a
    /// table load instead of per-bit swizzle arithmetic.
    swz_table: Arc<[u32]>,
    /// The retention-negligibility horizon (ps) at [`POWER_ON_C`].
    power_on_horizon_ps: u64,
}

/// Aggregate command statistics, including the hidden double activations
/// that the paper proposes as a power side channel (§VI-C).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChipStats {
    /// `ACT` commands accepted (burst activations count individually).
    pub activations: u64,
    /// `RD` commands accepted.
    pub reads: u64,
    /// `WR` commands accepted.
    pub writes: u64,
    /// `REF` commands accepted.
    pub refreshes: u64,
    /// Wordline-activation energy units actually spent: coupled rows and
    /// edge-subarray tandem activations burn extra units per `ACT`.
    pub act_energy_units: u64,
    /// Cells flipped by resolved physics (disturbance and retention
    /// decay), cumulative over the chip's lifetime. Deliberate writes and
    /// RowCopy data movement do not count.
    pub bitflips: u64,
}

/// A read-only snapshot of the chip's hidden microarchitecture.
///
/// Only tests and reports may consult this; reverse-engineering code must
/// work through the command interface.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Repeating subarray-height block (wordlines).
    pub composition: Vec<u32>,
    /// Edge-subarray segment size (wordlines).
    pub edge_interval_wls: u32,
    /// Coupled-row distance in addressable rows, if coupled.
    pub coupled_distance: Option<u32>,
    /// MAT width in cells.
    pub mat_width: u32,
    /// Internal row remap scheme.
    pub remap: RowRemap,
    /// Cell polarity scheme.
    pub polarity: PolarityScheme,
    /// The intra-chip data swizzle.
    pub swizzle: SwizzleMap,
    /// Heights of every subarray in one bank, bottom to top.
    pub subarray_heights: Vec<u32>,
    /// Whether the chip runs on-die ECC.
    pub on_die_ecc: bool,
}

/// A simulated DRAM chip.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct DramChip {
    profile: ChipProfile,
    geom: BankGeometry,
    retention: RetentionModel,
    seed: u64,
    banks: Vec<BankState>,
    /// The silicon's immutable tables, shared with every
    /// [`fresh`](Self::fresh) chip built from this one.
    tables: SiliconTables,
    /// Cached retention-negligibility horizon (ps) at the current
    /// temperature: elapsed times at or below it provably keep the
    /// expected fail fraction under [`NEGLIGIBLE_P`].
    ret_negligible_ps: u64,
    now: Time,
    temperature_c: f64,
    stats: ChipStats,
    /// Rolling `REF` slice pointer (JEDEC: 8192 slices per window).
    ref_counter: u64,
    /// Optional command-boundary observer (trace recorder / verifier).
    sink: SinkSlot,
}

impl DramChip {
    /// Creates a chip from a profile; `seed` selects the specific piece of
    /// "silicon" (which cells are weak).
    pub fn new(profile: ChipProfile, seed: u64) -> Self {
        assert!(
            !profile.hidden.on_die_ecc || profile.io_width.rd_bits() == 32,
            "on-die ECC model supports 32-bit RD_data chips"
        );
        let geom = profile.bank_geometry();
        let layout = BankLayout::build(
            geom.wordlines(),
            profile.hidden.edge_interval,
            &profile.hidden.composition,
        );
        let wl_static = build_wl_static(&layout, &profile, geom.wordlines());
        let rd_bits = profile.io_width.rd_bits();
        let raw_cols = geom.row_bits / rd_bits;
        let swz_table: Arc<[u32]> = (0..raw_cols)
            .flat_map(|col| {
                let swz = &profile.hidden.swizzle;
                (0..rd_bits).map(move |bit| swz.bitline_of(col, bit).0)
            })
            .collect();
        let power_on_horizon_ps =
            RetentionModel::default().negligible_elapsed_ps(POWER_ON_C, NEGLIGIBLE_P);
        let tables = SiliconTables {
            layout: Arc::new(layout),
            wl_static: wl_static.into(),
            swz_table,
            power_on_horizon_ps,
        };
        DramChip::power_on(profile, seed, tables)
    }

    /// A power-on chip of the same profile and seed — the same piece of
    /// silicon, as [`new`](Self::new) would build it: 75 °C, no sink,
    /// empty banks and samplers, clock at zero. It shares this chip's
    /// immutable tables instead of rebuilding them, and nothing of this
    /// chip's state carries over.
    pub fn fresh(&self) -> DramChip {
        DramChip::power_on(self.profile.clone(), self.seed, self.tables.clone())
    }

    fn power_on(profile: ChipProfile, seed: u64, tables: SiliconTables) -> DramChip {
        let sampler_cap = if profile.hidden.trr.enabled {
            profile.hidden.trr.sampler_entries
        } else {
            0
        };
        let banks = (0..profile.banks)
            .map(|_| BankState {
                sampler: crate::mitigation::Sampler::new(sampler_cap),
                ..BankState::default()
            })
            .collect();
        DramChip {
            geom: profile.bank_geometry(),
            retention: RetentionModel::default(),
            seed,
            banks,
            ret_negligible_ps: tables.power_on_horizon_ps,
            tables,
            now: Time::ZERO,
            temperature_c: POWER_ON_C,
            stats: ChipStats::default(),
            ref_counter: 0,
            sink: SinkSlot::empty(),
            profile,
        }
    }

    /// Attaches a [`CommandSink`] that will observe every subsequent
    /// command (with outcome), burst, refresh window, temperature change,
    /// and marker. Replaces any previously attached sink.
    pub fn set_sink(&mut self, sink: Box<dyn CommandSink + Send>) {
        self.sink = SinkSlot(Some(sink));
    }

    /// Detaches and returns the current sink, if any.
    pub fn clear_sink(&mut self) -> Option<Box<dyn CommandSink + Send>> {
        self.sink.0.take()
    }

    /// Whether a sink is currently attached.
    pub fn has_sink(&self) -> bool {
        self.sink.0.is_some()
    }

    /// Emits an out-of-band marker through the attached sink (no-op when
    /// none is attached). Markers never change chip state; they let a
    /// trace carry experiment structure such as characterization phases.
    pub fn mark(&mut self, label: &str) {
        if let Some(s) = self.sink.0.as_mut() {
            s.record(ChipEvent::Marker { label });
        }
    }

    #[inline]
    fn record(&mut self, event: ChipEvent<'_>) {
        if let Some(s) = self.sink.0.as_mut() {
            s.record(event);
        }
    }

    /// The chip's (public) profile.
    pub fn profile(&self) -> &ChipProfile {
        &self.profile
    }

    /// The chip's timing parameters.
    pub fn timing(&self) -> &TimingParams {
        &self.profile.timing
    }

    /// The current simulated time (timestamp of the last command).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Current die temperature in °C.
    pub fn temperature(&self) -> f64 {
        self.temperature_c
    }

    /// Sets the die temperature (driven by the testbed's thermal plant).
    pub fn set_temperature(&mut self, celsius: f64) {
        self.temperature_c = celsius;
        self.ret_negligible_ps = self.retention.negligible_elapsed_ps(celsius, NEGLIGIBLE_P);
        self.record(ChipEvent::SetTemperature { celsius });
    }

    /// Cumulative command statistics.
    pub fn stats(&self) -> ChipStats {
        self.stats
    }

    /// The hidden microarchitecture, for test verification only.
    pub fn ground_truth(&self) -> GroundTruth {
        let layout = &self.tables.layout;
        GroundTruth {
            composition: self.profile.hidden.composition.clone(),
            edge_interval_wls: self.profile.hidden.edge_interval,
            coupled_distance: self.geom.coupled_row_distance(),
            mat_width: self.profile.hidden.mat_width,
            remap: self.profile.hidden.remap,
            polarity: self.profile.hidden.polarity,
            swizzle: self.profile.hidden.swizzle.clone(),
            subarray_heights: (0..layout.subarray_count())
                .map(|i| layout.info(crate::geometry::SubarrayId(i)).height)
                .collect(),
            on_die_ecc: self.profile.hidden.on_die_ecc,
        }
    }

    /// Issues one command at timestamp `at`.
    ///
    /// # Errors
    ///
    /// Returns a [`CommandError`] when the command is malformed for the
    /// current state (addresses out of range, protocol-order violations,
    /// non-monotonic timestamps, or `RD`/`WR` before `tRCD`).
    pub fn issue(&mut self, cmd: Command, at: Time) -> Result<Option<ReadData>, CommandError> {
        let result = self.issue_inner(cmd, at);
        self.record(ChipEvent::Command {
            cmd,
            at,
            outcome: CommandOutcome::of_issue(&result),
        });
        result
    }

    fn issue_inner(&mut self, cmd: Command, at: Time) -> Result<Option<ReadData>, CommandError> {
        if at < self.now {
            return Err(CommandError::TimeReversed);
        }
        self.now = at;
        match cmd {
            Command::Activate { bank, row } => {
                self.cmd_activate(bank, row, at)?;
                Ok(None)
            }
            Command::Precharge { bank } => {
                self.cmd_precharge(bank, at)?;
                Ok(None)
            }
            Command::Read { bank, col } => Ok(Some(self.cmd_read(bank, col, at)?)),
            Command::Write { bank, col, data } => {
                self.cmd_write(bank, col, data, at)?;
                Ok(None)
            }
            Command::Refresh => {
                self.cmd_refresh(at)?;
                Ok(None)
            }
            Command::Rfm { bank } => {
                self.cmd_rfm(bank, at)?;
                Ok(None)
            }
        }
    }

    /// Runs `count` back-to-back `ACT`(`row`)-`PRE` pairs, each holding the
    /// row open for `each_on`, starting at `at`. Returns the time after the
    /// final precharge completes (`tRP` honored, so no RowCopy leaks out).
    ///
    /// This is the loop-accelerated equivalent of issuing the commands one
    /// by one (see the module docs); it requires the bank to be precharged.
    ///
    /// # Errors
    ///
    /// Same conditions as [`issue`](Self::issue) for the first `ACT`.
    pub fn activate_burst(
        &mut self,
        bank: u32,
        row: u32,
        count: u64,
        each_on: Time,
        at: Time,
    ) -> Result<Time, CommandError> {
        let result = self.activate_burst_inner(bank, row, count, each_on, at);
        self.record(ChipEvent::Burst {
            bank,
            row,
            count,
            each_on,
            at,
            outcome: CommandOutcome::of_unit(&result),
        });
        result
    }

    fn activate_burst_inner(
        &mut self,
        bank: u32,
        row: u32,
        count: u64,
        each_on: Time,
        at: Time,
    ) -> Result<Time, CommandError> {
        if at < self.now {
            return Err(CommandError::TimeReversed);
        }
        self.check_bank(bank)?;
        self.check_row(row)?;
        if self.banks[bank as usize].open.is_some() {
            return Err(CommandError::RowAlreadyOpen);
        }
        if count == 0 {
            self.now = at;
            return Ok(at);
        }
        let (wl, _half) = self.resolve(LogicalRow(row));
        let companion = self.companion_of(wl);
        let cycle = each_on + self.profile.timing.trp;
        let end = at + cycle * count;
        self.now = end;

        let on_total = each_on.as_ns() * count as f64;
        let last_pre_at = elapsed(end, self.profile.timing.trp)?;
        let wls = wi(self.geom.wordlines());
        {
            let b = &mut self.banks[bank as usize];
            if self.profile.hidden.trr.enabled {
                b.sampler.observe(wl.0, count);
            }
            let a = b.wl_act_mut(wl.0, wls);
            a.acts += count;
            a.on_ns += on_total;
            if let Some(c) = companion {
                let ca = b.wl_act_mut(c.0, wls);
                ca.comp_acts += count;
                ca.comp_on_ns += on_total;
            }
            b.last_pre = Some(PreEvent {
                at: last_pre_at,
                wl,
            });
        }
        // The hammered row (and its companion) are restored on every
        // activation; settle them once at the end.
        self.settle_and_restore(bank, wl, end)?;
        if let Some(c) = companion {
            self.settle_and_restore(bank, c, end)?;
        }
        self.stats.activations += count;
        self.stats.act_energy_units += count * self.act_energy_per_activation(companion);
        Ok(end)
    }

    fn act_energy_per_activation(&self, companion: Option<Wordline>) -> u64 {
        let coupled = if self.geom.has_coupled_rows() { 2 } else { 1 };
        let tandem = if companion.is_some() { 2 } else { 1 };
        coupled * tandem
    }

    fn check_bank(&self, bank: u32) -> Result<(), CommandError> {
        if bank >= self.profile.banks {
            Err(CommandError::BankOutOfRange {
                bank,
                banks: self.profile.banks,
            })
        } else {
            Ok(())
        }
    }

    fn check_row(&self, row: u32) -> Result<(), CommandError> {
        if row >= self.profile.rows_per_bank {
            Err(CommandError::RowOutOfRange {
                row,
                rows: self.profile.rows_per_bank,
            })
        } else {
            Ok(())
        }
    }

    /// Pin row → (wordline, coupled half) through remap and fold.
    fn resolve(&self, row: LogicalRow) -> (Wordline, u32) {
        let phys = self.profile.hidden.remap.to_physical(row);
        self.geom.fold(phys)
    }

    fn cmd_activate(&mut self, bank: u32, row: u32, at: Time) -> Result<(), CommandError> {
        self.check_bank(bank)?;
        self.check_row(row)?;
        if self.banks[bank as usize].open.is_some() {
            return Err(CommandError::RowAlreadyOpen);
        }
        let (wl, half) = self.resolve(LogicalRow(row));

        // RowCopy: an ACT inside the precharge window latches the old
        // bitline state into the new row wherever sense amplifiers are
        // shared (paper §III-B).
        let copy_from = match self.banks[bank as usize].last_pre {
            Some(pre) => {
                let window = Time::from_ps(
                    (self.profile.timing.trp.as_ps() as f64 * COPY_WINDOW_FRACTION) as u64,
                );
                if elapsed(at, pre.at)? < window {
                    Some(pre.wl)
                } else {
                    None
                }
            }
            None => None,
        };

        // Settle pending physics on the destination, then apply the copy,
        // then the activation restore.
        self.settle_and_restore(bank, wl, at)?;
        if let Some(src) = copy_from {
            self.apply_rowcopy(bank, src, wl)?;
        }

        let companion = self.companion_of(wl);
        if let Some(c) = companion {
            if c != wl {
                self.settle_and_restore(bank, c, at)?;
            }
        }
        let b = &mut self.banks[bank as usize];
        if self.profile.hidden.trr.enabled {
            b.sampler.observe(wl.0, 1);
        }
        b.open = Some(OpenRow {
            wl,
            half,
            since: at,
            companion,
        });
        self.stats.activations += 1;
        self.stats.act_energy_units += self.act_energy_per_activation(companion);
        Ok(())
    }

    fn cmd_precharge(&mut self, bank: u32, at: Time) -> Result<(), CommandError> {
        self.check_bank(bank)?;
        let wls = wi(self.geom.wordlines());
        let b = &mut self.banks[bank as usize];
        let open = b.open.ok_or(CommandError::NoOpenRow)?;
        let on_ns = elapsed(at, open.since)?.as_ns();
        b.open = None;
        let a = b.wl_act_mut(open.wl.0, wls);
        a.acts += 1;
        a.on_ns += on_ns;
        if let Some(c) = open.companion {
            let ca = b.wl_act_mut(c.0, wls);
            ca.comp_acts += 1;
            ca.comp_on_ns += on_ns;
        }
        b.last_pre = Some(PreEvent { at, wl: open.wl });
        Ok(())
    }

    fn open_row(&self, bank: u32) -> Result<OpenRow, CommandError> {
        self.banks[bank as usize]
            .open
            .ok_or(CommandError::NoOpenRow)
    }

    fn check_col(&self, col: u32) -> Result<(), CommandError> {
        let cols = self.profile.cols_per_row();
        if col >= cols {
            Err(CommandError::ColOutOfRange { col, cols })
        } else {
            Ok(())
        }
    }

    fn cmd_read(&mut self, bank: u32, col: u32, at: Time) -> Result<ReadData, CommandError> {
        self.check_bank(bank)?;
        self.check_col(col)?;
        let open = self.open_row(bank)?;
        if elapsed(at, open.since)? < self.profile.timing.trcd {
            return Err(CommandError::TrcdViolation);
        }
        let rd_bits = self.profile.io_width.rd_bits();
        let base = open.half * self.geom.row_bits;
        let default = self.default_bit(open.wl);
        let row = self.banks[bank as usize].row(open.wl.0);
        let mut out = 0u64;
        for bit in 0..rd_bits {
            let bl = self.tables.swz_table[wi(col * rd_bits + bit)];
            let v = match row {
                Some(r) => r.data.get(base + bl),
                None => default,
            };
            if v {
                out |= 1 << bit;
            }
        }
        if self.profile.hidden.on_die_ecc {
            let data_cols = self.profile.cols_per_row();
            let mut parity = 0u8;
            for j in 0..crate::ecc::PARITY_BITS {
                let (pc, pb) = crate::ecc::parity_cell(data_cols, rd_bits, col, j);
                let bl = self.tables.swz_table[wi(pc * rd_bits + pb)];
                let v = match row {
                    Some(r) => r.data.get(base + bl),
                    None => default,
                };
                if v {
                    parity |= 1 << j;
                }
            }
            // The constructor asserts on-die ECC implies 32-bit RD_data,
            // so `out` fits; surface a violation as an error, not a panic.
            let code = u32::try_from(out)
                .map_err(|_| CommandError::Internal("ECC read assembled more than 32 data bits"))?;
            let (corrected, _what) = crate::ecc::decode(code, parity);
            out = u64::from(corrected);
        }
        self.stats.reads += 1;
        Ok(ReadData(out))
    }

    fn cmd_write(&mut self, bank: u32, col: u32, data: u64, at: Time) -> Result<(), CommandError> {
        self.check_bank(bank)?;
        self.check_col(col)?;
        let open = self.open_row(bank)?;
        if elapsed(at, open.since)? < self.profile.timing.trcd {
            return Err(CommandError::TrcdViolation);
        }
        let rd_bits = self.profile.io_width.rd_bits();
        let base = open.half * self.geom.row_bits;
        let wl = open.wl;
        self.ensure_row(bank, wl, at);
        // Collect swizzle targets without holding a borrow conflict.
        let mut targets: Vec<(u32, bool)> = (0..rd_bits)
            .map(|bit| {
                let bl = self.tables.swz_table[wi(col * rd_bits + bit)];
                (base + bl, data & (1 << bit) != 0)
            })
            .collect();
        if self.profile.hidden.on_die_ecc {
            let data_cols = self.profile.cols_per_row();
            // Only the 32 data lanes exist on an ECC chip; upper payload
            // bits are not stored, so the parity covers the stored low
            // half exactly.
            let parity = crate::ecc::encode((data & u64::from(u32::MAX)) as u32);
            for j in 0..crate::ecc::PARITY_BITS {
                let (pc, pb) = crate::ecc::parity_cell(data_cols, rd_bits, col, j);
                let bl = self.tables.swz_table[wi(pc * rd_bits + pb)];
                targets.push((base + bl, parity & (1 << j) != 0));
            }
        }
        let row = self.banks[bank as usize]
            .rows
            .get_mut(wi(wl.0))
            .and_then(|r| r.as_deref_mut())
            .ok_or(CommandError::Internal(
                "written row missing after ensure_row",
            ))?;
        for (idx, v) in targets {
            row.data.set(idx, v);
        }
        self.stats.writes += 1;
        Ok(())
    }

    /// One `REF` covers the next 1/8192 slice of the wordlines (JEDEC
    /// granularity): an attack squeezed between two `REF`s hits victims
    /// whose refresh turn has not yet come — the reason RowHammer works
    /// at all, and the window the TRR engine plugs.
    fn cmd_refresh(&mut self, at: Time) -> Result<(), CommandError> {
        for b in 0..self.banks.len() {
            if self.banks[b].open.is_some() {
                return Err(CommandError::RefreshWhileOpen);
            }
        }
        let wls_total = u64::from(self.geom.wordlines());
        let slice_size = wls_total.div_ceil(REF_SLICES).max(1);
        let slice = self.ref_counter % REF_SLICES;
        // Both bounds are clamped to `wls_total`, which is itself a u32
        // widened above; a failed narrowing can only mean that invariant
        // broke, so report it instead of panicking.
        let lo = u32::try_from((slice * slice_size).min(wls_total))
            .map_err(|_| CommandError::Internal("REF slice bound exceeds u32 wordline count"))?;
        let hi = u32::try_from(((slice + 1) * slice_size).min(wls_total))
            .map_err(|_| CommandError::Internal("REF slice bound exceeds u32 wordline count"))?;
        self.ref_counter += 1;
        for bi in 0..self.banks.len() {
            let b =
                u32::try_from(bi).map_err(|_| CommandError::Internal("bank count exceeds u32"))?;
            // The dirty list is sorted, so the slice's wordlines come out
            // in the same ascending order the old map iteration used.
            let dirty = &self.banks[bi].dirty;
            let start = dirty.partition_point(|&wl| wl < lo);
            let end = dirty.partition_point(|&wl| wl < hi);
            let wls: Vec<u32> = dirty[start..end].to_vec();
            for wl in wls {
                self.settle_and_restore(b, Wordline(wl), at)?;
            }
            self.banks[bi].last_pre = None;
            if self.profile.hidden.trr.enabled {
                self.run_in_dram_mitigation(b, at)?;
            }
        }
        self.stats.refreshes += 1;
        Ok(())
    }

    /// The loop-accelerated equivalent of one full refresh window
    /// (8192 `REF` commands): restores every row and resets all retention
    /// clocks in one call.
    ///
    /// # Errors
    ///
    /// Same conditions as a `REF` command.
    pub fn refresh_window(&mut self, at: Time) -> Result<(), CommandError> {
        let result = self.refresh_window_inner(at);
        self.record(ChipEvent::RefreshWindow {
            at,
            outcome: CommandOutcome::of_unit(&result),
        });
        result
    }

    fn refresh_window_inner(&mut self, at: Time) -> Result<(), CommandError> {
        if at < self.now {
            return Err(CommandError::TimeReversed);
        }
        self.now = at;
        for b in 0..self.banks.len() {
            if self.banks[b].open.is_some() {
                return Err(CommandError::RefreshWhileOpen);
            }
        }
        for bi in 0..self.banks.len() {
            let b =
                u32::try_from(bi).map_err(|_| CommandError::Internal("bank count exceeds u32"))?;
            let wls: Vec<u32> = self.banks[bi].dirty.clone();
            for wl in wls {
                self.settle_and_restore(b, Wordline(wl), at)?;
            }
            self.banks[bi].last_pre = None;
            if self.profile.hidden.trr.enabled {
                self.run_in_dram_mitigation(b, at)?;
            }
        }
        self.ref_counter = self.ref_counter.next_multiple_of(REF_SLICES);
        self.stats.refreshes += REF_SLICES;
        Ok(())
    }

    fn cmd_rfm(&mut self, bank: u32, at: Time) -> Result<(), CommandError> {
        self.check_bank(bank)?;
        if self.banks[bank as usize].open.is_some() {
            return Err(CommandError::RefreshWhileOpen);
        }
        if self.profile.hidden.trr.enabled {
            self.run_in_dram_mitigation(bank, at)?;
        }
        Ok(())
    }

    /// One round of in-DRAM mitigation for a bank: the sampler's hottest
    /// rows get their *physical* neighbours restored. The device knows
    /// its own remapping, coupling (the sampler works on wordlines), and
    /// tandem structure, which is exactly why the paper recommends
    /// DRFM-class mitigation for coupled-row attacks (§VI-B).
    fn run_in_dram_mitigation(&mut self, bank: u32, at: Time) -> Result<(), CommandError> {
        let n = self.profile.hidden.trr.mitigations_per_ref;
        let hottest = self.banks[bank as usize].sampler.take_hottest(n);
        for wl in hottest {
            let layout = &self.tables.layout;
            let mut targets = layout.neighbors_at(Wordline(wl), 1);
            if let Some(c) = layout.companion_wordline(Wordline(wl)) {
                targets.extend(layout.neighbors_at(c, 1));
            }
            for v in targets {
                self.settle_and_restore(bank, v, at)?;
            }
        }
        Ok(())
    }

    /// The default (never-written) logical bit of a cell: the discharged
    /// state under the wordline's polarity.
    fn default_bit(&self, wl: Wordline) -> bool {
        self.polarity_of(wl).discharged_bit()
    }

    #[inline]
    fn polarity_of(&self, wl: Wordline) -> CellPolarity {
        self.tables.wl_static[wi(wl.0)].polarity
    }

    /// The tandem companion of a wordline, from the static table.
    #[inline]
    fn companion_of(&self, wl: Wordline) -> Option<Wordline> {
        match self.tables.wl_static[wi(wl.0)].companion {
            NO_COMPANION => None,
            c => Some(Wordline(c)),
        }
    }

    fn default_row(&self, wl: Wordline) -> RowBits {
        let cells = self.geom.cells_per_wordline();
        if self.default_bit(wl) {
            RowBits::ones(cells)
        } else {
            RowBits::zeros(cells)
        }
    }

    /// Allocates the bank's dense row table on first touch.
    #[inline]
    fn ensure_rows_table(&mut self, bank: u32) {
        let b = &mut self.banks[bank as usize];
        if b.rows.is_empty() {
            b.rows = vec![None; wi(self.geom.wordlines())];
        }
    }

    fn ensure_row(&mut self, bank: u32, wl: Wordline, at: Time) {
        self.ensure_rows_table(bank);
        if self.banks[bank as usize].row(wl.0).is_none() {
            let snapshot = self.snapshot_for(bank, wl);
            let state = Box::new(RowState {
                data: self.default_row(wl),
                snapshot,
                last_restore: at,
            });
            let b = &mut self.banks[bank as usize];
            b.rows[wi(wl.0)] = Some(state);
            b.mark_dirty(wl.0);
        }
    }

    /// Current counters of the wordline's aggressors, slot-aligned to
    /// [`WlStatic::aggr`]. Unused slots stay zeroed and are never read.
    fn snapshot_for(&self, bank: u32, wl: Wordline) -> [WlActivity; MAX_AGGRESSORS] {
        let ws = &self.tables.wl_static[wi(wl.0)];
        let b = &self.banks[bank as usize];
        let mut snap = [WlActivity::default(); MAX_AGGRESSORS];
        for (slot, a) in snap.iter_mut().zip(&ws.aggr).take(usize::from(ws.n_aggr)) {
            *slot = b.wl_act(*a);
        }
        snap
    }

    /// Resolves all pending physics for a wordline (disturbance since its
    /// last restore, retention decay) and restores it: snapshots aggressor
    /// counters and resets the retention clock.
    ///
    /// # Errors
    ///
    /// [`CommandError::TimeReversed`] when `at` precedes the row's last
    /// restore (an out-of-order command reached the physics layer).
    fn settle_and_restore(
        &mut self,
        bank: u32,
        wl: Wordline,
        at: Time,
    ) -> Result<(), CommandError> {
        let bi = bank as usize;
        let w = wi(wl.0);
        let ws = self.tables.wl_static[w];
        self.ensure_rows_table(bank);
        if self.banks[bi].row(wl.0).is_none() {
            // The row physically existed since t = 0 holding the default
            // (discharged) pattern; start from a zero counter baseline so
            // disturbance accumulated before the first touch still lands.
            let state = Box::new(RowState {
                data: self.default_row(wl),
                snapshot: [WlActivity::default(); MAX_AGGRESSORS],
                last_restore: Time::ZERO,
            });
            let b = &mut self.banks[bi];
            b.rows[w] = Some(state);
            b.mark_dirty(wl.0);
        }

        let companion_dose = self.profile.hidden.disturb.companion_dose;
        let dist2_dose = self.profile.hidden.disturb.distance_two_dose;

        // Read phase: elapsed time, current aggressor counters, and
        // slot-aligned deltas, without touching the row. The current
        // counters double as the restore snapshot: settling never
        // modifies counters, so they are exactly what `snapshot_for`
        // would re-read afterwards.
        let (elapsed, curs, deltas, any_delta) = {
            let b = &self.banks[bi];
            let row = b
                .row(wl.0)
                .ok_or(CommandError::Internal("settled row missing after insert"))?;
            let elapsed = elapsed(at, row.last_restore)?;
            let mut curs = [WlActivity::default(); MAX_AGGRESSORS];
            let mut deltas = [WlActivity::default(); MAX_AGGRESSORS];
            let mut any = false;
            for slot in 0..usize::from(ws.n_aggr) {
                let cur = b.wl_act(ws.aggr[slot]);
                let d = cur.delta(&row.snapshot[slot]);
                any |= !d.is_zero();
                curs[slot] = cur;
                deltas[slot] = d;
            }
            (elapsed, curs, deltas, any)
        };

        // Retention only matters if the row currently stores any charge;
        // a default discharged row created at t = 0 never decays. Below
        // the cached horizon the expected fail fraction provably stays
        // under NEGLIGIBLE_P, so the CDF and popcount are skipped.
        let do_retention = if elapsed.as_ps() <= self.ret_negligible_ps {
            false
        } else {
            let ret_frac = self
                .retention
                .expected_fail_fraction(self.temperature_c, elapsed);
            ret_frac > NEGLIGIBLE_P && {
                let row = self.banks[bi]
                    .row(wl.0)
                    .ok_or(CommandError::Internal("settled row missing after insert"))?;
                match ws.polarity {
                    CellPolarity::True => row.data.count_ones() > 0,
                    CellPolarity::Anti => row.data.count_ones() < row.data.len(),
                }
            }
        };

        // Bound the best-case flip probability of the accumulated dose;
        // skip the per-cell pass when no cell could plausibly flip
        // (p ≤ NEGLIGIBLE_P even under a generous context-multiplier
        // bound). Ordinary command traffic (a handful of incidental
        // activations) always lands here, which keeps non-attack
        // operation O(1); the cubic pre-filter avoids even the `powf`
        // of the exact bound on that path.
        let worth_evaluating = if !any_delta {
            false
        } else {
            let mut dose_h = 0.0f64;
            let mut dose_p = 0.0f64;
            for (slot, d) in deltas.iter().enumerate().take(usize::from(ws.n_aggr)) {
                if d.is_zero() {
                    continue;
                }
                let s = if slot < usize::from(ws.n_dist1) {
                    1.0
                } else {
                    dist2_dose
                };
                dose_h += s * (d.acts as f64 + companion_dose * d.comp_acts as f64);
                dose_p += s * (d.on_ns + companion_dose * d.comp_on_ns);
            }
            let model = &self.profile.hidden.disturb;
            if model.dose_bound_negligible(dose_h, dose_p, MAX_CONTEXT_MULTIPLIER, NEGLIGIBLE_P) {
                false
            } else {
                let bound =
                    model.flip_probability(Mechanism::Hammer, dose_h, MAX_CONTEXT_MULTIPLIER)
                        + model.flip_probability(Mechanism::Press, dose_p, MAX_CONTEXT_MULTIPLIER);
                bound > NEGLIGIBLE_P
            }
        };

        if do_retention || worth_evaluating {
            // Slow path: the filtered aggressor list in static-slot order
            // is exactly what the map-backed implementation built.
            let mut aggr: Vec<(Wordline, f64, WlActivity)> = Vec::with_capacity(MAX_AGGRESSORS);
            for (slot, d) in deltas.iter().enumerate().take(usize::from(ws.n_aggr)) {
                if d.is_zero() {
                    continue;
                }
                let s = if slot < usize::from(ws.n_dist1) {
                    1.0
                } else {
                    dist2_dose
                };
                aggr.push((Wordline(ws.aggr[slot]), s, *d));
            }
            let mut row = self.banks[bi]
                .rows
                .get_mut(w)
                .and_then(Option::take)
                .ok_or(CommandError::Internal("settled row missing after insert"))?;
            let flipped = self.apply_physics(bank, wl, &mut row, &aggr, do_retention, elapsed);
            self.stats.bitflips += flipped;
            self.banks[bi].rows[w] = Some(row);
        }

        // Restore: snapshot current aggressor counters, reset the clock.
        let row = self.banks[bi]
            .rows
            .get_mut(w)
            .and_then(|r| r.as_deref_mut())
            .ok_or(CommandError::Internal("settled row missing after insert"))?;
        row.snapshot = curs;
        row.last_restore = at;
        Ok(())
    }

    fn apply_physics(
        &self,
        bank: u32,
        wl: Wordline,
        row: &mut RowState,
        aggr: &[(Wordline, f64, WlActivity)],
        do_retention: bool,
        elapsed: Time,
    ) -> u64 {
        let mut flipped = 0u64;
        let model = &self.profile.hidden.disturb;
        let ws = &self.tables.wl_static[wi(wl.0)];
        let polarity = ws.polarity;
        let is_edge = ws.is_edge;
        let cells = self.geom.cells_per_wordline();
        let orig = row.data.clone();

        // Aggressor row data (default pattern when never touched), with
        // everything that stays fixed across this settle's cells.
        let mut aggr_rows: Vec<SettleAggressor> = aggr
            .iter()
            .map(|(a, scale, d)| SettleAggressor {
                dir: if a.0 > wl.0 {
                    AggressorDir::Upper
                } else {
                    AggressorDir::Lower
                },
                dose_scale: *scale,
                dose_h: d.acts as f64 + model.companion_dose * d.comp_acts as f64,
                dose_p: d.on_ns + model.companion_dose * d.comp_on_ns,
                bits: self.banks[bank as usize]
                    .row(a.0)
                    .map(|r| r.data.clone())
                    .unwrap_or_else(|| self.default_row(*a)),
                memo: FlipMemo::new(cells),
            })
            .collect();

        for bl in 0..cells {
            let bit = orig.get(bl);
            let charged = polarity.is_charged(bit);

            // Retention: charged cells decay toward the discharged state.
            if do_retention && charged {
                let u_ret = unit_open(
                    self.seed,
                    bank as u64,
                    wl.0 as u64,
                    bl as u64,
                    TAG_RETENTION,
                );
                if self.retention.fails(u_ret, self.temperature_c, elapsed) {
                    row.data.set(bl, polarity.discharged_bit());
                    flipped += 1;
                    continue;
                }
            }

            if aggr_rows.is_empty() {
                continue;
            }

            // Horizontal victim context (distance −2, −1, +1, +2).
            let mut vic_diff = [None; 4];
            for (i, off) in [-2i64, -1, 1, 2].iter().enumerate() {
                if let Some(n) = bl_offset(bl, *off, cells) {
                    if self.geom.same_mat(Bitline(bl), Bitline(n)) {
                        vic_diff[i] = Some(orig.get(n) != bit);
                    }
                }
            }

            let mut survive_h = 1.0f64;
            let mut survive_p = 1.0f64;
            for ag in &mut aggr_rows {
                let gate = gate_type(wl, Bitline(bl), ag.dir);

                let mut aggr_same = [None; 5];
                for (i, off) in [-2i64, -1, 0, 1, 2].iter().enumerate() {
                    if let Some(n) = bl_offset(bl, *off, cells) {
                        if self.geom.same_mat(Bitline(bl), Bitline(n)) {
                            aggr_same[i] = Some(ag.bits.get(n) == bit);
                        }
                    }
                }

                let ctx = FlipContext {
                    gate,
                    charged,
                    vic_data: bit,
                    vic_neighbor_differs: vic_diff,
                    aggr_same,
                    edge: is_edge,
                    aggr0_data: ag.bits.get(bl),
                    dose_scale: ag.dose_scale,
                };
                let (p_h, p_p) = ag.memo.get_or_insert_with(&ctx, || {
                    let m_h = model.dose_multiplier(Mechanism::Hammer, &ctx);
                    let m_p = model.dose_multiplier(Mechanism::Press, &ctx);
                    (
                        model.flip_probability(Mechanism::Hammer, ag.dose_h, m_h),
                        model.flip_probability(Mechanism::Press, ag.dose_p, m_p),
                    )
                });
                survive_h *= 1.0 - p_h;
                survive_p *= 1.0 - p_p;
            }
            let p_hammer = 1.0 - survive_h;
            let p_press = 1.0 - survive_p;
            let flips = (p_hammer > 0.0
                && unit_open(self.seed, bank as u64, wl.0 as u64, bl as u64, TAG_HAMMER)
                    < p_hammer)
                || (p_press > 0.0
                    && unit_open(self.seed, bank as u64, wl.0 as u64, bl as u64, TAG_PRESS)
                        < p_press);
            if flips {
                row.data.set(bl, !bit);
                flipped += 1;
            }
        }
        flipped
    }

    /// Applies a RowCopy from the latched bitline state of `src` into
    /// `dst`, according to the sense-amplifier sharing between their
    /// subarrays.
    fn apply_rowcopy(
        &mut self,
        bank: u32,
        src: Wordline,
        dst: Wordline,
    ) -> Result<(), CommandError> {
        let relation = self.tables.layout.copy_relation(src, dst);
        if relation == CopyRelation::Unrelated || src == dst {
            return Ok(());
        }
        let src_bits = self.banks[bank as usize]
            .row(src.0)
            .map(|r| r.data.clone())
            .unwrap_or_else(|| self.default_row(src));
        let src_pol = self.polarity_of(src);
        let dst_pol = self.polarity_of(dst);
        self.ensure_row(bank, dst, self.now);
        let cells = self.geom.cells_per_wordline();

        // Map of (dst bitline ← src bitline, crosses an SA) pairs.
        let transfer = |dst_bl: u32, src_bl: u32, crosses_sa: bool, row: &mut RowState| {
            let src_bit = src_bits.get(src_bl);
            let src_charge = src_pol.is_charged(src_bit);
            let dst_charge = if crosses_sa { !src_charge } else { src_charge };
            let dst_bit = match (dst_pol, dst_charge) {
                (crate::cell::CellPolarity::True, c) => c,
                (crate::cell::CellPolarity::Anti, c) => !c,
            };
            row.data.set(dst_bl, dst_bit);
        };

        let mut row = self.banks[bank as usize]
            .rows
            .get_mut(wi(dst.0))
            .and_then(Option::take)
            .ok_or(CommandError::Internal(
                "copy destination missing after ensure_row",
            ))?;
        match relation {
            CopyRelation::SameSubarray if src_pol == dst_pol => {
                // Whole-row fast path: same polarity, no SA crossing.
                row.data = src_bits.clone();
            }
            CopyRelation::SameSubarray => {
                for bl in 0..cells {
                    transfer(bl, bl, false, &mut row);
                }
            }
            CopyRelation::AdjacentAbove => {
                // Shared stripe: src odd ↔ dst even, complementary node.
                for p in 0..cells / 2 {
                    transfer(2 * p, 2 * p + 1, true, &mut row);
                }
            }
            CopyRelation::AdjacentBelow => {
                for p in 0..cells / 2 {
                    transfer(2 * p + 1, 2 * p, true, &mut row);
                }
            }
            CopyRelation::TandemLowToHigh => {
                // Wrap stripe: low-edge even ↔ high-edge odd.
                for p in 0..cells / 2 {
                    transfer(2 * p + 1, 2 * p, true, &mut row);
                }
            }
            CopyRelation::TandemHighToLow => {
                for p in 0..cells / 2 {
                    transfer(2 * p, 2 * p + 1, true, &mut row);
                }
            }
            // Filtered out at the top of the function; return the
            // invariant as an error rather than unwinding mid-copy.
            CopyRelation::Unrelated => {
                return Err(CommandError::Internal("unrelated copy reached transfer"))
            }
        }
        self.banks[bank as usize].rows[wi(dst.0)] = Some(row);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ChipProfile;

    fn chip() -> DramChip {
        DramChip::new(ChipProfile::test_small(), 7)
    }

    /// Write a full row through commands, honoring timing.
    fn write_row(chip: &mut DramChip, bank: u32, row: u32, pattern: u64) -> Time {
        let t = chip.now() + chip.timing().trp;
        chip.issue(Command::Activate { bank, row }, t).unwrap();
        let mut tc = t + chip.timing().trcd;
        for col in 0..chip.profile().cols_per_row() {
            chip.issue(
                Command::Write {
                    bank,
                    col,
                    data: pattern,
                },
                tc,
            )
            .unwrap();
            tc += chip.timing().tck;
        }
        let tp = tc.max(t + chip.timing().tras);
        chip.issue(Command::Precharge { bank }, tp).unwrap();
        tp + chip.timing().trp
    }

    fn read_row(chip: &mut DramChip, bank: u32, row: u32) -> Vec<u64> {
        let t = chip.now() + chip.timing().trp;
        chip.issue(Command::Activate { bank, row }, t).unwrap();
        let mut tc = t + chip.timing().trcd;
        let mut out = Vec::new();
        for col in 0..chip.profile().cols_per_row() {
            let d = chip
                .issue(Command::Read { bank, col }, tc)
                .unwrap()
                .unwrap();
            out.push(d.0);
            tc += chip.timing().tck;
        }
        let tp = tc.max(t + chip.timing().tras);
        chip.issue(Command::Precharge { bank }, tp).unwrap();
        out
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut c = chip();
        write_row(&mut c, 0, 10, 0xDEAD_BEEF);
        let data = read_row(&mut c, 0, 10);
        assert!(data.iter().all(|&d| d == 0xDEAD_BEEF));
    }

    #[test]
    fn unwritten_rows_read_as_discharged() {
        let mut c = chip();
        let data = read_row(&mut c, 0, 77);
        assert!(data.iter().all(|&d| d == 0), "all-true chip defaults to 0");
    }

    #[test]
    fn protocol_violations_are_rejected() {
        let mut c = chip();
        let t = Time::from_ns(100);
        assert_eq!(
            c.issue(Command::Read { bank: 0, col: 0 }, t),
            Err(CommandError::NoOpenRow)
        );
        c.issue(Command::Activate { bank: 0, row: 1 }, t).unwrap();
        assert_eq!(
            c.issue(Command::Activate { bank: 0, row: 2 }, t + c.timing().tck),
            Err(CommandError::RowAlreadyOpen)
        );
        assert_eq!(
            c.issue(Command::Read { bank: 0, col: 0 }, t + c.timing().tck),
            Err(CommandError::TrcdViolation)
        );
        assert_eq!(
            c.issue(Command::Activate { bank: 9, row: 0 }, t + c.timing().trcd),
            Err(CommandError::BankOutOfRange { bank: 9, banks: 2 })
        );
        assert_eq!(
            c.issue(
                Command::Activate {
                    bank: 1,
                    row: 99_999
                },
                t + c.timing().trcd
            ),
            Err(CommandError::RowOutOfRange {
                row: 99_999,
                rows: 2048
            })
        );
        assert_eq!(
            c.issue(Command::Refresh, Time::ZERO),
            Err(CommandError::TimeReversed)
        );
    }

    #[test]
    fn hammering_flips_victim_bits() {
        let mut c = chip();
        // Victim rows around aggressor 20, all inside subarray 0 (0..40).
        write_row(&mut c, 0, 19, u64::MAX);
        write_row(&mut c, 0, 21, u64::MAX);
        write_row(&mut c, 0, 20, 0);
        let t = c.now() + c.timing().trp;
        c.activate_burst(0, 20, 2_000_000, Time::from_ns(35), t)
            .unwrap();
        let flips: u32 = read_row(&mut c, 0, 19)
            .iter()
            .map(|d| d.count_zeros() - 32)
            .sum();
        assert!(flips > 0, "2M activations must flip some victim bits");
    }

    #[test]
    fn hammering_does_not_cross_subarray_boundaries() {
        let mut c = chip();
        // Subarray 0 = wordlines [0, 40); row 40 starts subarray 1.
        write_row(&mut c, 0, 40, u64::MAX);
        write_row(&mut c, 0, 41, u64::MAX);
        write_row(&mut c, 0, 39, 0);
        let t = c.now() + c.timing().trp;
        c.activate_burst(0, 39, 2_000_000, Time::from_ns(35), t)
            .unwrap();
        let flips: u32 = read_row(&mut c, 0, 40)
            .iter()
            .map(|d| (!d & 0xFFFF_FFFF).count_ones())
            .sum();
        assert_eq!(flips, 0, "SA stripe must block disturbance");
        let flips41: u32 = read_row(&mut c, 0, 41)
            .iter()
            .map(|d| (!d & 0xFFFF_FFFF).count_ones())
            .sum();
        assert_eq!(flips41, 0);
    }

    #[test]
    fn rowcopy_within_subarray_copies_everything() {
        let mut c = chip();
        write_row(&mut c, 0, 5, 0x1234_5678);
        // ACT(5) → PRE → fast ACT(9) inside the precharge window.
        let t0 = c.now() + c.timing().trp;
        c.issue(Command::Activate { bank: 0, row: 5 }, t0).unwrap();
        let tp = t0 + c.timing().tras;
        c.issue(Command::Precharge { bank: 0 }, tp).unwrap();
        let quick = tp + Time::from_ps(c.timing().trp.as_ps() / 10);
        c.issue(Command::Activate { bank: 0, row: 9 }, quick)
            .unwrap();
        let tr = quick + c.timing().tras;
        c.issue(Command::Precharge { bank: 0 }, tr).unwrap();
        let copied = read_row(&mut c, 0, 9);
        assert!(copied.iter().all(|&d| d == 0x1234_5678));
    }

    #[test]
    fn slow_reactivation_does_not_copy() {
        let mut c = chip();
        write_row(&mut c, 0, 5, 0xFFFF_FFFF);
        write_row(&mut c, 0, 9, 0);
        let t0 = c.now() + c.timing().trp;
        c.issue(Command::Activate { bank: 0, row: 5 }, t0).unwrap();
        c.issue(Command::Precharge { bank: 0 }, t0 + c.timing().tras)
            .unwrap();
        // Wait the full tRP: bitlines fully precharged, no copy.
        let slow = t0 + c.timing().tras + c.timing().trp * 2;
        c.issue(Command::Activate { bank: 0, row: 9 }, slow)
            .unwrap();
        c.issue(Command::Precharge { bank: 0 }, slow + c.timing().tras)
            .unwrap();
        assert!(read_row(&mut c, 0, 9).iter().all(|&d| d == 0));
    }

    #[test]
    fn rowcopy_to_adjacent_subarray_copies_half_inverted() {
        let mut c = chip();
        // src row 30 in subarray 0 ([0,40)), dst row 45 in subarray 1.
        write_row(&mut c, 0, 30, 0xFFFF_FFFF);
        write_row(&mut c, 0, 45, 0);
        let t0 = c.now() + c.timing().trp;
        c.issue(Command::Activate { bank: 0, row: 30 }, t0).unwrap();
        c.issue(Command::Precharge { bank: 0 }, t0 + c.timing().tras)
            .unwrap();
        let quick = t0 + c.timing().tras + Time::from_ps(c.timing().trp.as_ps() / 10);
        c.issue(Command::Activate { bank: 0, row: 45 }, quick)
            .unwrap();
        c.issue(Command::Precharge { bank: 0 }, quick + c.timing().tras)
            .unwrap();
        let copied = read_row(&mut c, 0, 45);
        let ones: u32 = copied.iter().map(|d| d.count_ones()).sum();
        // Half the cells receive the inverted source (1 → charge-inverted
        // → 0 on an all-true chip), half keep their old value (0).
        assert_eq!(ones, 0, "all-true adjacent copy of ones lands as zeros");
        // Now copy zeros: half the dst cells must become 1.
        write_row(&mut c, 0, 30, 0);
        write_row(&mut c, 0, 45, 0);
        let t1 = c.now() + c.timing().trp;
        c.issue(Command::Activate { bank: 0, row: 30 }, t1).unwrap();
        c.issue(Command::Precharge { bank: 0 }, t1 + c.timing().tras)
            .unwrap();
        let quick = t1 + c.timing().tras + Time::from_ps(c.timing().trp.as_ps() / 10);
        c.issue(Command::Activate { bank: 0, row: 45 }, quick)
            .unwrap();
        c.issue(Command::Precharge { bank: 0 }, quick + c.timing().tras)
            .unwrap();
        let copied = read_row(&mut c, 0, 45);
        let ones: u32 = copied.iter().map(|d| d.count_ones()).sum();
        let total = c.profile().row_bits;
        assert_eq!(ones, total / 2, "exactly half the row copies, inverted");
    }

    #[test]
    fn coupled_rows_share_data() {
        let mut c = DramChip::new(ChipProfile::test_small_coupled(), 3);
        let dist = c.profile().bank_geometry().coupled_row_distance().unwrap();
        // Row 45 resolves to an interior subarray (no tandem energy).
        write_row(&mut c, 0, 45, 0xAAAA_5555);
        // The coupled alias shows distinct data (its own half) but the
        // activation counters alias — checked via stats below.
        let alias = 45 + dist;
        let before = c.stats().activations;
        let _ = read_row(&mut c, 0, alias);
        assert_eq!(c.stats().activations, before + 1);
        // Energy: coupled chips burn 2 units per activation.
        let e0 = c.stats().act_energy_units;
        let _ = read_row(&mut c, 0, 45);
        assert_eq!(c.stats().act_energy_units - e0, 2);
    }

    #[test]
    fn retention_decays_charged_cells() {
        let mut c = chip();
        c.set_temperature(85.0);
        write_row(&mut c, 0, 50, u64::MAX);
        // Wait 500 seconds without refresh, then read.
        let late = c.now() + Time::from_ms(500_000);
        c.issue(Command::Activate { bank: 0, row: 50 }, late)
            .unwrap();
        let mut tc = late + c.timing().trcd;
        let mut zeros = 0;
        for col in 0..c.profile().cols_per_row() {
            let d = c
                .issue(Command::Read { bank: 0, col }, tc)
                .unwrap()
                .unwrap();
            zeros += d.0.count_zeros() - 32;
            tc += c.timing().tck;
        }
        c.issue(Command::Precharge { bank: 0 }, tc + c.timing().tras)
            .unwrap();
        assert!(zeros > 0, "500 s unrefreshed at 85 °C must lose bits");
    }

    #[test]
    fn refresh_prevents_retention_decay() {
        let mut c = chip();
        write_row(&mut c, 0, 50, u64::MAX);
        // One full refresh window every 64 ms for ~20 simulated minutes.
        let mut t = c.now();
        for _ in 0..20_000 {
            t += Time::from_ms(64);
            c.refresh_window(t).unwrap();
        }
        let data = read_row(&mut c, 0, 50);
        assert!(
            data.iter().all(|&d| d == 0xFFFF_FFFF),
            "refreshed row must not decay"
        );
    }

    #[test]
    fn single_ref_covers_only_its_slice() {
        let mut c = chip();
        write_row(&mut c, 0, 50, u64::MAX);
        // 2048 wordlines / 8192 slices: most REFs touch nothing, and one
        // REF is never a full-window refresh.
        let t = c.now() + Time::from_ms(400_000);
        c.issue(Command::Refresh, t).unwrap();
        let late = t + Time::from_ms(400_000);
        let mut tc = late;
        c.issue(Command::Activate { bank: 0, row: 50 }, tc).unwrap();
        tc += c.timing().trcd;
        let d = c
            .issue(Command::Read { bank: 0, col: 0 }, tc)
            .unwrap()
            .unwrap();
        assert!(
            d.0.count_zeros() > 32,
            "800 s with a single sliced REF must still decay"
        );
    }

    #[test]
    fn trr_engine_rescues_victims_between_sliced_refs() {
        let with_trr = ChipProfile::test_small().with_trr(2);
        // Attack in four bursts with a sliced REF between bursts: the TRR
        // engine samples the aggressor and refreshes its neighbours.
        let run = |profile: ChipProfile| -> u32 {
            let mut c = DramChip::new(profile, 7);
            write_row(&mut c, 0, 19, u64::MAX);
            write_row(&mut c, 0, 21, u64::MAX);
            write_row(&mut c, 0, 20, 0);
            let mut t = c.now() + c.timing().trp;
            for _ in 0..12 {
                t = c
                    .activate_burst(0, 20, 200_000, Time::from_ns(35), t)
                    .unwrap();
                t += c.timing().trfc;
                c.issue(Command::Refresh, t).unwrap();
                t += c.timing().trfc;
            }
            read_row(&mut c, 0, 19)
                .iter()
                .map(|d| (!d & 0xFFFF_FFFF).count_ones())
                .sum()
        };
        let unprotected = run(ChipProfile::test_small());
        let protected = run(with_trr);
        assert!(
            unprotected > 0,
            "2.4M total activations must flip without TRR"
        );
        assert_eq!(protected, 0, "TRR must rescue the victims at each REF");
    }

    #[test]
    fn rfm_command_triggers_mitigation_on_demand() {
        let mut c = DramChip::new(ChipProfile::test_small().with_trr(2), 7);
        write_row(&mut c, 0, 19, u64::MAX);
        write_row(&mut c, 0, 21, u64::MAX);
        write_row(&mut c, 0, 20, 0);
        let mut t = c.now() + c.timing().trp;
        for _ in 0..12 {
            t = c
                .activate_burst(0, 20, 200_000, Time::from_ns(35), t)
                .unwrap();
            t += c.timing().trfc;
            c.issue(Command::Rfm { bank: 0 }, t).unwrap();
        }
        let flips: u32 = read_row(&mut c, 0, 19)
            .iter()
            .map(|d| (!d & 0xFFFF_FFFF).count_ones())
            .sum();
        assert_eq!(flips, 0, "RFM between bursts must prevent flips");
        // RFM on a TRR-less chip is accepted but inert.
        let mut plain = DramChip::new(ChipProfile::test_small(), 7);
        plain
            .issue(Command::Rfm { bank: 0 }, Time::from_ns(100))
            .unwrap();
    }

    #[test]
    fn edge_activation_burns_double_energy() {
        let mut c = chip();
        // Row 0 is in the low-edge subarray of segment 0.
        let e0 = c.stats().act_energy_units;
        let _ = read_row(&mut c, 0, 0);
        let edge_cost = c.stats().act_energy_units - e0;
        let e1 = c.stats().act_energy_units;
        let _ = read_row(&mut c, 0, 60); // interior subarray 1 ([40,64))
        let mid_cost = c.stats().act_energy_units - e1;
        assert_eq!(
            edge_cost,
            2 * mid_cost,
            "tandem edge doubles activation power"
        );
    }

    #[test]
    fn ground_truth_matches_profile() {
        let c = chip();
        let gt = c.ground_truth();
        assert_eq!(gt.composition, vec![40, 24]);
        assert_eq!(gt.edge_interval_wls, 256);
        assert_eq!(gt.coupled_distance, None);
        assert_eq!(gt.mat_width, 64);
        assert_eq!(gt.subarray_heights.len(), 64);
    }

    #[test]
    fn on_die_ecc_round_trips_and_hides_parity_columns() {
        let mut c = DramChip::new(ChipProfile::test_small().with_on_die_ecc(), 7);
        assert_eq!(c.profile().cols_per_row(), 6, "8 raw cols -> 6 data cols");
        assert!(c.ground_truth().on_die_ecc);
        write_row(&mut c, 0, 10, 0xDEAD_BEEF);
        assert!(read_row(&mut c, 0, 10).iter().all(|&d| d == 0xDEAD_BEEF));
        // The host cannot address the parity region.
        let t = c.now() + c.timing().trp;
        c.issue(Command::Activate { bank: 0, row: 11 }, t).unwrap();
        assert_eq!(
            c.issue(Command::Read { bank: 0, col: 6 }, t + c.timing().trcd),
            Err(CommandError::ColOutOfRange { col: 6, cols: 6 })
        );
        c.issue(Command::Precharge { bank: 0 }, t + c.timing().tras)
            .unwrap();
    }

    #[test]
    fn on_die_ecc_masks_sparse_disturbance() {
        // At the raw chip's first-flip dose the row holds very few
        // physical errors; on-die ECC must hide (or at least reduce)
        // them. Both chips share the same seed, hence the same silicon.
        let raw_flips_at = |n: u64, ecc: bool| -> u32 {
            let profile = if ecc {
                ChipProfile::test_small().with_on_die_ecc()
            } else {
                ChipProfile::test_small()
            };
            let mut c = DramChip::new(profile, 7);
            write_row(&mut c, 0, 19, u64::MAX);
            write_row(&mut c, 0, 20, 0);
            let t = c.now() + c.timing().trp;
            c.activate_burst(0, 20, n, Time::from_ns(35), t).unwrap();
            read_row(&mut c, 0, 19)
                .iter()
                .map(|d| (!d & 0xFFFF_FFFF).count_ones())
                .sum()
        };
        // Bisect the minimal dose with at least one raw flip.
        let (mut lo, mut hi) = (0u64, 8_000_000u64);
        assert!(raw_flips_at(hi, false) > 0);
        while hi - lo > 50_000 {
            let mid = lo + (hi - lo) / 2;
            if raw_flips_at(mid, false) > 0 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let raw = raw_flips_at(hi, false);
        let corrected = raw_flips_at(hi, true);
        assert!(raw >= 1);
        if raw == 1 {
            assert_eq!(corrected, 0, "a single error must be invisible");
        } else {
            assert!(corrected < raw, "ECC must reduce sparse errors");
        }
    }

    #[test]
    fn chip_is_send() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<DramChip>();
    }

    #[test]
    fn time_reversed_commands_error_explicitly() {
        let mut c = chip();
        let t = Time::from_ns(200);
        c.issue(Command::Activate { bank: 0, row: 1 }, t).unwrap();
        assert_eq!(
            c.issue(Command::Read { bank: 0, col: 0 }, t - Time::from_ns(50)),
            Err(CommandError::TimeReversed)
        );
        // Loop-accelerated entry points reject reversed timestamps too.
        assert_eq!(
            c.activate_burst(1, 0, 10, Time::from_ns(35), Time::from_ns(10)),
            Err(CommandError::TimeReversed)
        );
        assert_eq!(
            c.refresh_window(Time::from_ns(10)),
            Err(CommandError::TimeReversed)
        );
        // The chip state survives a rejected command.
        c.issue(Command::Precharge { bank: 0 }, t + c.timing().tras)
            .unwrap();
    }

    #[test]
    fn physics_flips_are_counted_in_stats() {
        let mut c = chip();
        assert_eq!(c.stats().bitflips, 0);
        write_row(&mut c, 0, 19, u64::MAX);
        write_row(&mut c, 0, 21, u64::MAX);
        write_row(&mut c, 0, 20, 0);
        let t = c.now() + c.timing().trp;
        c.activate_burst(0, 20, 2_000_000, Time::from_ns(35), t)
            .unwrap();
        let mut rows = read_row(&mut c, 0, 19);
        rows.extend(read_row(&mut c, 0, 21));
        let observed: u32 = rows.iter().map(|d| (!d & 0xFFFF_FFFF).count_ones()).sum();
        assert!(observed > 0);
        assert!(c.stats().bitflips >= u64::from(observed));
    }

    #[test]
    fn command_errors_display_their_cause() {
        assert_eq!(
            CommandError::TimeReversed.to_string(),
            "command timestamp precedes previous command"
        );
        assert_eq!(
            CommandError::Internal("x missing").to_string(),
            "internal simulator invariant failed: x missing"
        );
        assert!(CommandError::BankOutOfRange { bank: 9, banks: 2 }
            .to_string()
            .contains("bank 9"));
        use std::error::Error;
        assert!(CommandError::TimeReversed.source().is_none());
    }

    /// Every entry point reports to the attached sink, after execution,
    /// including rejected commands and out-of-band markers.
    #[test]
    fn sink_observes_every_entry_point() {
        use crate::sink::{ChipEvent, CommandSink};
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Log(Vec<String>);
        impl CommandSink for Arc<Mutex<Log>> {
            fn record(&mut self, ev: ChipEvent<'_>) {
                let line = match ev {
                    ChipEvent::Command { cmd, outcome, .. } => format!("{cmd:?} -> {outcome}"),
                    ChipEvent::Burst { count, outcome, .. } => {
                        format!("burst x{count} -> {outcome}")
                    }
                    ChipEvent::RefreshWindow { outcome, .. } => format!("refw -> {outcome}"),
                    ChipEvent::SetTemperature { celsius } => format!("temp {celsius}"),
                    ChipEvent::Marker { label } => format!("mark {label}"),
                };
                self.lock().unwrap().0.push(line);
            }
        }

        let log = Arc::new(Mutex::new(Log::default()));
        let mut c = chip();
        assert!(!c.has_sink());
        c.set_sink(Box::new(Arc::clone(&log)));
        assert!(c.has_sink());

        let t = Time::from_ns(100);
        c.issue(Command::Activate { bank: 0, row: 1 }, t).unwrap();
        // A rejected command is still reported (it can advance the clock).
        let _ = c.issue(Command::Read { bank: 0, col: 0 }, t + c.timing().tck);
        c.issue(Command::Precharge { bank: 0 }, t + c.timing().tras)
            .unwrap();
        c.mark("phase:test");
        c.set_temperature(85.0);
        let t2 = c.now() + c.timing().trp;
        c.activate_burst(0, 5, 3, Time::from_ns(35), t2).unwrap();
        c.refresh_window(c.now() + c.timing().trfc).unwrap();

        c.clear_sink().expect("sink was attached");
        assert!(!c.has_sink());
        // Untracked traffic after clear_sink leaves the log unchanged.
        let t3 = c.now() + c.timing().trp;
        c.issue(Command::Activate { bank: 0, row: 9 }, t3).unwrap();

        let lines = log.lock().unwrap().0.clone();
        assert_eq!(lines.len(), 7, "{lines:?}");
        assert!(lines[0].starts_with("Activate"));
        assert!(lines[1].contains("rejected: read/write issued before tRCD"));
        assert_eq!(lines[3], "mark phase:test");
        assert_eq!(lines[4], "temp 85");
        assert_eq!(lines[5], "burst x3 -> ok");
        assert_eq!(lines[6], "refw -> ok");
    }

    /// Attaching a sink must not perturb the physics: same seed, same
    /// commands, same data with and without a recorder watching.
    #[test]
    fn sink_does_not_change_behavior() {
        use crate::sink::{ChipEvent, CommandSink};
        struct Null;
        impl CommandSink for Null {
            fn record(&mut self, _ev: ChipEvent<'_>) {}
        }
        let run = |with_sink: bool| -> Vec<u64> {
            let mut c = chip();
            if with_sink {
                c.set_sink(Box::new(Null));
            }
            write_row(&mut c, 0, 19, u64::MAX);
            write_row(&mut c, 0, 20, 0);
            let t = c.now() + c.timing().trp;
            c.activate_burst(0, 20, 2_000_000, Time::from_ns(35), t)
                .unwrap();
            read_row(&mut c, 0, 19)
        };
        assert_eq!(run(false), run(true));
    }

    /// `fresh()` is `new()` with the tables shared: whatever the template
    /// chip went through (writes, bursts, a temperature change, a sink),
    /// its fresh chip answers a seeded command stream exactly like a
    /// newly built one.
    #[test]
    fn fresh_chip_behaves_like_a_new_one() {
        use crate::rng::StreamRng;
        use crate::sink::{ChipEvent, CommandSink};
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Log(Arc<Mutex<Vec<String>>>);
        impl CommandSink for Log {
            fn record(&mut self, ev: ChipEvent<'_>) {
                self.0.lock().unwrap().push(format!("{ev:?}"));
            }
        }

        /// Writes, bursts, reads, and long idle gaps closed by an RFM or a
        /// sliced REF, so retention, the sampler and the REF pointer all
        /// shape what the reads see.
        fn drive(c: &mut DramChip, seed: u64) -> Vec<String> {
            let mut rng = StreamRng::new(seed);
            let mut out = Vec::new();
            for _ in 0..48 {
                let row = 8 + rng.next_below(48) as u32;
                let t = c.now() + c.timing().trp;
                match rng.next_below(5) {
                    0 | 1 => {
                        write_row(c, 0, row, rng.next_u64());
                    }
                    2 => {
                        let n = 100_000 + rng.next_below(1_000_000);
                        let end = c.activate_burst(0, row, n, Time::from_ns(35), t);
                        out.push(format!("{end:?}"));
                    }
                    3 => {
                        let idle = t + Time::from_ms(100_000 + rng.next_below(500_000));
                        let cmd = if rng.next_below(2) == 0 {
                            Command::Rfm { bank: 0 }
                        } else {
                            Command::Refresh
                        };
                        out.push(format!("{:?}", c.issue(cmd, idle)));
                    }
                    _ => out.push(format!("{:?}", read_row(c, 0, row))),
                }
            }
            out
        }

        for profile in [
            ChipProfile::test_small().with_trr(2),
            ChipProfile::test_small_coupled(),
        ] {
            let mut template = DramChip::new(profile.clone(), 7);
            template.set_sink(Box::new(Log::default()));
            drive(&mut template, 1);
            template.set_temperature(95.0);
            drive(&mut template, 2);

            let mut fresh = template.fresh();
            let mut new = DramChip::new(profile, 7);
            assert!(!fresh.has_sink());
            let (fresh_log, new_log) = (Log::default(), Log::default());
            fresh.set_sink(Box::new(fresh_log.clone()));
            new.set_sink(Box::new(new_log.clone()));
            assert_eq!(drive(&mut fresh, 3), drive(&mut new, 3));
            assert_eq!(fresh.now(), new.now());
            assert_eq!(fresh.stats(), new.stats());
            assert!(new.stats().bitflips > 0, "the stream must flip bits");
            assert_eq!(fresh.temperature(), new.temperature());
            assert_eq!(
                format!("{:?}", fresh.ground_truth()),
                format!("{:?}", new.ground_truth())
            );
            assert_eq!(*fresh_log.0.lock().unwrap(), *new_log.0.lock().unwrap());
        }
    }

    #[test]
    fn burst_equals_individual_activations() {
        // The burst API and an explicit command loop must leave identical
        // victim damage.
        let mk = |seed| DramChip::new(ChipProfile::test_small(), seed);
        let n = 300_000u64;
        let on = Time::from_ns(35);

        let mut a = mk(42);
        write_row(&mut a, 0, 19, u64::MAX);
        write_row(&mut a, 0, 20, 0);
        let t = a.now() + a.timing().trp;
        a.activate_burst(0, 20, n, on, t).unwrap();
        let burst_read = read_row(&mut a, 0, 19);

        let mut b = mk(42);
        write_row(&mut b, 0, 19, u64::MAX);
        write_row(&mut b, 0, 20, 0);
        let mut t = b.now() + b.timing().trp;
        for _ in 0..n {
            b.issue(Command::Activate { bank: 0, row: 20 }, t).unwrap();
            t += on;
            b.issue(Command::Precharge { bank: 0 }, t).unwrap();
            t += b.timing().trp;
        }
        let loop_read = read_row(&mut b, 0, 19);
        assert_eq!(burst_read, loop_read);
    }
}
