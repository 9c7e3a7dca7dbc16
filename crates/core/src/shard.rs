//! Bank-sharded characterization: probe every bank of ONE device
//! concurrently, one shard per bank, and merge the results in
//! deterministic bank order.
//!
//! The paper's findings are per-bank facts — Table III subarray
//! compositions, the edge-subarray structure, coupled-row folds — and
//! SoftMC/DRAM Bender-class platforms get their throughput by running
//! independent command programs against independent banks at once. The
//! reproduction's equivalent: each bank shard gets a **fresh chip built
//! from the same `(profile, seed)`** (the same simulated silicon — the
//! "clone-per-shard" contract) and probes only its own bank, so shards
//! can never observe each other's bank state. Observations, telemetry
//! registries, and trace segments merge back in bank order, which makes
//! the sharded output **byte-identical** to the serial one no matter how
//! many workers ran or in what order shards finished:
//!
//! * [`ShardedDossier::digest`] — same for serial and any shard count;
//! * merged [`Registry`] snapshots — same
//!   bytes (counters/histograms commute, gauges merge in bank order);
//! * recorded traces (see [`crate::trace_run::record_characterization_sharded`])
//!   — same bytes (segments concatenate in bank order).
//!
//! Each bank shard is one task on the fleet's task engine (beside
//! [`parallel_map`](crate::fleet::parallel_map)), the same engine
//! [`run_fleet_sharded`](crate::fleet::run_fleet_sharded) spreads over
//! a whole population; [`characterize_sharded_serial`] maps the engine's
//! per-task closure over the banks on the calling thread instead.
//!
//! # Example
//!
//! ```no_run
//! use dramscope_core::shard::{self, ShardConfig};
//! use dramscope_core::dossier::CharacterizeOptions;
//! use dram_sim::ChipProfile;
//!
//! let report = shard::characterize_sharded(
//!     &ChipProfile::hbm2_mfr_a(),
//!     0x5ca1e,
//!     CharacterizeOptions::default(),
//!     ShardConfig::default(),
//! );
//! println!("{}", report.table());
//! println!("{}", report.dossier().unwrap());
//! ```

use crate::dossier::{CharacterizeOptions, ChipDossier, RunStats, Task};
use crate::error::CoreError;
use crate::fleet::{effective_workers, ms_since, run_task, run_tasks, task_result, Attach};
use dram_sim::ChipProfile;
use dram_telemetry::Registry;
use std::fmt;
use std::time::Instant;

/// Configuration for [`characterize_sharded`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardConfig {
    /// Concurrent shard workers. `0` (the default) uses the machine's
    /// available parallelism; always capped at the device's bank count.
    pub shards: usize,
}

/// The outcome of characterizing one bank shard.
#[derive(Debug, Clone)]
pub struct BankResult {
    /// The bank this shard probed.
    pub bank: u32,
    /// The bank's dossier, or the error/panic that stopped the shard.
    pub outcome: Result<ChipDossier, CoreError>,
    /// Per-phase run statistics (empty when the shard's worker panicked).
    pub stats: RunStats,
    /// Wall-clock time the shard spent on its worker, milliseconds
    /// (zero when the worker panicked — the unwind destroys the clock).
    pub bank_wall_ms: f64,
    /// Telemetry from the shard's bank-local testbed (empty on failure).
    pub metrics: Registry,
}

/// A whole device described bank by bank: the merged output of a
/// sharded characterization, in bank order.
#[derive(Debug, Clone)]
pub struct ShardedDossier {
    /// The device's public label.
    pub label: String,
    /// One dossier per bank, ascending bank order.
    pub banks: Vec<(u32, ChipDossier)>,
}

impl ShardedDossier {
    /// FNV-1a 64 digest of the rendered per-bank dossier, the identity
    /// the sharded-vs-serial determinism contract asserts on (the
    /// per-device analogue of [`ChipDossier::digest`]).
    pub fn digest(&self) -> u64 {
        dram_trace::fnv1a_64(self.to_string().as_bytes())
    }
}

impl fmt::Display for ShardedDossier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== sharded device dossier: {} ({} banks) ===",
            self.label,
            self.banks.len()
        )?;
        for (bank, dossier) in &self.banks {
            writeln!(f, "--- bank {bank} ---")?;
            write!(f, "{dossier}")?;
        }
        Ok(())
    }
}

/// Everything a sharded characterization produced, in bank order.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// The device's public label.
    pub label: String,
    /// The seed every shard's chip clone was built from.
    pub seed: u64,
    /// Per-bank results, ascending bank order.
    pub results: Vec<BankResult>,
    /// End-to-end wall time of the run, milliseconds.
    pub wall_ms: f64,
    /// Shard workers actually used (1 for the serial reference path).
    pub shards: usize,
}

impl ShardedReport {
    /// `true` when every bank produced a dossier.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|r| r.outcome.is_ok())
    }

    /// Assembles the merged per-device dossier, in bank order.
    ///
    /// # Errors
    ///
    /// The first failed bank's error, if any shard failed.
    pub fn dossier(&self) -> Result<ShardedDossier, CoreError> {
        let mut banks = Vec::with_capacity(self.results.len());
        for r in &self.results {
            match &r.outcome {
                Ok(d) => banks.push((r.bank, d.clone())),
                Err(e) => {
                    return Err(format!("bank {} failed: {e}", r.bank).into());
                }
            }
        }
        Ok(ShardedDossier {
            label: self.label.clone(),
            banks,
        })
    }

    /// Folds every bank's telemetry into one device-wide registry, in
    /// bank order — deterministic regardless of shard completion order.
    pub fn merged_metrics(&self) -> Registry {
        Registry::merged(self.results.iter().map(|r| &r.metrics))
    }

    /// Total worker-side wall time across every bank, milliseconds —
    /// what the run would have cost serially on one core.
    pub fn banks_wall_ms(&self) -> f64 {
        self.results.iter().map(|r| r.bank_wall_ms).sum()
    }

    /// Observed parallel speedup: summed per-bank wall time over the
    /// run's end-to-end wall time. `None` when the run's wall time
    /// rounds to zero.
    pub fn speedup(&self) -> Option<f64> {
        (self.wall_ms > 0.0).then(|| self.banks_wall_ms() / self.wall_ms)
    }

    /// A human-readable per-bank summary table (CSV via
    /// [`crate::report::Table`]).
    pub fn table(&self) -> String {
        let mut t = crate::report::Table::new(vec![
            "bank",
            "status",
            "wall_ms",
            "bank_ms",
            "commands",
            "bitflips",
            "composition",
        ]);
        for r in &self.results {
            let (status, composition) = match &r.outcome {
                Ok(d) => ("ok".to_string(), d.composition.clone()),
                Err(e) => (format!("error: {e}"), String::new()),
            };
            t.row(vec![
                r.bank.to_string(),
                status,
                format!("{:.1}", r.stats.wall_ms()),
                format!("{:.1}", r.bank_wall_ms),
                r.stats.commands().to_string(),
                r.stats.bitflips().to_string(),
                composition,
            ]);
        }
        t.to_csv()
    }

    /// One JSON object summarizing the run: shard count, bank/ok
    /// counts, end-to-end and summed per-bank wall times, and the
    /// observed speedup (`null` when the run was too fast to time).
    pub fn summary_json(&self) -> String {
        let ok = self.results.iter().filter(|r| r.outcome.is_ok()).count();
        let speedup = self
            .speedup()
            .map_or("null".to_string(), |s| format!("{s:.2}"));
        format!(
            "{{\"shards\":{},\"banks\":{},\"ok\":{},\"wall_ms\":{:.3},\"banks_wall_ms\":{:.3},\"speedup\":{}}}",
            self.shards,
            self.results.len(),
            ok,
            self.wall_ms,
            self.banks_wall_ms(),
            speedup
        )
    }
}

/// Characterizes every bank of the device concurrently, one shard per
/// bank on a worker pool of [`ShardConfig::shards`] threads.
///
/// Shards never share chip state — each runs the full probe plan
/// against its own clone of the device (same `(profile, seed)`) and
/// touches only its own bank — so the merged report is byte-identical
/// to [`characterize_sharded_serial`] for any shard count. A panic
/// inside one shard costs only that bank.
pub fn characterize_sharded(
    profile: &ChipProfile,
    seed: u64,
    opts: CharacterizeOptions,
    config: ShardConfig,
) -> ShardedReport {
    ShardedReport::run(profile, seed, opts, config, &|_| None)
}

/// The strictly serial reference path: the task engine's per-task
/// closure mapped over the banks on the calling thread, in bank order,
/// with no scheduler in between. Exists so the sharded path's
/// determinism can be asserted byte-for-byte, and as the baseline for
/// the sharded speedup.
pub fn characterize_sharded_serial(
    profile: &ChipProfile,
    seed: u64,
    opts: CharacterizeOptions,
) -> ShardedReport {
    let started = Instant::now();
    let results = Task::banks(profile, seed, opts)
        .iter()
        .map(|task| task_result(task, Ok(run_task(task, None, None)), None))
        .collect();
    ShardedReport {
        label: profile.label(),
        seed,
        results,
        wall_ms: ms_since(started),
        shards: 1,
    }
}

impl ShardedReport {
    /// Runs every bank of the device as one task-engine task on
    /// [`ShardConfig::shards`] workers, with the sink `attach` hands each
    /// bank (by bank index).
    pub(crate) fn run(
        profile: &ChipProfile,
        seed: u64,
        opts: CharacterizeOptions,
        config: ShardConfig,
        attach: Attach<'_>,
    ) -> ShardedReport {
        let started = Instant::now();
        let shards = effective_workers(config.shards, profile.banks as usize);
        let results = run_tasks(&Task::banks(profile, seed, opts), shards, None, attach);
        ShardedReport {
            label: profile.label(),
            seed,
            results,
            wall_ms: ms_since(started),
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::Time;

    fn small_opts() -> CharacterizeOptions {
        CharacterizeOptions {
            scan_rows: 129,
            with_swizzle: false,
            probe_range: (44, 60),
            retention_wait: Time::from_ms(120_000),
        }
    }

    /// The tentpole contract: a sharded run is byte-identical to the
    /// serial reference for any shard count — dossier digest, rendered
    /// dossier text, and the merged telemetry snapshot.
    #[test]
    fn sharded_matches_serial_byte_for_byte() {
        for profile in [
            dram_sim::ChipProfile::test_small(),
            dram_sim::ChipProfile::test_small_hbm2(),
        ] {
            let serial = characterize_sharded_serial(&profile, 77, small_opts());
            assert!(serial.all_ok(), "{}", serial.table());
            let serial_dossier = serial.dossier().unwrap();
            let serial_metrics = serial.merged_metrics().to_json_lines();
            for shards in [1, profile.banks as usize] {
                let par = characterize_sharded(&profile, 77, small_opts(), ShardConfig { shards });
                assert!(par.all_ok(), "{}", par.table());
                let dossier = par.dossier().unwrap();
                assert_eq!(dossier.to_string(), serial_dossier.to_string());
                assert_eq!(dossier.digest(), serial_dossier.digest());
                assert_eq!(par.merged_metrics().to_json_lines(), serial_metrics);
            }
        }
    }

    #[test]
    fn report_covers_every_bank_in_order_with_real_work() {
        let profile = dram_sim::ChipProfile::test_small_hbm2();
        let report = characterize_sharded(&profile, 3, small_opts(), ShardConfig::default());
        assert!(report.all_ok(), "{}", report.table());
        let banks: Vec<u32> = report.results.iter().map(|r| r.bank).collect();
        assert_eq!(banks, vec![0, 1, 2, 3]);
        for r in &report.results {
            assert!(r.stats.commands() > 0, "bank {}", r.bank);
            assert!(r.bank_wall_ms > 0.0, "bank {}", r.bank);
            assert!(
                r.metrics.sum_counters("commands_total") > 0,
                "bank {}",
                r.bank
            );
        }
        assert!(report.banks_wall_ms() > 0.0);
        let summary = report.summary_json();
        assert!(summary.contains("\"banks\":4"), "{summary}");
        assert!(summary.contains("\"ok\":4"), "{summary}");
        let table = report.table();
        assert!(table.lines().next().unwrap().contains("composition"));
        assert_eq!(table.lines().count(), 5, "{table}");
    }

    /// A panic inside one bank shard costs only that bank; siblings
    /// finish, and the report degrades per-bank instead of aborting.
    #[test]
    fn bank_shard_panic_is_isolated_to_its_bank() {
        let profile = dram_sim::ChipProfile::test_small_hbm2();
        let report = ShardedReport::run(
            &profile,
            9,
            small_opts(),
            ShardConfig { shards: 4 },
            &|bank| {
                if bank == 2 {
                    panic!("injected bank fault");
                }
                None
            },
        );
        assert_eq!(report.results.len(), 4);
        assert!(!report.all_ok());
        for r in &report.results {
            if r.bank == 2 {
                let err = r.outcome.as_ref().unwrap_err();
                assert_eq!(err, &CoreError::WorkerPanic("injected bank fault".into()));
                assert_eq!(r.bank_wall_ms, 0.0);
                assert!(r.metrics.is_empty());
            } else {
                assert!(r.outcome.is_ok(), "bank {}: {:?}", r.bank, r.outcome);
            }
        }
        // The failed bank surfaces in the merged-dossier error and table.
        let err = report.dossier().expect_err("bank 2 failed");
        assert!(err.to_string().contains("bank 2 failed"), "{err}");
        assert!(report.table().contains("worker panicked"));
    }

    #[test]
    fn effective_shards_clamps_to_bank_count() {
        assert_eq!(effective_workers(8, 4), 4);
        assert_eq!(effective_workers(2, 4), 2);
        assert_eq!(effective_workers(5, 0), 1);
        assert!(effective_workers(0, 64) >= 1);
    }
}
