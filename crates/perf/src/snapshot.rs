//! `BENCH_*.json` — the machine-readable perf snapshot.
//!
//! One snapshot is one run of the bench suite on one machine: a schema
//! header, a [`HostInfo`] block (so a baseline read on different
//! hardware can be recognized as such), and per-suite
//! [`SuiteStats`] — `min/median/p95` nanoseconds, iteration count,
//! commands, and commands/sec. Suites are stored in a `BTreeMap` and the
//! writer emits keys in sorted order with a fixed field layout, so two
//! snapshots of the same results are byte-identical — `diff` works on
//! them the way it works on the telemetry fixtures.

use crate::bench::BenchResult;
use crate::error::PerfError;
use dram_telemetry::json::{self, Value};
use std::collections::BTreeMap;

/// Schema identifier stored in every snapshot.
pub const SCHEMA: &str = "dramscope.perf";

/// Snapshot schema version. Bump on incompatible layout changes.
pub const SCHEMA_VERSION: u64 = 1;

/// The machine a snapshot was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// Logical cores (`std::thread::available_parallelism`).
    pub cores: u64,
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
}

impl HostInfo {
    /// Describes the current machine.
    pub fn current() -> HostInfo {
        HostInfo {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        }
    }
}

/// Summary of one suite in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteStats {
    /// Smallest sample, nanoseconds.
    pub min_ns: u64,
    /// Median sample, nanoseconds (the gate's comparison figure).
    pub median_ns: u64,
    /// 95th-percentile sample, nanoseconds.
    pub p95_ns: u64,
    /// Measured iterations behind the statistics.
    pub iters: u64,
    /// Commands processed per iteration.
    pub commands: u64,
    /// Commands per second at the median.
    pub commands_per_sec: f64,
}

/// A full perf snapshot: host plus per-suite statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfSnapshot {
    /// The measuring machine.
    pub host: HostInfo,
    /// Per-suite statistics, keyed by suite name.
    pub suites: BTreeMap<String, SuiteStats>,
}

impl PerfSnapshot {
    /// Builds a snapshot of the current machine from bench results.
    pub fn from_results(results: &[BenchResult]) -> PerfSnapshot {
        let suites = results
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    SuiteStats {
                        min_ns: r.stats.min_ns,
                        median_ns: r.stats.median_ns,
                        p95_ns: r.stats.p95_ns,
                        iters: u64::from(r.stats.n),
                        commands: r.commands,
                        commands_per_sec: r.commands_per_sec(),
                    },
                )
            })
            .collect();
        PerfSnapshot {
            host: HostInfo::current(),
            suites,
        }
    }

    /// Renders the snapshot as pretty-printed JSON with a fixed field
    /// layout and sorted suite keys — byte-stable for equal contents.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"version\": {SCHEMA_VERSION},\n"));
        out.push_str("  \"host\": {\n");
        out.push_str(&format!(
            "    \"arch\": {},\n",
            json::string(&self.host.arch)
        ));
        out.push_str(&format!("    \"cores\": {},\n", self.host.cores));
        out.push_str(&format!("    \"os\": {}\n", json::string(&self.host.os)));
        out.push_str("  },\n");
        out.push_str("  \"suites\": {");
        for (i, (name, s)) in self.suites.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {{\n", json::string(name)));
            out.push_str(&format!("      \"commands\": {},\n", s.commands));
            out.push_str(&format!(
                "      \"commands_per_sec\": {:.1},\n",
                s.commands_per_sec
            ));
            out.push_str(&format!("      \"iters\": {},\n", s.iters));
            out.push_str(&format!("      \"median_ns\": {},\n", s.median_ns));
            out.push_str(&format!("      \"min_ns\": {},\n", s.min_ns));
            out.push_str(&format!("      \"p95_ns\": {}\n", s.p95_ns));
            out.push_str("    }");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a snapshot from JSON text. `path` labels errors only.
    ///
    /// # Errors
    ///
    /// [`PerfError::Parse`] for malformed JSON, [`PerfError::Schema`]
    /// for valid JSON that is not a v1 `dramscope.perf` snapshot.
    pub fn from_json(path: &str, text: &str) -> Result<PerfSnapshot, PerfError> {
        let schema_err = |what: String| PerfError::Schema {
            path: path.to_string(),
            what,
        };
        let doc = json::parse(path, text).map_err(|e| PerfError::Parse {
            path: e.label,
            offset: e.offset,
            what: e.what,
        })?;
        let root = doc
            .as_object()
            .ok_or_else(|| schema_err("document is not an object".into()))?;
        let schema = root
            .get("schema")
            .and_then(Value::as_str)
            .ok_or_else(|| schema_err("missing \"schema\"".into()))?;
        if schema != SCHEMA {
            return Err(schema_err(format!(
                "schema is {schema:?}, expected {SCHEMA:?}"
            )));
        }
        let version = root
            .get("version")
            .and_then(Value::as_u64)
            .ok_or_else(|| schema_err("missing \"version\"".into()))?;
        if version != SCHEMA_VERSION {
            return Err(schema_err(format!(
                "version {version} unsupported (this build reads v{SCHEMA_VERSION})"
            )));
        }
        let host = root
            .get("host")
            .and_then(Value::as_object)
            .ok_or_else(|| schema_err("missing \"host\"".into()))?;
        let host = HostInfo {
            cores: host
                .get("cores")
                .and_then(Value::as_u64)
                .ok_or_else(|| schema_err("host is missing \"cores\"".into()))?,
            os: host
                .get("os")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string(),
            arch: host
                .get("arch")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string(),
        };
        let raw_suites = root
            .get("suites")
            .and_then(Value::as_object)
            .ok_or_else(|| schema_err("missing \"suites\"".into()))?;
        let mut suites = BTreeMap::new();
        for (name, entry) in raw_suites {
            let entry = entry
                .as_object()
                .ok_or_else(|| schema_err(format!("suite {name:?} is not an object")))?;
            let field = |key: &str| {
                entry
                    .get(key)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| schema_err(format!("suite {name:?} is missing integer {key:?}")))
            };
            suites.insert(
                name.clone(),
                SuiteStats {
                    min_ns: field("min_ns")?,
                    median_ns: field("median_ns")?,
                    p95_ns: field("p95_ns")?,
                    iters: field("iters")?,
                    commands: field("commands")?,
                    commands_per_sec: entry
                        .get("commands_per_sec")
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0),
                },
            );
        }
        Ok(PerfSnapshot { host, suites })
    }

    /// Reads and parses a snapshot file.
    ///
    /// # Errors
    ///
    /// [`PerfError::Io`] on filesystem failures plus the
    /// [`PerfSnapshot::from_json`] failure modes.
    pub fn load(path: &str) -> Result<PerfSnapshot, PerfError> {
        let text = std::fs::read_to_string(path).map_err(|e| PerfError::io("read", path, &e))?;
        PerfSnapshot::from_json(path, &text)
    }

    /// Writes the snapshot to `path` as pretty JSON.
    ///
    /// # Errors
    ///
    /// [`PerfError::Io`] on filesystem failures.
    pub fn save(&self, path: &str) -> Result<(), PerfError> {
        std::fs::write(path, self.to_json()).map_err(|e| PerfError::io("write", path, &e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SampleStats;

    fn sample_snapshot() -> PerfSnapshot {
        let results = vec![
            BenchResult {
                name: "characterize_small".into(),
                samples_ns: vec![3_000_000, 2_000_000, 4_000_000],
                stats: SampleStats::of(&[3_000_000, 2_000_000, 4_000_000]).unwrap(),
                commands: 60_000,
            },
            BenchResult {
                name: "trace_decode".into(),
                samples_ns: vec![500_000],
                stats: SampleStats::of(&[500_000]).unwrap(),
                commands: 12_000,
            },
        ];
        PerfSnapshot::from_results(&results)
    }

    #[test]
    fn round_trips_through_json() {
        let snap = sample_snapshot();
        let text = snap.to_json();
        let back = PerfSnapshot::from_json("mem.json", &text).expect("parses back");
        assert_eq!(back, snap);
        // Byte-stable: rendering twice gives identical bytes.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn schema_layout_is_the_documented_one() {
        let text = sample_snapshot().to_json();
        assert!(text.starts_with("{\n  \"schema\": \"dramscope.perf\",\n  \"version\": 1,"));
        assert!(text.contains("\"characterize_small\""));
        assert!(text.contains("\"median_ns\": 3000000"));
        assert!(text.contains("\"commands_per_sec\": 20000000.0"));
        assert!(text.contains("\"cores\":"));
        // Suites are sorted.
        let a = text.find("characterize_small").unwrap();
        let b = text.find("trace_decode").unwrap();
        assert!(a < b);
    }

    #[test]
    fn rejects_wrong_schema_version_and_shapes() {
        let bad: &[(&str, &str)] = &[
            ("[1]", "document is not an object"),
            ("{}", "missing \"schema\""),
            (r#"{"schema":"other"}"#, "schema is \"other\""),
            (r#"{"schema":"dramscope.perf"}"#, "missing \"version\""),
            (
                r#"{"schema":"dramscope.perf","version":9}"#,
                "version 9 unsupported",
            ),
            (
                r#"{"schema":"dramscope.perf","version":1}"#,
                "missing \"host\"",
            ),
            (
                r#"{"schema":"dramscope.perf","version":1,"host":{"cores":1}}"#,
                "missing \"suites\"",
            ),
            (
                r#"{"schema":"dramscope.perf","version":1,"host":{"cores":1},
                   "suites":{"a":3}}"#,
                "suite \"a\" is not an object",
            ),
            (
                r#"{"schema":"dramscope.perf","version":1,"host":{"cores":1},
                   "suites":{"a":{"median_ns":5}}}"#,
                "missing integer \"min_ns\"",
            ),
        ];
        for (text, needle) in bad {
            let err = PerfSnapshot::from_json("bad.json", text).expect_err(text);
            assert!(err.to_string().contains(needle), "{text} gave {err}");
        }
        // Malformed JSON surfaces as a parse error with an offset.
        let err = PerfSnapshot::from_json("bad.json", "{oops").expect_err("parse");
        assert!(matches!(err, PerfError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn load_names_the_missing_file() {
        let err = PerfSnapshot::load("/nonexistent/BENCH_x.json").expect_err("io");
        let text = err.to_string();
        assert!(
            text.contains("cannot read /nonexistent/BENCH_x.json"),
            "{text}"
        );
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let snap = sample_snapshot();
        let path = std::env::temp_dir().join("dram_perf_snapshot_test.json");
        let path = path.to_str().expect("utf-8 temp path");
        snap.save(path).expect("save");
        let back = PerfSnapshot::load(path).expect("load");
        assert_eq!(back, snap);
        let _ = std::fs::remove_file(path);
    }
}
