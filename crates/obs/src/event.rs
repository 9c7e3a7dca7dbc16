//! The structured event model and its byte-stable JSON-line codec.
//!
//! One event is one JSON object on one line, with a **fixed key order**
//! so identical events always render to identical bytes:
//!
//! ```text
//! {"seq":7,"sev":"info","kind":"cache.miss","run":"r1","job":"j1",
//!  "shard":3,"fields":{"seed":42},"wall":{"ms":12}}
//! ```
//!
//! `run`, `job`, and `shard` are omitted when absent; `fields` and
//! `wall` are omitted when empty. Keys inside `fields`/`wall` render in
//! `BTreeMap` order. [`Event::stable_line`] renders the event without
//! its `wall` map — the wall-clock-free form that digests and
//! byte-stability checks consume.
//!
//! Decoding ([`decode_event`]) is total: every malformed line maps to a
//! structured [`ObsError::Decode`], never a panic. Unknown top-level
//! keys are rejected (same strictness as the service wire protocol), so
//! a corrupted key name cannot silently drop a field.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::ObsError;
use dram_telemetry::json::{self, Value};

/// Event severity, ordered `Debug < Info < Warn < Error` so filters can
/// use `>=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Chatty diagnostics.
    Debug,
    /// Normal lifecycle.
    Info,
    /// Something unexpected but survivable (a simulator clock anomaly,
    /// a dropped journal write).
    Warn,
    /// Something failed (a job panicked, a request would not decode).
    Error,
}

impl Severity {
    /// The wire spelling (`"debug"`, `"info"`, `"warn"`, `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parses the wire spelling back.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "debug" => Some(Severity::Debug),
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A scalar event field value.
///
/// Numbers are integers only, exact across their whole 64-bit range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// A non-negative integer.
    U64(u64),
    /// A negative integer (non-negative values normalize to `U64`).
    I64(i64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl FieldValue {
    fn render(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => out.push_str(&v.to_string()),
            FieldValue::I64(v) => out.push_str(&v.to_string()),
            FieldValue::Str(s) => out.push_str(&json::string(s)),
            FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::Str(s) => f.write_str(s),
            FieldValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// One structured, sequenced, correlated event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number assigned by the emitting bus.
    pub seq: u64,
    /// Severity.
    pub severity: Severity,
    /// Dotted kind, e.g. `job.started`, `cache.hit`, `sim.clock_anomaly`.
    pub kind: String,
    /// Correlates every event of one run (a fleet sweep, a daemon
    /// lifetime, a CLI invocation).
    pub run_id: Option<String>,
    /// Correlates every event of one job within a run.
    pub job_id: Option<String>,
    /// Shard (bank) index for sharded work.
    pub shard: Option<u32>,
    /// Deterministic payload: simulated time, counts, labels.
    pub fields: BTreeMap<String, FieldValue>,
    /// Wall-clock payload, quarantined: excluded from
    /// [`stable_line`](Event::stable_line) and from any digest.
    pub wall: BTreeMap<String, FieldValue>,
}

impl Event {
    /// Renders the full journal line (no trailing newline).
    pub fn line(&self) -> String {
        self.render(true)
    }

    /// Renders the wall-clock-free line: identical to [`line`](Event::line)
    /// except the `wall` map is omitted entirely. This is the rendering
    /// digests and byte-stability comparisons must use.
    pub fn stable_line(&self) -> String {
        self.render(false)
    }

    fn render(&self, with_wall: bool) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"sev\":\"");
        out.push_str(self.severity.as_str());
        out.push_str("\",\"kind\":");
        out.push_str(&json::string(&self.kind));
        if let Some(run) = &self.run_id {
            out.push_str(",\"run\":");
            out.push_str(&json::string(run));
        }
        if let Some(job) = &self.job_id {
            out.push_str(",\"job\":");
            out.push_str(&json::string(job));
        }
        if let Some(shard) = self.shard {
            out.push_str(",\"shard\":");
            out.push_str(&shard.to_string());
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":");
            render_map(&self.fields, &mut out);
        }
        if with_wall && !self.wall.is_empty() {
            out.push_str(",\"wall\":");
            render_map(&self.wall, &mut out);
        }
        out.push('}');
        out
    }

    /// Looks up a deterministic field.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.get(key)
    }
}

fn render_map(map: &BTreeMap<String, FieldValue>, out: &mut String) {
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json::string(k));
        out.push(':');
        v.render(out);
    }
    out.push('}');
}

/// The keys an event line may carry, in their canonical render order.
const EVENT_KEYS: [&str; 8] = [
    "seq", "sev", "kind", "run", "job", "shard", "fields", "wall",
];

/// Decodes one journal line back into an [`Event`].
///
/// Total: every malformed input maps to [`ObsError::Decode`]. Unknown
/// top-level keys, wrong value types, out-of-range shards, fractional or
/// oversized numbers, and non-scalar field values are all structured
/// errors.
pub fn decode_event(line: &str) -> Result<Event, ObsError> {
    let value = json::parse("journal", line)
        .map_err(|e| ObsError::decode(format!("not valid JSON: {e}")))?;
    let obj = value
        .as_object()
        .ok_or_else(|| ObsError::decode("event line is not a JSON object"))?;
    for key in obj.keys() {
        if !EVENT_KEYS.contains(&key.as_str()) {
            return Err(ObsError::decode(format!("unknown key {key:?}")));
        }
    }
    let seq = obj
        .get("seq")
        .and_then(Value::as_u64)
        .ok_or_else(|| ObsError::decode("missing or non-integer \"seq\""))?;
    let severity = obj
        .get("sev")
        .and_then(Value::as_str)
        .and_then(Severity::parse)
        .ok_or_else(|| ObsError::decode("missing or unknown \"sev\""))?;
    let kind = obj
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| ObsError::decode("missing or non-string \"kind\""))?
        .to_string();
    if kind.is_empty() {
        return Err(ObsError::decode("empty \"kind\""));
    }
    let run_id = opt_string(obj.get("run"), "run")?;
    let job_id = opt_string(obj.get("job"), "job")?;
    let shard = match obj.get("shard") {
        None => None,
        Some(v) => {
            let n = v
                .as_u64()
                .filter(|&n| n <= u64::from(u32::MAX))
                .ok_or_else(|| ObsError::decode("\"shard\" is not a u32"))?;
            Some(n as u32)
        }
    };
    let fields = decode_map(obj.get("fields"), "fields")?;
    let wall = decode_map(obj.get("wall"), "wall")?;
    Ok(Event {
        seq,
        severity,
        kind,
        run_id,
        job_id,
        shard,
        fields,
        wall,
    })
}

fn opt_string(value: Option<&Value>, key: &str) -> Result<Option<String>, ObsError> {
    match value {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| ObsError::decode(format!("{key:?} is not a string"))),
    }
}

fn decode_map(value: Option<&Value>, what: &str) -> Result<BTreeMap<String, FieldValue>, ObsError> {
    let Some(value) = value else {
        return Ok(BTreeMap::new());
    };
    let obj = value
        .as_object()
        .ok_or_else(|| ObsError::decode(format!("{what:?} is not an object")))?;
    let mut out = BTreeMap::new();
    for (k, v) in obj {
        let fv = match v {
            Value::String(s) => FieldValue::Str(s.clone()),
            Value::Bool(b) => FieldValue::Bool(*b),
            Value::U64(n) => FieldValue::U64(*n),
            Value::I64(n) => FieldValue::I64(*n),
            Value::F64(_) => {
                return Err(ObsError::decode(format!(
                    "{what:?}.{k:?} is not an integer"
                )))
            }
            _ => return Err(ObsError::decode(format!("{what:?}.{k:?} is not a scalar"))),
        };
        out.insert(k.clone(), fv);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        let mut fields = BTreeMap::new();
        fields.insert("seed".to_string(), FieldValue::U64(42));
        fields.insert("label".to_string(), FieldValue::Str("a\"b".to_string()));
        fields.insert("ok".to_string(), FieldValue::Bool(true));
        fields.insert("delta".to_string(), FieldValue::I64(-7));
        let mut wall = BTreeMap::new();
        wall.insert("ms".to_string(), FieldValue::U64(12));
        Event {
            seq: 7,
            severity: Severity::Info,
            kind: "cache.miss".to_string(),
            run_id: Some("r1".to_string()),
            job_id: Some("j1".to_string()),
            shard: Some(3),
            fields,
            wall,
        }
    }

    #[test]
    fn encode_is_fixed_order_and_round_trips() {
        let e = sample();
        let line = e.line();
        assert_eq!(
            line,
            "{\"seq\":7,\"sev\":\"info\",\"kind\":\"cache.miss\",\"run\":\"r1\",\
             \"job\":\"j1\",\"shard\":3,\"fields\":{\"delta\":-7,\"label\":\"a\\\"b\",\
             \"ok\":true,\"seed\":42},\"wall\":{\"ms\":12}}"
        );
        let back = decode_event(&line).expect("round trip");
        assert_eq!(back, e);
        // Re-encoding the decoded event reproduces the exact bytes.
        assert_eq!(back.line(), line);
    }

    #[test]
    fn stable_line_omits_wall_only() {
        let e = sample();
        let stable = e.stable_line();
        assert!(!stable.contains("wall"));
        let mut no_wall = e.clone();
        no_wall.wall.clear();
        assert_eq!(stable, no_wall.line());
        // A decoded stable line equals the event with wall stripped.
        assert_eq!(decode_event(&stable).unwrap(), no_wall);
    }

    #[test]
    fn minimal_event_omits_absent_keys() {
        let e = Event {
            seq: 0,
            severity: Severity::Warn,
            kind: "x".to_string(),
            run_id: None,
            job_id: None,
            shard: None,
            fields: BTreeMap::new(),
            wall: BTreeMap::new(),
        };
        assert_eq!(e.line(), "{\"seq\":0,\"sev\":\"warn\",\"kind\":\"x\"}");
        assert_eq!(decode_event(&e.line()).unwrap(), e);
    }

    #[test]
    fn severity_orders_and_round_trips() {
        assert!(Severity::Debug < Severity::Info);
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        for sev in [
            Severity::Debug,
            Severity::Info,
            Severity::Warn,
            Severity::Error,
        ] {
            assert_eq!(Severity::parse(sev.as_str()), Some(sev));
        }
        assert_eq!(Severity::parse("fatal"), None);
    }

    #[test]
    fn decode_rejects_malformed_lines_with_errors() {
        let cases = [
            "",
            "null",
            "[]",
            "{\"sev\":\"info\",\"kind\":\"x\"}", // no seq
            "{\"seq\":1,\"kind\":\"x\"}",        // no sev
            "{\"seq\":1,\"sev\":\"info\"}",      // no kind
            "{\"seq\":1,\"sev\":\"info\",\"kind\":\"\"}", // empty kind
            "{\"seq\":1,\"sev\":\"loud\",\"kind\":\"x\"}", // bad sev
            "{\"seq\":-1,\"sev\":\"info\",\"kind\":\"x\"}", // negative seq
            "{\"seq\":1.5,\"sev\":\"info\",\"kind\":\"x\"}", // fractional
            "{\"seq\":1,\"sev\":\"info\",\"kind\":\"x\",\"zz\":1}", // unknown key
            "{\"seq\":1,\"sev\":\"info\",\"kind\":\"x\",\"shard\":4294967296}",
            "{\"seq\":1,\"sev\":\"info\",\"kind\":\"x\",\"run\":7}",
            "{\"seq\":1,\"sev\":\"info\",\"kind\":\"x\",\"fields\":[]}",
            "{\"seq\":1,\"sev\":\"info\",\"kind\":\"x\",\"fields\":{\"a\":null}}",
            "{\"seq\":1,\"sev\":\"info\",\"kind\":\"x\",\"fields\":{\"a\":{}}}",
            "{\"seq\":1,\"sev\":\"info\",\"kind\":\"x\",\"fields\":{\"a\":1e99}}",
        ];
        for line in cases {
            let err = decode_event(line).expect_err(line);
            assert!(matches!(err, ObsError::Decode { .. }), "{line}");
        }
    }

    #[test]
    fn integer_fields_decode_exactly_and_other_numbers_are_rejected() {
        let line = |n: &str| {
            format!("{{\"seq\":1,\"sev\":\"info\",\"kind\":\"x\",\"fields\":{{\"n\":{n}}}}}")
        };
        let exact = [
            ("0", FieldValue::U64(0)),
            ("-3", FieldValue::I64(-3)),
            ("9007199254740993", FieldValue::U64((1 << 53) + 1)),
            ("18446744073709551615", FieldValue::U64(u64::MAX)),
            ("-9223372036854775808", FieldValue::I64(i64::MIN)),
        ];
        for (n, want) in exact {
            let event = decode_event(&line(n)).unwrap_or_else(|e| panic!("{n}: {e}"));
            assert_eq!(event.field("n"), Some(&want), "{n}");
            assert_eq!(event.line(), line(n), "{n} re-encodes to the same bytes");
        }
        for n in ["0.5", "1e3", "1e99"] {
            let err = decode_event(&line(n)).expect_err(n);
            assert!(err.to_string().contains("is not an integer"), "{n}: {err}");
        }
        let over = "{\"seq\":18446744073709551616,\"sev\":\"info\",\"kind\":\"x\"}";
        assert!(matches!(decode_event(over), Err(ObsError::Decode { .. })));
    }
}
