//! Labeled metric registries with byte-stable snapshots.
//!
//! A [`Registry`] holds three metric families — monotonic counters,
//! last-write-wins gauges, and log2 [`Histogram`]s — each keyed by a
//! [`Key`] (metric name plus sorted label pairs). All storage is
//! `BTreeMap`, so iteration order, `Display`, and the JSON-lines
//! snapshot are fully determined by the data, never by insertion order
//! or thread scheduling.

use std::collections::BTreeMap;
use std::fmt;

use crate::histogram::Histogram;
use crate::json;
use crate::{SCHEMA, SCHEMA_VERSION};

/// A metric identity: a name plus zero or more `(label, value)` pairs.
///
/// Labels are kept sorted by label name so two keys built from the same
/// pairs in different orders compare equal and render identically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    name: String,
    labels: Vec<(String, String)>,
}

impl Key {
    /// A key with no labels.
    pub fn name(name: &str) -> Key {
        Key {
            name: name.to_string(),
            labels: Vec::new(),
        }
    }

    /// A key with labels; pairs are sorted by label name (ties broken by
    /// value) regardless of argument order.
    pub fn of(name: &str, labels: &[(&str, &str)]) -> Key {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Key {
            name: name.to_string(),
            labels,
        }
    }

    /// The metric name.
    pub fn metric(&self) -> &str {
        &self.name
    }

    /// The sorted label pairs.
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }
}

impl fmt::Display for Key {
    /// `name` or `name{k=v,k2=v2}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        if !self.labels.is_empty() {
            f.write_str("{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{k}={v}")?;
            }
            f.write_str("}")?;
        }
        Ok(())
    }
}

/// An ordered collection of counters, gauges, and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, i64>,
    histograms: BTreeMap<Key, Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// True when no metric of any family has been touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `delta` to the counter at `key` (creating it at zero).
    pub fn inc(&mut self, key: Key, delta: u64) {
        *self.counters.entry(key).or_insert(0) += delta;
    }

    /// Reads a counter; absent counters read as zero.
    pub fn counter(&self, key: &Key) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sets the gauge at `key` to `value`.
    pub fn set_gauge(&mut self, key: Key, value: i64) {
        self.gauges.insert(key, value);
    }

    /// Reads a gauge, if it has ever been set.
    pub fn gauge(&self, key: &Key) -> Option<i64> {
        self.gauges.get(key).copied()
    }

    /// Records one observation into the histogram at `key`.
    pub fn observe(&mut self, key: Key, value: u64) {
        self.histograms.entry(key).or_default().record(value);
    }

    /// Reads a histogram, if any observation has been recorded.
    pub fn histogram(&self, key: &Key) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&Key, u64)> {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// All gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&Key, i64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// All histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&Key, &Histogram)> {
        self.histograms.iter()
    }

    /// Sum of every counter sharing `name`, across all label sets.
    pub fn sum_counters(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Folds `other` into `self`: counters and histogram buckets add,
    /// gauges take the incoming value. Counter/histogram merging is
    /// commutative and associative, so fleet aggregation produces the
    /// same registry no matter what order workers finish in; gauges are
    /// last-write-wins, so callers must merge in a deterministic job
    /// order (the fleet merges in job-definition order).
    pub fn merge(&mut self, other: &Registry) {
        for (k, &v) in &other.counters {
            self.inc(k.clone(), v);
        }
        for (k, &v) in &other.gauges {
            self.set_gauge(k.clone(), v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Folds an ordered sequence of registries into one, by repeated
    /// [`merge`](Self::merge).
    ///
    /// The order of `parts` is the merge order — callers aggregating
    /// parallel work (fleet jobs, bank shards) must pass parts in their
    /// canonical order (job order, bank order), not completion order, so
    /// the gauges' last-write-wins semantics stay deterministic and the
    /// merged snapshot is byte-identical to a serial run's.
    pub fn merged<'a, I>(parts: I) -> Registry
    where
        I: IntoIterator<Item = &'a Registry>,
    {
        let mut out = Registry::new();
        for part in parts {
            out.merge(part);
        }
        out
    }

    /// Renders the registry as a versioned JSON-lines snapshot.
    ///
    /// Line 1 is the schema header; then one line per counter, gauge,
    /// and histogram, each family in key order. The output is
    /// **byte-stable**: the same metric state always renders to the same
    /// bytes. Histogram buckets are emitted sparsely as
    /// `[[index, count], …]` with the fixed log2 boundary convention
    /// (bucket 0 = {0}, bucket i = [2^(i-1), 2^i)), alongside
    /// deterministic `p50`/`p95`/`p99` estimates (see
    /// [`Histogram::quantile_estimate`]).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\":\"{SCHEMA}\",\"version\":{SCHEMA_VERSION},\
             \"counters\":{},\"gauges\":{},\"histograms\":{}}}\n",
            self.counters.len(),
            self.gauges.len(),
            self.histograms.len()
        ));
        for (key, value) in &self.counters {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":{},\"labels\":{},\"value\":{value}}}\n",
                json::string(&key.name),
                json_labels(&key.labels)
            ));
        }
        for (key, value) in &self.gauges {
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":{},\"labels\":{},\"value\":{value}}}\n",
                json::string(&key.name),
                json_labels(&key.labels)
            ));
        }
        for (key, hist) in &self.histograms {
            let mut buckets = String::from("[");
            for (i, (idx, count)) in hist.nonzero_buckets().enumerate() {
                if i > 0 {
                    buckets.push(',');
                }
                buckets.push_str(&format!("[{idx},{count}]"));
            }
            buckets.push(']');
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"name\":{},\"labels\":{},\
                 \"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                 \"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":{buckets}}}\n",
                json::string(&key.name),
                json_labels(&key.labels),
                hist.count(),
                hist.sum(),
                hist.min().unwrap_or(0),
                hist.max().unwrap_or(0),
                hist.quantile_estimate(0.50).unwrap_or(0),
                hist.quantile_estimate(0.95).unwrap_or(0),
                hist.quantile_estimate(0.99).unwrap_or(0),
            ));
        }
        out
    }
}

fn json_labels(labels: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json::string(k));
        out.push(':');
        out.push_str(&json::string(v));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_labels_sort_regardless_of_argument_order() {
        let a = Key::of("m", &[("bank", "3"), ("kind", "act")]);
        let b = Key::of("m", &[("kind", "act"), ("bank", "3")]);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "m{bank=3,kind=act}");
        assert_eq!(Key::name("plain").to_string(), "plain");
    }

    #[test]
    fn snapshot_is_byte_stable_across_insertion_orders() {
        let mut a = Registry::new();
        a.inc(Key::of("cmds", &[("kind", "act")]), 2);
        a.inc(Key::of("cmds", &[("kind", "rd")]), 5);
        a.set_gauge(Key::name("temp_mc"), 45_000);
        a.observe(Key::name("lat_ps"), 7);
        a.observe(Key::name("lat_ps"), 4096);

        let mut b = Registry::new();
        b.observe(Key::name("lat_ps"), 4096);
        b.set_gauge(Key::name("temp_mc"), 45_000);
        b.inc(Key::of("cmds", &[("kind", "rd")]), 5);
        b.observe(Key::name("lat_ps"), 7);
        b.inc(Key::of("cmds", &[("kind", "act")]), 2);

        assert_eq!(a.to_json_lines(), b.to_json_lines());
        let snap = a.to_json_lines();
        assert!(snap.starts_with(&format!("{{\"schema\":\"{SCHEMA}\",\"version\":1,")));
        assert!(snap.contains("\"buckets\":[[3,1],[13,1]]"));
    }

    #[test]
    fn merge_adds_counters_and_histograms_and_overwrites_gauges() {
        let mut a = Registry::new();
        a.inc(Key::name("n"), 3);
        a.observe(Key::name("h"), 10);
        a.set_gauge(Key::name("g"), 1);
        let mut b = Registry::new();
        b.inc(Key::name("n"), 4);
        b.observe(Key::name("h"), 100);
        b.set_gauge(Key::name("g"), 2);

        a.merge(&b);
        assert_eq!(a.counter(&Key::name("n")), 7);
        assert_eq!(a.histogram(&Key::name("h")).unwrap().count(), 2);
        assert_eq!(a.gauge(&Key::name("g")), Some(2));
    }

    #[test]
    fn merged_folds_parts_in_the_given_order() {
        let mut a = Registry::new();
        a.inc(Key::name("n"), 3);
        a.set_gauge(Key::name("g"), 1);
        let mut b = Registry::new();
        b.inc(Key::name("n"), 4);
        b.set_gauge(Key::name("g"), 2);

        let ab = Registry::merged([&a, &b]);
        assert_eq!(ab.counter(&Key::name("n")), 7);
        // Gauges are last-write-wins, so part order decides.
        assert_eq!(ab.gauge(&Key::name("g")), Some(2));
        assert_eq!(Registry::merged([&b, &a]).gauge(&Key::name("g")), Some(1));
        assert!(Registry::merged(std::iter::empty::<&Registry>()).is_empty());
    }

    #[test]
    fn sum_counters_spans_label_sets() {
        let mut r = Registry::new();
        r.inc(Key::of("cmds", &[("kind", "act")]), 2);
        r.inc(Key::of("cmds", &[("kind", "pre")]), 3);
        r.inc(Key::name("other"), 99);
        assert_eq!(r.sum_counters("cmds"), 5);
        assert_eq!(r.sum_counters("absent"), 0);
    }
}
