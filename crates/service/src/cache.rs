//! The dossier store: a capacity-bounded in-memory cache with an
//! optional on-disk persistence tier.
//!
//! # Bounded memory tier
//!
//! Entries live in a `BTreeMap` keyed by [`DossierKey`] alongside a
//! monotonically increasing *hit sequence*: every lookup or insert
//! stamps the entry with the next sequence number, and when a limit
//! ([`CacheLimits::max_entries`] or [`CacheLimits::max_bytes`]) is
//! exceeded the entry with the **smallest** stamp is evicted first —
//! a deterministic LRU. Determinism matters here the same way it does
//! everywhere else in the repo: for a given request history the set of
//! cached entries (and therefore every `stats` counter and `cache.*`
//! event) is reproducible byte for byte. The most recently touched
//! entry is never evicted, so a single oversized dossier parks at one
//! entry over budget rather than thrashing.
//!
//! # Persistence tier
//!
//! With a cache directory configured, every completed job is also
//! written to `<dir>/0x<key>` where `<key>` is the 64-hex-digit
//! concatenation of the four [`DossierKey`] digests. The file format
//! is three lines:
//!
//! ```text
//! DSSR1
//! {"label":...,"composition":...,"digest":"0x…",(…),"dossier":...}
//! fnv1a:0x<16 hex digits over the payload line>
//! ```
//!
//! Writes go to a hidden temp file in the same directory first and are
//! `rename`d into place, so a crash mid-write can never leave a
//! half-written `0x<key>` entry for a restart to trip over — the worst
//! case is a stray `.tmp` file the loader never looks at. Loading is
//! lazy (first request for a key probes the disk) and **total**: a
//! truncated, corrupt, or alien file decodes to a structured error
//! that the service treats as a miss (with a `cache.salvage` event),
//! never a panic. Memory-tier eviction leaves disk files in place;
//! they are the restart story, not the memory-bound story.

use crate::service::{DossierKey, JobOutput};
use dram_sim::digest::fnv1a_64;
use dram_telemetry::json::{self, Value};
use dram_telemetry::Registry;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic first line of a persisted dossier entry.
pub const ENTRY_MAGIC: &str = "DSSR1";

/// Hard ceiling on one persisted entry file, bytes. Anything larger is
/// refused by the loader before buffering (a corrupt or hostile cache
/// directory must not OOM the daemon).
pub const MAX_ENTRY_FILE_BYTES: u64 = 16 * 1024 * 1024;

/// Capacity bounds for the in-memory tier. `0` means unbounded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLimits {
    /// Maximum resident entries (`0` = unbounded).
    pub max_entries: u64,
    /// Maximum resident payload bytes (`0` = unbounded), measured by
    /// [`entry_bytes`].
    pub max_bytes: u64,
}

/// One eviction the store performed, reported back so the service can
/// count it and narrate it on the event bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The key that was dropped from the memory tier.
    pub key: DossierKey,
    /// The payload bytes it was charged for.
    pub bytes: u64,
}

/// The outcome of probing the persistence tier for a key.
#[derive(Debug)]
pub enum DiskProbe {
    /// No directory configured, or no file for this key.
    Absent,
    /// The entry decoded cleanly.
    Loaded(Arc<JobOutput>),
    /// A file exists but could not be decoded; the message says why.
    /// The caller treats this as a miss (the entry will be rewritten
    /// when the job completes).
    Salvage(String),
}

struct StoreEntry {
    output: Arc<JobOutput>,
    /// Hit-sequence stamp of the last lookup or insert.
    last_used: u64,
    bytes: u64,
}

/// The bytes an entry is charged for under [`CacheLimits::max_bytes`]:
/// its variable-length payload strings plus a fixed overhead for the
/// key and counters.
pub fn entry_bytes(output: &JobOutput) -> u64 {
    (output.dossier.len() + output.label.len() + output.composition.len() + 64) as u64
}

/// Renders a key as its cache file name: `0x` plus the 64-hex-digit
/// concatenation of `(profile, seed, geometry, options)`.
pub fn key_file_name(key: &DossierKey) -> String {
    format!(
        "0x{:016x}{:016x}{:016x}{:016x}",
        key.profile_digest, key.seed, key.geometry_digest, key.options_digest
    )
}

/// Encodes one cache entry in the persisted file format (magic line,
/// payload line, checksum line). The inverse of [`decode_entry`].
pub fn encode_entry(output: &JobOutput) -> Vec<u8> {
    let payload = format!(
        concat!(
            "{{\"label\":{},\"composition\":{},\"digest\":\"0x{:016x}\",",
            "\"commands\":{},\"bitflips\":{},\"dossier\":{}}}"
        ),
        json::string(&output.label),
        json::string(&output.composition),
        output.digest,
        output.commands,
        output.bitflips,
        json::string(&output.dossier),
    );
    let mut out = Vec::with_capacity(payload.len() + 32);
    out.extend_from_slice(ENTRY_MAGIC.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(payload.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(format!("fnv1a:0x{:016x}\n", fnv1a_64(payload.as_bytes())).as_bytes());
    out
}

/// Decodes a persisted cache entry. **Total**: every malformed input —
/// truncation at any byte, bit rot, an alien file — maps to an `Err`
/// with a human-readable reason; nothing panics. The checksum line is
/// verified before the payload is parsed, so single-byte corruption
/// anywhere in the payload is caught even when it would still be valid
/// JSON. The loaded entry carries an empty telemetry registry (its
/// metrics were merged into the service registry when it was first
/// computed; they are not part of the byte-stable dossier contract).
pub fn decode_entry(bytes: &[u8]) -> Result<JobOutput, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "entry is not valid UTF-8".to_string())?;
    let rest = text
        .strip_prefix(ENTRY_MAGIC)
        .and_then(|r| r.strip_prefix('\n'))
        .ok_or_else(|| format!("missing {ENTRY_MAGIC} magic line"))?;
    let (payload, trailer) = rest
        .split_once('\n')
        .ok_or_else(|| "missing payload line terminator".to_string())?;
    let sum = trailer
        .strip_prefix("fnv1a:0x")
        .and_then(|t| t.strip_suffix('\n'))
        .ok_or_else(|| "missing or truncated checksum line".to_string())?;
    let sum = u64::from_str_radix(sum, 16).map_err(|_| "malformed checksum".to_string())?;
    let actual = fnv1a_64(payload.as_bytes());
    if sum != actual {
        return Err(format!(
            "checksum mismatch: trailer 0x{sum:016x}, payload 0x{actual:016x}"
        ));
    }
    let value = json::parse("cache entry", payload).map_err(|e| format!("payload parse: {e}"))?;
    let obj = value
        .as_object()
        .ok_or_else(|| "payload is not a JSON object".to_string())?;
    let want_str = |key: &str| -> Result<String, String> {
        match obj.get(key) {
            Some(Value::String(s)) => Ok(s.clone()),
            _ => Err(format!("missing or non-string \"{key}\"")),
        }
    };
    let want_u64 = |key: &str| -> Result<u64, String> {
        obj.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing or non-integer \"{key}\""))
    };
    // The dossier digest stays a hex string, as the entry format has
    // always written it, so existing cache files keep loading.
    let digest = want_str("digest")?;
    let digest = digest
        .strip_prefix("0x")
        .and_then(|d| u64::from_str_radix(d, 16).ok())
        .ok_or_else(|| "malformed \"digest\"".to_string())?;
    Ok(JobOutput {
        label: want_str("label")?,
        composition: want_str("composition")?,
        dossier: want_str("dossier")?,
        digest,
        commands: want_u64("commands")?,
        bitflips: want_u64("bitflips")?,
        metrics: Registry::new(),
    })
}

/// Persists one entry under `dir` using the temp-file-then-rename
/// protocol: the bytes are fully written and flushed to
/// `.{file}.tmp`, then renamed to `0x<key>`. A crash at any point
/// leaves either the old entry, no entry, or a stray temp file — never
/// a partial `0x<key>` file.
pub fn persist_entry(dir: &Path, key: &DossierKey, output: &JobOutput) -> std::io::Result<PathBuf> {
    let name = key_file_name(key);
    let path = dir.join(&name);
    let tmp = dir.join(format!(".{name}.tmp"));
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&encode_entry(output))?;
        file.sync_all()?;
    }
    match std::fs::rename(&tmp, &path) {
        Ok(()) => Ok(path),
        Err(e) => {
            // Leave nothing behind on a failed rename.
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Reads and decodes the persisted entry for `key` under `dir`.
/// A missing file is `Absent`; anything else that fails is `Salvage`
/// with the reason — the caller never sees an error it must handle
/// beyond "treat as miss".
pub fn probe_disk(dir: &Path, key: &DossierKey) -> DiskProbe {
    let path = dir.join(key_file_name(key));
    let file = match std::fs::File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return DiskProbe::Absent,
        Err(e) => return DiskProbe::Salvage(format!("open {}: {e}", path.display())),
    };
    let mut bytes = Vec::new();
    if let Err(e) = file.take(MAX_ENTRY_FILE_BYTES + 1).read_to_end(&mut bytes) {
        return DiskProbe::Salvage(format!("read {}: {e}", path.display()));
    }
    if bytes.len() as u64 > MAX_ENTRY_FILE_BYTES {
        return DiskProbe::Salvage(format!(
            "{} exceeds the {MAX_ENTRY_FILE_BYTES}-byte entry limit",
            path.display()
        ));
    }
    match decode_entry(&bytes) {
        Ok(output) => DiskProbe::Loaded(Arc::new(output)),
        Err(reason) => DiskProbe::Salvage(format!("{}: {reason}", path.display())),
    }
}

/// The in-memory tier: a deterministic-LRU bounded map.
#[derive(Default)]
pub(crate) struct DossierStore {
    entries: BTreeMap<DossierKey, StoreEntry>,
    limits: CacheLimits,
    dir: Option<PathBuf>,
    /// The hit-sequence counter; strictly increasing across every
    /// lookup and insert, so LRU stamps are never tied.
    tick: u64,
    bytes: u64,
}

impl DossierStore {
    /// Resident entries.
    pub fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Resident payload bytes, as charged by [`entry_bytes`].
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The persistence directory, if configured.
    pub fn dir(&self) -> Option<&PathBuf> {
        self.dir.as_ref()
    }

    /// Points the persistence tier at `dir`.
    pub fn set_dir(&mut self, dir: PathBuf) {
        self.dir = Some(dir);
    }

    /// Installs capacity bounds and immediately enforces them,
    /// returning anything evicted to get under the new limits.
    pub fn set_limits(&mut self, limits: CacheLimits) -> Vec<Evicted> {
        self.limits = limits;
        self.enforce()
    }

    /// Looks up a key without stamping the hit sequence: a peek never
    /// changes which entry the next eviction selects.
    pub fn peek(&self, key: &DossierKey) -> Option<Arc<JobOutput>> {
        self.entries.get(key).map(|e| Arc::clone(&e.output))
    }

    /// Looks up a key, stamping the entry as most recently used.
    pub fn get(&mut self, key: &DossierKey) -> Option<Arc<JobOutput>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(key)?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.output))
    }

    /// Inserts (or replaces) an entry as most recently used and
    /// enforces the capacity bounds, returning what was evicted.
    pub fn insert(&mut self, key: DossierKey, output: Arc<JobOutput>) -> Vec<Evicted> {
        self.tick += 1;
        let bytes = entry_bytes(&output);
        if let Some(old) = self.entries.insert(
            key,
            StoreEntry {
                output,
                last_used: self.tick,
                bytes,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.enforce()
    }

    /// Evicts least-recently-used entries until both limits hold (or
    /// only the most recently touched entry remains).
    fn enforce(&mut self) -> Vec<Evicted> {
        let mut evicted = Vec::new();
        loop {
            if self.entries.len() <= 1 {
                break;
            }
            let over_entries = self.limits.max_entries != 0 && self.len() > self.limits.max_entries;
            let over_bytes = self.limits.max_bytes != 0 && self.bytes > self.limits.max_bytes;
            if !over_entries && !over_bytes {
                break;
            }
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty map has a minimum");
            let entry = self
                .entries
                .remove(&oldest)
                .expect("key came from this map");
            self.bytes -= entry.bytes;
            evicted.push(Evicted {
                key: oldest,
                bytes: entry.bytes,
            });
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(text: &str) -> Arc<JobOutput> {
        Arc::new(JobOutput {
            label: "lab".into(),
            dossier: text.to_string(),
            digest: fnv1a_64(text.as_bytes()),
            composition: "comp".into(),
            commands: 7,
            bitflips: 2,
            metrics: Registry::new(),
        })
    }

    fn key(n: u64) -> DossierKey {
        DossierKey {
            profile_digest: n,
            seed: n.wrapping_mul(3),
            geometry_digest: n.wrapping_mul(5),
            options_digest: n.wrapping_mul(7),
        }
    }

    #[test]
    fn entry_round_trips_through_the_file_format() {
        let original = output("dossier text with \"quotes\", a \u{7f} DEL and a 😀");
        let bytes = encode_entry(&original);
        let decoded = decode_entry(&bytes).expect("clean decode");
        assert_eq!(decoded.dossier, original.dossier);
        assert_eq!(decoded.label, original.label);
        assert_eq!(decoded.composition, original.composition);
        assert_eq!(decoded.digest, original.digest);
        assert_eq!(decoded.commands, original.commands);
        assert_eq!(decoded.bitflips, original.bitflips);
    }

    #[test]
    fn key_file_names_are_sixty_six_chars_and_unique_per_field() {
        let name = key_file_name(&key(1));
        assert_eq!(name.len(), 2 + 64);
        assert!(name.starts_with("0x"));
        let mut variants = vec![key(1)];
        let mut k = key(1);
        k.seed += 1;
        variants.push(k);
        let mut k = key(1);
        k.options_digest += 1;
        variants.push(k);
        let names: std::collections::BTreeSet<String> =
            variants.iter().map(key_file_name).collect();
        assert_eq!(names.len(), variants.len());
    }

    #[test]
    fn lru_eviction_is_deterministic_by_hit_sequence() {
        let mut store = DossierStore::default();
        store.set_limits(CacheLimits {
            max_entries: 2,
            max_bytes: 0,
        });
        assert!(store.insert(key(1), output("a")).is_empty());
        assert!(store.insert(key(2), output("b")).is_empty());
        // Touch key 1 so key 2 becomes the LRU.
        assert!(store.get(&key(1)).is_some());
        let evicted = store.insert(key(3), output("c"));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].key, key(2));
        assert!(store.get(&key(2)).is_none());
        assert!(store.get(&key(1)).is_some());
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn byte_limit_evicts_but_never_drops_the_newest_entry() {
        let mut store = DossierStore::default();
        store.set_limits(CacheLimits {
            max_entries: 0,
            max_bytes: 1,
        });
        assert!(store.insert(key(1), output("aaaa")).is_empty());
        let evicted = store.insert(key(2), output("bbbb"));
        assert_eq!(evicted.len(), 1, "over-budget LRU evicted");
        assert_eq!(evicted[0].key, key(1));
        assert_eq!(store.len(), 1, "newest entry survives over budget");
    }

    #[test]
    fn persist_and_probe_round_trip_with_no_stray_temp_files() {
        let dir = std::env::temp_dir().join(format!("dramscope_cachemod_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = output("persisted dossier");
        let k = key(9);
        let path = persist_entry(&dir, &k, &out).expect("persisted");
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            key_file_name(&k)
        );
        match probe_disk(&dir, &k) {
            DiskProbe::Loaded(loaded) => assert_eq!(loaded.dossier, out.dossier),
            other => panic!("expected load, got {other:?}"),
        }
        // No temp residue, and an absent key is Absent, not an error.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(stray.is_empty(), "{stray:?}");
        assert!(matches!(probe_disk(&dir, &key(10)), DiskProbe::Absent));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_files_probe_as_salvage_not_panic() {
        let dir = std::env::temp_dir().join(format!("dramscope_salvage_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let k = key(4);
        std::fs::write(dir.join(key_file_name(&k)), b"DSSR1\n{\"label\":").unwrap();
        match probe_disk(&dir, &k) {
            DiskProbe::Salvage(reason) => {
                assert!(
                    reason.contains("terminator")
                        || reason.contains("checksum")
                        || reason.contains("truncated"),
                    "{reason}"
                );
            }
            other => panic!("expected salvage, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
