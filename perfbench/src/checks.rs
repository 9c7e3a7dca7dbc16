//! Output checks, run after the timed section: every answer is parsed
//! and compared with what the request asked for and with in-process
//! references.

use crate::gen::Key;
use dram_perf::json::{self, Value};
use std::collections::BTreeMap;

/// A parsed response line.
pub type Fields = BTreeMap<String, Value>;

/// Parses a response line into its top-level fields.
pub fn fields(line: &str) -> Result<Fields, String> {
    let value = json::parse("response", line).map_err(|e| e.to_string())?;
    value
        .as_object()
        .cloned()
        .ok_or_else(|| format!("not a JSON object: {line}"))
}

fn text<'a>(f: &'a Fields, key: &str) -> Option<&'a str> {
    f.get(key).and_then(Value::as_str)
}

/// A `u64` field of a `stats` answer.
pub fn stat(f: &Fields, key: &str) -> Result<u64, String> {
    f.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("stats answer lacks \"{key}\""))
}

/// Checks one `characterize` answer against its request and returns
/// the dossier digest it carries.
pub fn result_digest(
    answer: Option<&str>,
    id: &str,
    key: &Key,
    cache: &str,
) -> Result<String, String> {
    let line = answer.ok_or_else(|| format!("{id}: no answer"))?;
    let f = fields(line)?;
    let want = |field: &str, ok: bool| {
        if ok {
            Ok(())
        } else {
            Err(format!("{id}: unexpected \"{field}\" in {line:.200}"))
        }
    };
    want("resp", text(&f, "resp") == Some("result"))?;
    want("id", text(&f, "id") == Some(id))?;
    want("profile", text(&f, "profile") == Some(key.profile))?;
    want(
        "seed",
        f.get("seed").and_then(Value::as_u64) == Some(key.seed),
    )?;
    want(
        "sharded",
        f.get("sharded") == Some(&Value::Bool(key.sharded)),
    )?;
    want("cache", text(&f, "cache") == Some(cache))?;
    text(&f, "dossier_digest")
        .map(str::to_string)
        .ok_or_else(|| format!("{id}: no dossier_digest"))
}

/// The dossier digest an in-process run of `key` renders, in the
/// daemon's `0x%016x` form.
pub fn reference_digest(key: &Key) -> Result<String, String> {
    use dramscope_core::shard::{characterize_sharded, ShardConfig};
    let (profile, opts) = dramscope_service::profiles::named_job(key.profile)
        .ok_or_else(|| format!("unknown profile {}", key.profile))?;
    let digest = if key.sharded {
        characterize_sharded(&profile, key.seed, opts, ShardConfig::default())
            .dossier()
            .map_err(|e| e.to_string())?
            .digest()
    } else {
        dramscope_core::dossier::characterize(&profile, key.seed, opts)
            .map_err(|e| e.to_string())?
            .digest()
    };
    Ok(format!("0x{digest:016x}"))
}

/// Checks one `query` answer and returns its embedded report JSON.
pub fn query_report<'a>(answer: Option<&'a str>, id: &str) -> Result<&'a str, String> {
    let line = answer.ok_or_else(|| format!("{id}: no answer"))?;
    let f = fields(line)?;
    if text(&f, "resp") != Some("query") || text(&f, "id") != Some(id) {
        return Err(format!("{id}: not a query answer: {line:.200}"));
    }
    let at = line
        .find(",\"report\":")
        .ok_or_else(|| format!("{id}: no report"))?;
    line[at + 10..]
        .strip_suffix('}')
        .ok_or_else(|| format!("{id}: truncated report"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: Key = Key {
        profile: "test_small",
        seed: 5,
        sharded: false,
    };

    fn result(id: &str, cache: &str) -> String {
        format!(
            "{{\"resp\":\"result\",\"id\":\"{id}\",\"cache\":\"{cache}\",\"profile\":\"test_small\",\
             \"seed\":5,\"sharded\":false,\"dossier_digest\":\"0x00000000000000ab\",\"dossier\":\"x\"}}"
        )
    }

    #[test]
    fn result_checks_echo_and_cache_marker() {
        let line = result("m1", "miss");
        assert_eq!(
            result_digest(Some(&line), "m1", &KEY, "miss").unwrap(),
            "0x00000000000000ab"
        );
        assert!(result_digest(Some(&line), "m2", &KEY, "miss").is_err());
        assert!(result_digest(Some(&line), "m1", &KEY, "hit").is_err());
        let other = Key { seed: 6, ..KEY };
        assert!(result_digest(Some(&line), "m1", &other, "miss").is_err());
        assert!(result_digest(None, "m1", &KEY, "miss").is_err());
        let error = "{\"resp\":\"error\",\"id\":\"m1\",\"error\":\"job failed\"}";
        assert!(result_digest(Some(error), "m1", &KEY, "miss").is_err());
    }

    #[test]
    fn query_report_is_cut_from_the_answer() {
        let line = "{\"resp\":\"query\",\"id\":\"q0\",\"dir\":\"d\",\"matched\":true,\"report\":{\"files\":1,\"hits\":[]}}";
        assert_eq!(
            query_report(Some(line), "q0").unwrap(),
            "{\"files\":1,\"hits\":[]}"
        );
        assert!(query_report(Some(line), "q1").is_err());
    }
}
