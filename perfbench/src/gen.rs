//! Workload generators: every request line, key and predicate a run
//! sends is a pure function of the workload seed and the request count.

use std::collections::BTreeSet;

/// The small test profiles every workload draws from, in the order the
/// miss workload cycles them.
pub const TEST_PROFILES: [&str; 4] = [
    "test_small",
    "test_small_interleaved",
    "test_small_coupled",
    "test_small_hbm2",
];

/// splitmix64: small, seedable and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a per-purpose `stream` tag, so
    /// the miss keys, the hit order and the lake seeds of one workload
    /// seed are independent draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A chip seed: 32 bits, so it survives the daemon's f64 JSON
    /// numbers exactly.
    pub fn chip_seed(&mut self) -> u64 {
        self.next_u64() >> 32
    }

    /// Fisher-Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

const STREAM_MISS: u64 = 1;
const STREAM_HIT_KEYS: u64 = 2;
const STREAM_HIT_ORDER: u64 = 3;
const STREAM_QUERY_ORDER: u64 = 4;
const STREAM_LAKE: u64 = 5;
const STREAM_SAMPLE: u64 = 6;

/// One characterization job: a profile name, a chip seed and the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// One of [`TEST_PROFILES`].
    pub profile: &'static str,
    /// The chip seed.
    pub seed: u64,
    /// Run the per-bank sharded flow (the hbm2 profile only).
    pub sharded: bool,
}

impl Key {
    fn new(profile: &'static str, seed: u64) -> Self {
        Key {
            profile,
            seed,
            sharded: profile == "test_small_hbm2",
        }
    }

    /// The `characterize` request line for this key under request `id`.
    pub fn request_line(&self, id: &str) -> String {
        let sharded = if self.sharded {
            ",\"sharded\":true"
        } else {
            ""
        };
        format!(
            "{{\"req\":\"characterize\",\"id\":\"{id}\",\"profile\":\"{}\",\"seed\":{}{sharded}}}",
            self.profile, self.seed
        )
    }
}

/// `n` distinct keys cycling the four test profiles, seeds drawn from
/// the workload seed.
pub fn miss_keys(seed: u64, n: usize) -> Vec<Key> {
    let mut rng = Rng::new(seed, STREAM_MISS);
    let mut seen = BTreeSet::new();
    let mut keys = Vec::with_capacity(n);
    for i in 0..n {
        let profile = TEST_PROFILES[i % TEST_PROFILES.len()];
        let key = loop {
            let key = Key::new(profile, rng.chip_seed());
            if seen.insert(key) {
                break key;
            }
        };
        keys.push(key);
    }
    keys
}

/// The four keys the hit workload warms, one per test profile.
pub fn hit_keys(seed: u64) -> [Key; 4] {
    let mut rng = Rng::new(seed, STREAM_HIT_KEYS);
    TEST_PROFILES.map(|p| Key::new(p, rng.chip_seed()))
}

/// `n` indices below `k` in blocks of `k`, each block a seeded
/// permutation, so every seed sends the same mix.
fn blocks(seed: u64, stream: u64, k: usize, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, stream);
    let mut order = Vec::with_capacity(n + k);
    while order.len() < n {
        let mut block: Vec<usize> = (0..k).collect();
        rng.shuffle(&mut block);
        order.extend(block);
    }
    order.truncate(n);
    order
}

/// Which warmed key each of `n` hit requests names: each key once per
/// block of four.
pub fn hit_order(seed: u64, n: usize) -> Vec<usize> {
    blocks(seed, STREAM_HIT_ORDER, 4, n)
}

/// The three trace-lake predicates the query workload cycles, as the
/// JSON fields of a `query` request: one the index prunes to a few
/// segments, a marker prefix over one probe span, and a full scan.
pub const PREDICATES: [&str; 3] = [
    "\"bank\":2,\"cmd\":\"act\"",
    "\"marker\":\"span:attack_scan\"",
    "\"min_count\":0",
];

/// The library query each [`PREDICATES`] entry stands for.
pub fn predicate_query(index: usize) -> dram_trace::Query {
    let mut q = dram_trace::Query::default();
    match index {
        0 => {
            q.banks = Some(vec![2]);
            q.mnemonics = Some(vec!["act".to_string()]);
        }
        1 => q.marker_prefix = Some("span:attack_scan".to_string()),
        _ => q.min_count = Some(0),
    }
    q
}

/// Which predicate each of `n` query requests uses: each once per block
/// of three.
pub fn query_order(seed: u64, n: usize) -> Vec<usize> {
    blocks(seed, STREAM_QUERY_ORDER, PREDICATES.len(), n)
}

/// The `query` request line for predicate `index` under request `id`.
pub fn query_line(id: &str, index: usize) -> String {
    format!(
        "{{\"req\":\"query\",\"id\":\"{id}\",{}}}",
        PREDICATES[index]
    )
}

/// The recordings of the query workload's lake: each test profile on
/// the serial flow, plus the hbm2 profile on the sharded flow.
pub fn lake_keys(seed: u64) -> Vec<Key> {
    let mut rng = Rng::new(seed, STREAM_LAKE);
    let mut keys: Vec<Key> = TEST_PROFILES
        .iter()
        .map(|p| Key {
            profile: p,
            seed: rng.chip_seed(),
            sharded: false,
        })
        .collect();
    keys.push(Key {
        profile: "test_small_hbm2",
        seed: rng.chip_seed(),
        sharded: true,
    });
    keys
}

/// A seeded sample of `k` distinct indices below `n`, ascending.
pub fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    Rng::new(seed, STREAM_SAMPLE).shuffle(&mut all);
    all.truncate(k.min(n));
    all.sort_unstable();
    all
}

/// The request ids of one workload: a per-workload letter plus the
/// request's position, so ids never collide with set-up requests.
pub fn request_id(prefix: char, i: usize) -> String {
    format!("{prefix}{i}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss_lines(seed: u64, n: usize) -> Vec<String> {
        miss_keys(seed, n)
            .iter()
            .enumerate()
            .map(|(i, k)| k.request_line(&request_id('m', i)))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_lines() {
        assert_eq!(miss_lines(7, 500), miss_lines(7, 500));
        assert_ne!(miss_lines(7, 500), miss_lines(8, 500));
        assert_eq!(hit_keys(7), hit_keys(7));
        assert_eq!(hit_order(7, 1000), hit_order(7, 1000));
        assert_eq!(query_order(7, 300), query_order(7, 300));
        assert_eq!(lake_keys(7), lake_keys(7));
        assert_eq!(sample_indices(7, 400, 8), sample_indices(7, 400, 8));
    }

    #[test]
    fn miss_never_repeats_a_key_and_cycles_profiles() {
        for seed in [0, 1, 42, u64::MAX] {
            let keys = miss_keys(seed, 4000);
            let distinct: BTreeSet<_> = keys.iter().collect();
            assert_eq!(distinct.len(), keys.len(), "seed {seed}");
            for (i, k) in keys.iter().enumerate() {
                assert_eq!(k.profile, TEST_PROFILES[i % 4]);
                assert_eq!(k.sharded, k.profile == "test_small_hbm2");
                assert!(k.seed < 1 << 32);
            }
        }
    }

    #[test]
    fn hit_and_query_orders_keep_the_mix_exact() {
        let order = hit_order(3, 4000);
        for key in 0..4 {
            assert_eq!(order.iter().filter(|&&k| k == key).count(), 1000);
        }
        let order = query_order(3, 300);
        for p in 0..3 {
            assert_eq!(order.iter().filter(|&&k| k == p).count(), 100);
        }
    }

    #[test]
    fn request_lines_parse_as_the_daemon_reads_them() {
        let key = miss_keys(9, 4)[3];
        let line = key.request_line("m3");
        match dramscope_service::parse_request(&line).expect("valid request") {
            dramscope_service::Request::Characterize(req) => {
                assert_eq!(req.seed, key.seed);
                assert_eq!(req.profile_name, key.profile);
                assert!(req.sharded);
            }
            other => panic!("unexpected {other:?}"),
        }
        for i in 0..3 {
            match dramscope_service::parse_request(&query_line("q", i)).expect("valid query") {
                dramscope_service::Request::Query(req) => {
                    assert_eq!(req.to_query(), predicate_query(i))
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
