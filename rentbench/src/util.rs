//! Small shared pieces: the seeded generator, percentile summaries,
//! `/proc` readers and the JSON result helpers.

use lsc_abi::json::JsonValue;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// SplitMix64: a small, fast, seedable generator. Every workload input
/// (tenant order, bids, read-mix order, lease choice) comes from it, so
/// one seed always produces the same inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0F4E_47A1_C0DE)
    }

    /// An independent stream for one purpose, so adding draws to one
    /// stream does not shift the inputs of another.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// A latency or size sample set, summarised by nearest-rank percentiles.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Nearest-rank percentile, `p` in `[0, 1]`; 0 for an empty set.
    pub fn pct(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// The samples in the order they were taken.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn median(&self) -> f64 {
        self.pct(0.5)
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// `{"n", "p50", "p99"}` with the sample count next to the figures.
    pub fn summary(&self) -> JsonValue {
        obj([
            ("n", num(self.len() as f64)),
            ("p50", num(self.median())),
            ("p99", num(self.pct(0.99))),
            ("max", num(self.max())),
        ])
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Samples {
        Samples(iter.into_iter().collect())
    }
}

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

pub fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

pub fn num(value: f64) -> JsonValue {
    JsonValue::Number(if value.is_finite() { value } else { 0.0 })
}

pub fn text(value: impl Into<String>) -> JsonValue {
    JsonValue::String(value.into())
}

pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Metrics in result order: name → (value, unit).
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.0
                .iter()
                .map(|(k, (v, unit))| (k.clone(), obj([("value", num(*v)), ("unit", text(*unit))])))
                .collect(),
        )
    }

    pub fn into_vec(self) -> Vec<(String, (f64, &'static str))> {
        self.0.into_iter().collect()
    }

    /// Keep only `names` (the metric set the result line must carry).
    pub fn select(&self, names: &[&str]) -> Metrics {
        let mut out = Metrics::default();
        for name in names {
            let (value, unit) = self.0.get(*name).unwrap_or_else(|| {
                panic!("metric `{name}` was not measured");
            });
            out.set(*name, *value, unit);
        }
        out
    }
}

// ---- /proc -----------------------------------------------------------

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// User + system CPU time of this process in milliseconds (clock ticks
/// of 10 ms, the Linux `USER_HZ`).
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 * 10.0
}

/// `(write_bytes, syscw)` from `/proc/self/io`.
pub fn io_counters() -> (u64, u64) {
    (
        proc_field("/proc/self/io", "write_bytes").unwrap_or(0),
        proc_field("/proc/self/io", "syscw").unwrap_or(0),
    )
}

/// Bytes of a data directory, by file kind.
pub fn dir_bytes(dir: &Path) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            let kind = if name.starts_with("wal-") {
                "wal"
            } else if name.starts_with("snapshot-") {
                "snapshot"
            } else if name.starts_with("state.pages") {
                "pages"
            } else {
                "other"
            };
            *out.entry(kind).or_insert(0) += len;
        }
    }
    out
}

/// Where the benchmark keeps its scratch data and span files: a
/// directory under the current (checkout) directory, never outside it.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).expect("create .bench_out");
    dir
}

/// A scratch directory removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        let dir = out_dir().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
