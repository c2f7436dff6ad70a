//! End-to-end and per-layer benchmark of the rental chain.
//!
//! ```text
//! cargo run --release --manifest-path rentbench/Cargo.toml -- \
//!     --workload rent_roll --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `rent_roll`, `tenant_portal`, `lease_amendments` (see
//! `README.md` next to this package). `--trace 0` measures the
//! end-to-end metrics; `--trace 1` is the separate traced run that gives
//! the per-layer numbers. `--quick` shrinks every size for smoke tests.
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the run record (metadata, every measured figure, check notes), which
//! is also written to `.bench_out/`.

mod client;
mod lease_amendments;
mod probes;
mod rent_roll;
mod replay;
mod tenant_portal;
mod trace;
mod util;
mod world;

use lsc_abi::json::JsonValue;
use util::{num, obj, text, Metrics};

/// The end-to-end metrics every workload reports with `--trace 0`. The
/// p99 figures are in the run record but not here: on a shared 2-core
/// host they spread more from run to run than any bound could allow.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "commit_p50_ms",
    "commit_tput_tx_s",
    "op_p50_ms",
    "peak_rss_mb",
];

/// The per-layer metrics every workload reports with `--trace 1`.
pub const PER_LAYER: &[&str] = &[
    "rpc.floor_us",
    "abi.json_parse_us",
    "abi.json_encode_us",
    "abi.codec_us",
    "wire.tx_decode_us",
    "wire.receipt_encode_us",
    "wire.logs_encode_us",
    "wire.proof_encode_us",
    "chain.submit_us",
    "chain.mine_us_per_tx",
    "chain.instant_transfer_us.start",
    "chain.instant_transfer_us.end",
    "chain.block_cost_growth",
    "wal.append_us",
    "wal.append_batch_us",
    "evm.execute_us.payRent",
    "evm.execute_us.rent",
    "evm.gas_per_s",
    "evm.memo_hits",
    "evm.memo_misses",
    "trie.prove_us",
    "trie.verify_us",
    "mvcc.snapshot_ns",
    "mvcc.logs_us",
    "mvcc.receipt_us",
    "core.deploy_ms",
    "core.deploy_version_ms",
    "core.verify_chain_us",
    "core.summary_us",
    "analyzer.vet_ms",
    "analyzer.upgrade_check_us",
    "proc.cpu_ms_per_op",
    "trace.overhead_pct",
];

/// What one workload run produced.
pub struct Outcome {
    /// Operations attempted and failed (sheds, reverted receipts and
    /// failed output checks count as failures).
    pub attempted: u64,
    pub failed: u64,
    /// False when an open-loop run fell behind its schedule or its
    /// backlog grew: its latencies are then not valid measurements.
    pub valid: bool,
    /// One line per failed check or validity problem.
    pub notes: Vec<String>,
    /// Every figure measured, end-to-end and per-layer alike.
    pub metrics: Metrics,
    /// Workload-specific detail for the run record.
    pub detail: Vec<(&'static str, JsonValue)>,
    pub size: Option<world::Size>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The checkout's git revision when it is a git checkout.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| "unknown".into(), |r| r.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Keccak over the repository's crate sources (paths and contents), so
/// a record identifies the code it measured even outside a git checkout.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "sol" || e == "toml")
            {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut hasher = lsc_primitives::Keccak256::new();
    for file in &files {
        hasher.update(file.to_string_lossy().as_bytes());
        hasher.update(&std::fs::read(file).unwrap_or_default());
    }
    lsc_primitives::hex::encode(&hasher.finalize()[..8])
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rentbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "rent_roll" => rent_roll::run(args.seed, args.seconds, args.quick, args.trace),
        "tenant_portal" => tenant_portal::run(args.seed, args.seconds, args.quick, args.trace),
        "lease_amendments" => {
            lease_amendments::run(args.seed, args.seconds, args.quick, args.trace)
        }
        other => {
            eprintln!("rentbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let correct = outcome.notes.is_empty() && outcome.valid;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut meta = vec![
        ("workload", text(args.workload.as_str())),
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
        ("quick", JsonValue::Bool(args.quick)),
        ("nproc", num(nproc as f64)),
        ("git_revision", text(git_revision())),
        ("source_digest", text(source_digest())),
        (
            "build_profile",
            text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "flush_policy",
            text("fsync per WAL append; one fsync per submitted batch (group commit)"),
        ),
        ("valid", JsonValue::Bool(outcome.valid)),
        ("correct", JsonValue::Bool(correct)),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        (
            "notes",
            JsonValue::Array(outcome.notes.iter().map(|n| text(n.as_str())).collect()),
        ),
        ("all_metrics", outcome.metrics.to_json()),
    ];
    if let Some(size) = outcome.size {
        meta.push((
            "sizes",
            obj([
                ("accounts", num(size.accounts as f64)),
                ("landlords", num(size.landlords as f64)),
                ("leases", num(size.leases() as f64)),
                ("history_receipts", num(size.history_receipts as f64)),
            ]),
        ));
    }
    meta.extend(outcome.detail);
    let record = obj([("record", obj(meta))]).to_json();
    let file = util::out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&file, &record) {
        eprintln!("rentbench: could not write {}: {e}", file.display());
    }
    println!("{record}");
    let result = obj([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        ("metrics", outcome.metrics.select(names).to_json()),
    ]);
    println!("{}", result.to_json());
}
