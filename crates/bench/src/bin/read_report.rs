//! MVCC read-path A/B report: times the same read workloads "before"
//! (every read acquires the node mutex — the pre-MVCC `Web3` shape) and
//! "after" (lock-free [`ReadHandle`] snapshot reads and the posting-list
//! `eth_getLogs` index), then writes the series to `BENCH_read.json`
//! and prints the table EXPERIMENTS.md records.
//!
//! Run with: `cargo run --release -p lsc-bench --bin read_report`
//! (`--quick` shrinks the iteration counts for CI smoke runs).

use lsc_bench::log_heavy_node;
use lsc_chain::{LocalNode, ReadHandle, Transaction};
use lsc_primitives::{Address, U256};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Series {
    name: &'static str,
    detail: &'static str,
    before_ns: u128,
    after_ns: u128,
}

/// Median wall-clock of `runs` executions of `work`.
fn measure<T>(runs: usize, mut work: impl FnMut() -> T) -> u128 {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        black_box(work());
        samples.push(start.elapsed().as_nanos());
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One mixed read battery via the handle: ONE snapshot, then plain
/// reads against it — the recommended consistent-prefix usage.
fn battery_handle(handle: &ReadHandle, accounts: &[Address], emitter: Address) -> u64 {
    let snap = handle.snapshot();
    let mut acc = 0u64;
    for &account in accounts {
        acc ^= u64::from(snap.balance(account).to_be_bytes()[31]);
        acc ^= snap.nonce(account);
    }
    acc ^= u64::from(snap.storage_at(emitter, U256::from_u64(1)).to_be_bytes()[31]);
    let tip = snap.block_number();
    if let Some(block) = snap.block(tip) {
        acc ^= block.tx_hashes.len() as u64;
    }
    acc
}

/// The same battery with every read locking the node.
fn battery_mutex(node: &Arc<Mutex<LocalNode>>, accounts: &[Address], emitter: Address) -> u64 {
    let mut acc = 0u64;
    for &account in accounts {
        acc ^= u64::from(node.lock().unwrap().balance(account).to_be_bytes()[31]);
        acc ^= node.lock().unwrap().nonce(account);
    }
    acc ^= u64::from(
        node.lock()
            .unwrap()
            .storage_at(emitter, U256::from_u64(1))
            .to_be_bytes()[31],
    );
    let guard = node.lock().unwrap();
    let tip = guard.block_number();
    if let Some(block) = guard.block(tip) {
        acc ^= block.tx_hashes.len() as u64;
    }
    acc
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let runs = if quick { 3 } else { 9 };
    let (blocks, txs_per_block) = if quick { (12, 16) } else { (40, 16) };
    let batch = if quick { 200 } else { 2_000 };
    let per_thread = if quick { 50 } else { 500 };
    let mut series = Vec::new();

    let (node, emitters) = log_heavy_node(blocks, txs_per_block);
    let accounts: Vec<Address> = node.accounts().to_vec();
    let emitter = emitters[0];
    let handle = node.read_handle();
    let shared = Arc::new(Mutex::new(node));

    // 1. Single-reader latency: `batch` sequential read batteries.
    let before = measure(runs, || {
        (0..batch).fold(0u64, |acc, _| {
            acc ^ battery_mutex(&shared, &accounts, emitter)
        })
    });
    let after = measure(runs, || {
        (0..batch).fold(0u64, |acc, _| {
            acc ^ battery_handle(&handle, &accounts, emitter)
        })
    });
    series.push(Series {
        name: "single_reader_battery",
        detail: "sequential mixed-read batteries, mutex vs snapshot handle",
        before_ns: before,
        after_ns: after,
    });

    // 2. 8-reader throughput: the mutex serialises; snapshots don't.
    let spawn_handle = |handle: &ReadHandle, accounts: &[Address]| {
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let handle = handle.clone();
                let accounts = accounts.to_vec();
                std::thread::spawn(move || {
                    (0..per_thread).fold(0u64, |acc, _| {
                        acc ^ battery_handle(&handle, &accounts, emitter)
                    })
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .fold(0u64, |a, b| a ^ b)
    };
    let spawn_mutex = |shared: &Arc<Mutex<LocalNode>>, accounts: &[Address]| {
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let shared = Arc::clone(shared);
                let accounts = accounts.to_vec();
                std::thread::spawn(move || {
                    (0..per_thread).fold(0u64, |acc, _| {
                        acc ^ battery_mutex(&shared, &accounts, emitter)
                    })
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .fold(0u64, |a, b| a ^ b)
    };
    let before = measure(runs, || spawn_mutex(&shared, &accounts));
    let after = measure(runs, || spawn_handle(&handle, &accounts));
    series.push(Series {
        name: "throughput_8_readers",
        detail: "8 concurrent readers, mutex-serialised vs lock-free snapshots",
        before_ns: before,
        after_ns: after,
    });

    // 3. eth_getLogs, selective filter: the pre-MVCC shape (lock the
    // node, walk blocks -> receipts -> logs) vs the snapshot's
    // posting-list index.
    let snapshot = handle.snapshot();
    let tip = snapshot.block_number();
    let sweeps = runs * 20;
    let before = measure(runs, || {
        (0..sweeps).fold(0usize, |acc, _| {
            acc + shared
                .lock()
                .unwrap()
                .logs(0, tip, Some(emitter), None)
                .len()
        })
    });
    let after = measure(runs, || {
        (0..sweeps).fold(0usize, |acc, _| {
            acc + snapshot.logs(0, tip, Some(emitter), None).len()
        })
    });
    series.push(Series {
        name: "getlogs_one_address",
        detail: "eth_getLogs filtered to 1 of 4 emitters: receipt walk vs index",
        before_ns: before,
        after_ns: after,
    });

    // 4. Read-only eth_call: locked node vs snapshot handle. (Same
    // interpreter either way — this isolates the locking overhead and
    // proves the snapshot path carries real EVM execution.)
    let calldata = U256::from_u64(5).to_be_bytes().to_vec();
    let from = accounts[0];
    let before = measure(runs, || {
        (0..batch / 10).fold(0u64, |acc, _| {
            let result = shared.lock().unwrap().call(from, emitter, calldata.clone());
            acc ^ result.gas_left
        })
    });
    let after = measure(runs, || {
        (0..batch / 10).fold(0u64, |acc, _| {
            acc ^ handle.call(from, emitter, calldata.clone()).gas_left
        })
    });
    series.push(Series {
        name: "readonly_eth_call",
        detail: "eth_call against the emitter: locked node vs snapshot",
        before_ns: before,
        after_ns: after,
    });

    // The handle still observes the chain the workload built — and the
    // writer can keep mutating after the report without invalidating it.
    {
        let mut guard = shared.lock().unwrap();
        let [a, b] = [accounts[0], accounts[1]];
        guard
            .send_transaction(
                Transaction::call(a, b, vec![])
                    .with_value(U256::from_u64(1))
                    .with_gas(21_000),
            )
            .expect("post-report tx");
        assert_eq!(handle.block_number(), guard.block_number());
    }

    // ---- table ------------------------------------------------------
    println!("\n=== MVCC read path: before/after (median of {runs} runs) ===");
    println!(
        "{:<24} | {:>12} | {:>12} | {:>8}",
        "series", "before (ms)", "after (ms)", "speedup"
    );
    println!("{}", "-".repeat(66));
    for s in &series {
        println!(
            "{:<24} | {:>12.3} | {:>12.3} | {:>7.2}x",
            s.name,
            s.before_ns as f64 / 1_000_000.0,
            s.after_ns as f64 / 1_000_000.0,
            s.before_ns as f64 / s.after_ns.max(1) as f64
        );
    }

    // ---- BENCH_read.json --------------------------------------------
    let mut json = String::from("{\n  \"bench\": \"read_path\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n  \"runs\": {runs},\n"));
    json.push_str("  \"series\": [\n");
    for (i, s) in series.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"detail\": \"{}\", \"before_ns\": {}, \"after_ns\": {}, \"speedup\": {:.3}}}{}\n",
            s.name,
            s.detail,
            s.before_ns,
            s.after_ns,
            s.before_ns as f64 / s.after_ns.max(1) as f64,
            if i + 1 < series.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_read.json", &json).expect("write BENCH_read.json");
    println!("\nwrote BENCH_read.json");
}
