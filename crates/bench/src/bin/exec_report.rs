//! Execution report: times the interpreter-bound workloads (a rental
//! lifecycle, an 8-version chain, a mined block of 64 rent payments and
//! a hot counting loop) plus one durability comparison (64 submitted
//! transactions with one fsync each vs one WAL group commit), then
//! writes the series to `BENCH_exec.json` and prints the table
//! EXPERIMENTS.md records.
//!
//! Run with: `cargo run --release -p lsc-bench --bin exec_report`
//! (`--quick` shrinks the iteration counts for CI smoke runs).
//!
//! These are wall-clock numbers, unlike `report`'s deterministic gas
//! series.

use lsc_bench::{loaded_rent_block, BenchWorld};
use lsc_chain::wal::Faults;
use lsc_chain::{ChainConfig, LocalNode, Transaction};
use lsc_primitives::U256;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

struct Series {
    name: &'static str,
    detail: &'static str,
    median_ns: u128,
}

/// Median wall-clock of `runs` executions of `work` (fresh input each).
fn measure<T, I>(runs: usize, mut setup: impl FnMut() -> I, mut work: impl FnMut(I) -> T) -> u128 {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let input = setup();
        let start = Instant::now();
        black_box(work(input));
        samples.push(start.elapsed().as_nanos());
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn ms(ns: u128) -> f64 {
    ns as f64 / 1_000_000.0
}

/// A node with a deployed contract whose runtime counts to 20k (~9 ops
/// per iteration, ~580k gas per call), warmed by one call.
fn hot_loop_node() -> (LocalNode, lsc_primitives::Address, lsc_primitives::Address) {
    // PUSH1 0; JUMPDEST; PUSH1 1; ADD; DUP1; PUSH3 20_000; GT;
    // PUSH1 2; JUMPI; STOP
    let runtime: Vec<u8> = vec![
        0x60, 0x00, 0x5b, 0x60, 0x01, 0x01, 0x80, 0x62, 0x00, 0x4e, 0x20, 0x11, 0x60, 0x02, 0x57,
        0x00,
    ];
    let mut init = vec![
        0x61,
        (runtime.len() >> 8) as u8,
        runtime.len() as u8, // PUSH2 len
        0x80,                // DUP1
        0x60,
        0x0c, // PUSH1 12 (runtime offset)
        0x60,
        0x00, // PUSH1 0
        0x39, // CODECOPY
        0x60,
        0x00, // PUSH1 0
        0xf3, // RETURN
    ];
    init.extend_from_slice(&runtime);
    let mut node = LocalNode::new(2);
    let from = node.accounts()[0];
    let contract = node
        .send_transaction(Transaction::deploy(from, init))
        .expect("hot deploy")
        .contract_address
        .expect("hot address");
    // Warm the per-account analysis outside the timed region.
    assert!(node.call(from, contract, vec![]).success);
    (node, from, contract)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let runs = if quick { 3 } else { 9 };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut series = Vec::new();

    // 1. Repeated-call lifecycle: confirm + 12 rents + terminate on one
    // agreement — the same bytecode interpreted over and over.
    series.push(Series {
        name: "lifecycle_12_months",
        detail: "deploy + confirm + 12 rent payments + terminate",
        median_ns: measure(runs, BenchWorld::new, |world| world.run_lifecycle(12)),
    });

    // 2. Build an 8-version chain (Fig. 2): CREATE-heavy, each deploy
    // re-reads the predecessor.
    series.push(Series {
        name: "version_chain_8",
        detail: "8 linked contract versions deployed",
        median_ns: measure(runs, BenchWorld::new, |world| world.deploy_chain(8)),
    });

    // 3. One mined block of 64 contract calls (8 agreements x 8 rent
    // payments), through the parallel mining engine.
    series.push(Series {
        name: "mined_block_64_tx",
        detail: "64 queued rent payments sealed in one block",
        median_ns: measure(runs, loaded_rent_block, |web3| web3.mine_block()),
    });

    // 4. Interpreter-bound hot calls over the read-only call path. Rental
    // transactions are short and state-dominated; this series isolates
    // the opcode dispatch loop itself.
    series.push(Series {
        name: "hot_calls_4",
        detail: "4 calls of a 20k-iteration loop",
        median_ns: measure(runs, hot_loop_node, |(node, from, contract)| {
            for _ in 0..4 {
                assert!(node.call(from, contract, vec![]).success);
            }
        }),
    });

    // 5. Durable submission of 64 transactions: one fsync per tx vs one
    // group-committed batch.
    let dir: PathBuf = std::env::temp_dir().join(format!("lsc-exec-report-{}", std::process::id()));
    let fresh = || -> (LocalNode, Vec<Transaction>) {
        let _ = std::fs::remove_dir_all(&dir);
        let node =
            LocalNode::open(&dir, ChainConfig::default(), 8, Faults::none()).expect("durable node");
        let accounts = node.accounts().to_vec();
        let txs = (0..64)
            .map(|i| {
                Transaction::call(accounts[i % 8], accounts[(i + 1) % 8], vec![])
                    .with_value(U256::from_u64(1))
                    .with_gas(21_000)
            })
            .collect();
        (node, txs)
    };
    let per_tx_fsync = measure(runs, fresh, |(mut node, txs)| {
        for tx in txs {
            node.submit_transaction(tx);
        }
        node.pending_count()
    });
    let group_commit = measure(runs, fresh, |(mut node, txs)| {
        node.submit_transactions(txs);
        node.pending_count()
    });
    let _ = std::fs::remove_dir_all(&dir);
    let submit_speedup = per_tx_fsync as f64 / group_commit.max(1) as f64;

    // ---- table ------------------------------------------------------
    println!("\n=== Execution (median of {runs} runs, nproc {nproc}) ===");
    println!("{:<22} | {:>12}", "series", "median (ms)");
    println!("{}", "-".repeat(37));
    for s in &series {
        println!("{:<22} | {:>12.3}", s.name, ms(s.median_ns));
    }
    println!(
        "durable_submit_64      | {:>12.3} per-tx fsync | {:.3} group commit | {submit_speedup:.2}x",
        ms(per_tx_fsync),
        ms(group_commit)
    );

    // ---- BENCH_exec.json --------------------------------------------
    let mut json = String::from("{\n  \"bench\": \"exec\",\n");
    json.push_str(&format!(
        "  \"quick\": {quick},\n  \"runs\": {runs},\n  \"nproc\": {nproc},\n"
    ));
    json.push_str("  \"series\": [\n");
    for (i, s) in series.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"detail\": \"{}\", \"median_ns\": {}}}{}\n",
            s.name,
            s.detail,
            s.median_ns,
            if i + 1 < series.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"durable_submit_64\": {{\"detail\": \"64 tx durably queued: 64 fsyncs vs 1 group commit\", \"per_tx_fsync_ns\": {per_tx_fsync}, \"group_commit_ns\": {group_commit}, \"speedup\": {submit_speedup:.3}}}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_exec.json", &json).expect("write BENCH_exec.json");
    println!("\nwrote BENCH_exec.json");
}
