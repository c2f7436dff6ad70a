//! Authenticated state report: restart latency at several history
//! depths — full WAL replay against a restart from a compacted snapshot
//! (import the image, bulk-build the trie, replay the log tail), with
//! the trie build timed on its own — plus the write-path cost of
//! durability. Writes the series to `BENCH_state.json` and prints the
//! table EXPERIMENTS.md records.
//!
//! Run with: `cargo run --release -p lsc-bench --bin state_report`
//! (`--quick` shrinks history depths for CI smoke runs).

use lsc_chain::wal::Faults;
use lsc_chain::{ChainConfig, LocalNode, MemNodes, StateTrie, Transaction, WorldState};
use lsc_primitives::{Address, U256};
use std::path::PathBuf;
use std::time::Instant;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lsc-state-report-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

/// Mine `blocks` single-transfer blocks (instant mining: one send = one
/// sealed block), rotating senders so no nonce bottlenecks.
fn grow(node: &mut LocalNode, blocks: usize) {
    let accounts: Vec<Address> = node.accounts().to_vec();
    for i in 0..blocks {
        let from = accounts[i % accounts.len()];
        let to = accounts[(i + 1) % accounts.len()];
        node.send_transaction(
            Transaction::call(from, to, vec![])
                .with_value(U256::from_u64(1))
                .with_gas(21_000),
        )
        .expect("transfer");
    }
}

/// Deploy a storage-churn contract: each call loads a seed word from
/// calldata and SSTOREs it into 40 fixed slots — the write profile of a
/// busy application block (rent runs, pointer updates), compressed into
/// one transaction.
fn deploy_writer(node: &mut LocalNode) -> Address {
    use lsc_evm::asm::Asm;
    use lsc_evm::opcode::op;
    let mut runtime = Asm::new();
    runtime.push_u64(0).op(op::CALLDATALOAD);
    for slot in 0..40u64 {
        runtime.op(op::DUP1).push_u64(slot).op(op::SSTORE);
    }
    runtime.op(op::STOP);
    let runtime = runtime.assemble().expect("straight-line asm");
    let mut init = Asm::new();
    for (i, byte) in runtime.iter().enumerate() {
        init.push_u64(u64::from(*byte))
            .push_u64(i as u64)
            .op(op::MSTORE8);
    }
    init.push_u64(runtime.len() as u64)
        .push_u64(0)
        .op(op::RETURN);
    let sender = node.accounts()[0];
    node.send_transaction(Transaction::deploy(
        sender,
        init.assemble().expect("straight-line asm"),
    ))
    .expect("deploy writer")
    .contract_address
    .expect("create address")
}

/// Mine `blocks` blocks each carrying one storage-churn call: replay
/// must re-execute every SSTORE and re-hash every trie update; a
/// snapshot restart does neither.
fn grow_heavy(node: &mut LocalNode, writer: Address, blocks: usize) {
    let accounts: Vec<Address> = node.accounts().to_vec();
    for i in 0..blocks {
        let from = accounts[i % accounts.len()];
        let seed = U256::from_u64(i as u64 + 1);
        node.send_transaction(
            Transaction::call(from, writer, seed.to_be_bytes().to_vec()).with_gas(2_000_000),
        )
        .expect("churn call");
    }
}

struct RestartPoint {
    depth: usize,
    replay_ns: u128,
    snapshot_ns: u128,
    trie_build_ns: u128,
}

/// One restart experiment at a given history depth: build the chain,
/// time a full-log-replay recovery (no compaction), then compact and
/// time the snapshot restart of the *same* chain. The trie build inside
/// that restart is timed separately, over the recovered accounts.
fn restart_at(depth: usize) -> RestartPoint {
    let dir = temp_dir(&format!("restart-{depth}"));
    let mut node = LocalNode::open(&dir, ChainConfig::default(), 6, Faults::none())
        .expect("open durable node");
    let writer = deploy_writer(&mut node);
    grow_heavy(&mut node, writer, depth);
    let want_blocks = node.block_number();
    let want_root = node.state_root();
    drop(node);

    // Before: nothing compacted, recovery replays every logged block.
    let start = Instant::now();
    let mut replayed = LocalNode::recover(&dir, Faults::none()).expect("replay recovery");
    let replay_ns = start.elapsed().as_nanos();
    assert_eq!(replayed.block_number(), want_blocks);
    assert_eq!(replayed.state_root(), want_root);

    // After: compact at the tip, so the next restart imports the
    // snapshot and bulk-builds the trie instead of replaying.
    replayed.compact().expect("compact");
    drop(replayed);
    let start = Instant::now();
    let mut restarted = LocalNode::recover(&dir, Faults::none()).expect("snapshot recovery");
    let snapshot_ns = start.elapsed().as_nanos();
    assert_eq!(restarted.block_number(), want_blocks);
    assert_eq!(restarted.state_root(), want_root);

    let mut state = WorldState::new();
    for (address, account) in restarted.state_accounts() {
        state.restore_account(address, account);
    }
    state.commit();
    let start = Instant::now();
    let trie = StateTrie::rebuild_from(&mut MemNodes::new(), &state);
    let trie_build_ns = start.elapsed().as_nanos();
    assert_eq!(trie.root(), want_root);
    drop(restarted);

    let _ = std::fs::remove_dir_all(&dir);
    RestartPoint {
        depth,
        replay_ns,
        snapshot_ns,
        trie_build_ns,
    }
}

struct Throughput {
    txs: usize,
    memory_ns: u128,
    durable_ns: u128,
}

/// Sustained transfer throughput, in-memory vs durable (write-ahead log).
fn throughput(txs: usize) -> Throughput {
    let mut node = LocalNode::new(6);
    let start = Instant::now();
    grow(&mut node, txs);
    let memory_ns = start.elapsed().as_nanos();
    drop(node);

    let dir = temp_dir("throughput");
    let mut node = LocalNode::open(&dir, ChainConfig::default(), 6, Faults::none()).expect("open");
    let start = Instant::now();
    grow(&mut node, txs);
    let durable_ns = start.elapsed().as_nanos();
    drop(node);
    let _ = std::fs::remove_dir_all(&dir);
    Throughput {
        txs,
        memory_ns,
        durable_ns,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let depths: &[usize] = if quick {
        &[100, 300, 900]
    } else {
        &[1_000, 4_000, 10_000]
    };
    let tx_count = if quick { 300 } else { 3_000 };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    // ---- restart latency vs history depth ---------------------------
    let restarts: Vec<RestartPoint> = depths.iter().map(|&d| restart_at(d)).collect();
    println!("\n=== restart latency vs history depth (nproc {nproc}) ===");
    println!(
        "{:>8} | {:>12} | {:>14} | {:>14} | {:>8}",
        "blocks", "replay (ms)", "snapshot (ms)", "trie build (ms)", "speedup"
    );
    println!("{}", "-".repeat(70));
    for p in &restarts {
        println!(
            "{:>8} | {:>12.2} | {:>14.2} | {:>14.3} | {:>7.1}x",
            p.depth,
            p.replay_ns as f64 / 1e6,
            p.snapshot_ns as f64 / 1e6,
            p.trie_build_ns as f64 / 1e6,
            p.replay_ns as f64 / p.snapshot_ns.max(1) as f64
        );
    }

    // ---- sustained throughput ---------------------------------------
    let tp = throughput(tx_count);
    let mem_tps = tp.txs as f64 / (tp.memory_ns as f64 / 1e9);
    let dur_tps = tp.txs as f64 / (tp.durable_ns as f64 / 1e9);
    println!("\n=== sustained single-transfer blocks ===");
    println!("in-memory: {mem_tps:>10.0} tx/s");
    println!(
        "durable:   {dur_tps:>10.0} tx/s ({:.2}x the in-memory cost)",
        tp.durable_ns as f64 / tp.memory_ns.max(1) as f64
    );

    // ---- BENCH_state.json -------------------------------------------
    let mut json = String::from("{\n  \"bench\": \"state_store\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"nproc\": {nproc},\n"));
    json.push_str("  \"restart\": [\n");
    for (i, p) in restarts.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"blocks\": {}, \"replay_ns\": {}, \"snapshot_ns\": {}, \"trie_build_ns\": {}, \"speedup\": {:.3}}}{}\n",
            p.depth,
            p.replay_ns,
            p.snapshot_ns,
            p.trie_build_ns,
            p.replay_ns as f64 / p.snapshot_ns.max(1) as f64,
            if i + 1 < restarts.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"throughput\": {{\"txs\": {}, \"memory_ns\": {}, \"durable_ns\": {}, \"memory_tps\": {:.0}, \"durable_tps\": {:.0}}}\n",
        tp.txs, tp.memory_ns, tp.durable_ns, mem_tps, dur_tps
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_state.json", &json).expect("write BENCH_state.json");
    println!("\nwrote BENCH_state.json");
}
