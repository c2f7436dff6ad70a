//! MVCC read-path differential tests: everything a [`ReadHandle`] serves
//! must be bit-identical to what the locked node would return at the same
//! committed prefix — across all three mining modes, WAL recovery,
//! snapshot/revert, and failing calls.

use lsc_chain::wal::Faults;
use lsc_chain::{ChainConfig, LocalNode, LogFilter, ReadHandle, Transaction};
use lsc_evm::asm::Asm;
use lsc_evm::opcode::op;
use lsc_evm::CallResult;
use lsc_primitives::{ether, Address, H256, U256};
use proptest::prelude::*;
use std::path::PathBuf;

/// Build init code that deploys the given runtime bytecode.
fn init_code_for(runtime: &[u8]) -> Vec<u8> {
    let mut init = Asm::new();
    for (i, byte) in runtime.iter().enumerate() {
        init.push_u64(u64::from(*byte))
            .push_u64(i as u64)
            .op(op::MSTORE8);
    }
    init.push_u64(runtime.len() as u64)
        .push_u64(0)
        .op(op::RETURN);
    init.assemble().unwrap()
}

/// Runtime that stores CALLDATALOAD(0) at slot 1, emits
/// `LOG1(calldata[0..32], topic)` and then `LOG0(calldata[0..8])`.
fn emitter_runtime(topic: u64) -> Vec<u8> {
    let mut runtime = Asm::new();
    // mem[0..32] = calldata word; slot 1 = same word.
    runtime.push_u64(0).op(op::CALLDATALOAD);
    runtime.op(op::DUP1).push_u64(0).op(op::MSTORE);
    runtime.push_u64(1).op(op::SSTORE);
    // LOG1(offset=0, len=32, topic): pops offset, len, topic.
    runtime
        .push_u64(topic)
        .push_u64(32)
        .push_u64(0)
        .op(op::LOG0 + 1);
    // LOG0(offset=0, len=8).
    runtime.push_u64(8).push_u64(0).op(op::LOG0);
    runtime.op(op::STOP);
    runtime.assemble().unwrap()
}

/// Runtime emitting `LOG2(calldata[0..32], topic, calldata[0..32])` —
/// the calldata word doubles as topic **1**, exercising positional
/// filters beyond topic 0.
fn emitter2_runtime(topic: u64) -> Vec<u8> {
    let mut runtime = Asm::new();
    runtime.push_u64(0).op(op::CALLDATALOAD);
    runtime.op(op::DUP1).push_u64(0).op(op::MSTORE);
    // Stack: [word]. LOG2 pops offset, len, topic1, topic2 — the word
    // already on the stack becomes topic2.
    runtime
        .push_u64(topic)
        .push_u64(32)
        .push_u64(0)
        .op(op::LOG0 + 2);
    runtime.op(op::STOP);
    runtime.assemble().unwrap()
}

/// Runtime returning SLOAD(1) — reads the emitter's stored word.
fn getter_runtime() -> Vec<u8> {
    let mut runtime = Asm::new();
    runtime.push_u64(1).op(op::SLOAD).push_u64(0).op(op::MSTORE);
    runtime.push_u64(32).push_u64(0).op(op::RETURN);
    runtime.assemble().unwrap()
}

/// Runtime that always REVERTs with 4 bytes of output.
fn reverter_runtime() -> Vec<u8> {
    let mut runtime = Asm::new();
    runtime.push_u64(0xdead_beef).push_u64(0).op(op::MSTORE);
    runtime.push_u64(4).push_u64(28).op(op::REVERT);
    runtime.assemble().unwrap()
}

fn word(n: u64) -> Vec<u8> {
    U256::from_u64(n).to_be_bytes().to_vec()
}

fn assert_call_results_equal(a: &CallResult, b: &CallResult, what: &str) {
    assert_eq!(a.success, b.success, "{what}: success");
    assert_eq!(a.reverted, b.reverted, "{what}: reverted");
    assert_eq!(a.halt, b.halt, "{what}: halt");
    assert_eq!(a.output, b.output, "{what}: output");
    assert_eq!(a.gas_left, b.gas_left, "{what}: gas_left");
    assert_eq!(a.gas_refund, b.gas_refund, "{what}: gas_refund");
    assert_eq!(a.created, b.created, "{what}: created");
}

/// Compare every read the handle serves against the locked node: the
/// publication invariant says they agree exactly once the node's public
/// entry points have returned.
fn assert_handle_matches_node(node: &LocalNode, handle: &ReadHandle, interesting: &[Address]) {
    let snap = handle.snapshot();
    assert_eq!(snap.block_number(), node.block_number(), "block number");
    assert_eq!(snap.timestamp(), node.timestamp(), "timestamp");
    assert_eq!(snap.pending_count(), node.pending_count(), "pending");
    assert_eq!(snap.accounts().as_slice(), node.accounts(), "dev accounts");

    for &address in interesting {
        assert_eq!(snap.balance(address), node.balance(address), "balance");
        assert_eq!(snap.nonce(address), node.nonce(address), "nonce");
        assert_eq!(
            snap.code(address).as_slice(),
            node.code(address).as_slice(),
            "code"
        );
        for key in 0..4u64 {
            assert_eq!(
                snap.storage_at(address, U256::from_u64(key)),
                node.storage_at(address, U256::from_u64(key)),
                "storage slot {key}"
            );
        }
    }

    for number in 0..=node.block_number() {
        let theirs = node.block(number).expect("node block");
        let ours = snap.block(number).expect("snapshot block");
        assert_eq!(ours.hash, theirs.hash, "block {number} hash");
        assert_eq!(ours.parent_hash, theirs.parent_hash);
        assert_eq!(ours.tx_hashes, theirs.tx_hashes);
        assert_eq!(ours.timestamp, theirs.timestamp);
        assert_eq!(ours.gas_used, theirs.gas_used);
        for tx_hash in &theirs.tx_hashes {
            let want = node.receipt(*tx_hash).expect("node receipt");
            let got = snap.receipt(*tx_hash).expect("snapshot receipt");
            assert_eq!(got.status, want.status, "receipt status");
            assert_eq!(got.gas_used, want.gas_used);
            assert_eq!(got.logs, want.logs, "receipt logs");
            assert_eq!(got.block_number, want.block_number);
            assert_eq!(got.tx_index, want.tx_index);
        }
    }
    // A block past the tip is absent from both.
    assert!(snap.block(node.block_number() + 1).is_none());
    assert!(node.block(node.block_number() + 1).is_none());
}

/// The shared workload: faucet, transfers, deployments, log emission,
/// clock warps — mined by the supplied strategy.
fn run_workload(node: &mut LocalNode, mine: impl Fn(&mut LocalNode)) -> Vec<Address> {
    let [a, b] = [node.accounts()[0], node.accounts()[1]];
    node.faucet(Address::from_label("grant"), U256::from_u64(1234));

    let emitter = node
        .send_transaction(Transaction::deploy(a, init_code_for(&emitter_runtime(77))))
        .unwrap()
        .contract_address
        .unwrap();
    node.increase_time(3600);

    node.submit_transaction(Transaction::call(a, emitter, word(5)).with_gas(200_000));
    node.submit_transaction(Transaction::call(b, emitter, word(6)).with_gas(200_000));
    node.submit_transaction(
        Transaction::call(a, b, vec![])
            .with_value(ether(2))
            .with_gas(21_000),
    );
    mine(node);

    node.send_transaction(Transaction::call(b, emitter, word(9)).with_gas(200_000))
        .unwrap();
    node.set_timestamp(node.timestamp() + 55);
    // Leave one transaction pending: the handle must see the same count.
    node.submit_transaction(Transaction::call(a, b, vec![]).with_value(U256::from_u64(3)));

    vec![
        a,
        b,
        emitter,
        Address::from_label("grant"),
        node.config().coinbase,
    ]
}

/// How a workload's queued transactions get mined.
type MineFn = fn(&mut LocalNode);

#[test]
fn handle_matches_locked_node_in_all_mining_modes() {
    let modes: [(&str, MineFn); 3] = [
        ("instant", |node| {
            let (_, errors) = node.mine_block();
            assert!(errors.is_empty());
        }),
        ("parallel", |node| {
            let (_, errors) = node.mine_block();
            assert!(errors.is_empty());
        }),
        ("sequential", |node| {
            let (_, errors) = node.mine_block_sequential();
            assert!(errors.is_empty());
        }),
    ];
    for (name, mine) in modes {
        let config = ChainConfig {
            // Force the parallel executor even on a single-core box.
            mining_workers: if name == "parallel" { Some(4) } else { Some(1) },
            ..ChainConfig::default()
        };
        let mut node = LocalNode::with_config(config, 3);
        let handle = node.read_handle();
        let interesting = run_workload(&mut node, mine);
        assert_handle_matches_node(&node, &handle, &interesting);

        // Logs: the handle's indexed query, its reference scan, and the
        // node's own scan all agree for every filter combination.
        let snap = handle.snapshot();
        let emitter = interesting[2];
        let tip = node.block_number();
        for address in [None, Some(emitter), Some(Address::from_label("nobody"))] {
            for topic0 in [None, Some(H256::from_u256(U256::from_u64(77)))] {
                let indexed = snap.logs(0, tip, address, topic0);
                let scanned = snap.logs_scan(0, tip, address, topic0);
                let node_scan = node.logs(0, tip, address, topic0);
                assert_eq!(indexed, scanned, "{name}: index vs snapshot scan");
                assert_eq!(indexed, node_scan, "{name}: index vs node scan");
            }
        }
        // The unfiltered sweep actually saw the emitted logs.
        assert!(
            !snap.logs(0, tip, Some(emitter), None).is_empty(),
            "{name}: emitter logs present"
        );
    }
}

#[test]
fn node_call_is_bit_identical_to_handle_call() {
    let mut node = LocalNode::new(2);
    let handle = node.read_handle();
    let [a, _] = [node.accounts()[0], node.accounts()[1]];
    let emitter = node
        .send_transaction(Transaction::deploy(a, init_code_for(&emitter_runtime(42))))
        .unwrap()
        .contract_address
        .unwrap();
    node.send_transaction(Transaction::call(a, emitter, word(31)).with_gas(200_000))
        .unwrap();
    let getter = node
        .send_transaction(Transaction::deploy(a, init_code_for(&getter_runtime())))
        .unwrap()
        .contract_address
        .unwrap();

    // The getter reads the *emitter's own* slot, which is zero for the
    // getter contract — and a call against the emitter writes storage and
    // emits logs inside the overlay, all discarded.
    for (to, data) in [(getter, vec![]), (emitter, word(12))] {
        let direct = node.call(a, to, data.clone());
        let handled = handle.call(a, to, data.clone());
        assert_call_results_equal(&direct, &handled, "node vs handle");
    }

    let tx = Transaction::call(a, emitter, word(12)).with_gas(200_000);
    assert_eq!(
        node.estimate_gas(&tx).unwrap(),
        handle.estimate_gas(&tx).unwrap(),
        "estimate_gas"
    );

    // Tracing agrees step for step.
    let (node_result, node_steps) = node.debug_trace_call(a, getter, vec![]);
    let (handle_result, handle_steps) = handle.snapshot().debug_trace_call(a, getter, vec![]);
    assert_call_results_equal(&node_result, &handle_result, "trace result");
    assert_eq!(node_steps.len(), handle_steps.len(), "trace length");
}

#[test]
fn failing_call_leaves_no_journal_residue() {
    let mut node = LocalNode::new(2);
    let [a, b] = [node.accounts()[0], node.accounts()[1]];
    let reverter = node
        .send_transaction(Transaction::deploy(a, init_code_for(&reverter_runtime())))
        .unwrap()
        .contract_address
        .unwrap();

    assert_eq!(node.journal_depth(), 0, "journal empty before calls");
    let balance_before = node.balance(a);
    let nonce_before = node.nonce(a);

    let result = node.call(a, reverter, vec![]);
    assert!(result.reverted, "reverter reverts");
    assert_eq!(node.journal_depth(), 0, "failing call leaves no journal");

    // Estimating a transaction that reverts also leaves nothing behind.
    let _ = node.estimate_gas(&Transaction::call(a, reverter, vec![]).with_gas(100_000));
    assert_eq!(
        node.journal_depth(),
        0,
        "failing estimate leaves no journal"
    );

    let _ = node.call(a, b, vec![]);
    assert_eq!(node.journal_depth(), 0);
    assert_eq!(node.balance(a), balance_before, "call charges nothing");
    assert_eq!(node.nonce(a), nonce_before, "call bumps no nonce");

    // The published snapshot never saw any of it either.
    let snap = node.published_snapshot();
    assert_eq!(snap.balance(a), balance_before);
    assert_eq!(snap.nonce(a), nonce_before);
}

#[test]
fn handle_matches_node_after_wal_recovery() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("lsc-mvcc-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let interesting;
    {
        let mut node = LocalNode::open(&dir, ChainConfig::default(), 3, Faults::none()).unwrap();
        interesting = run_workload(&mut node, |n| {
            let (_, errors) = n.mine_block();
            assert!(errors.is_empty());
        });
        // Dropped here: simulated crash with a committed WAL.
    }

    let recovered = LocalNode::recover(&dir, Faults::none()).unwrap();
    let handle = recovered.read_handle();
    assert_handle_matches_node(&recovered, &handle, &interesting);

    // The recovered index answers log queries identically to the scan.
    let snap = handle.snapshot();
    let tip = recovered.block_number();
    for address in [None, Some(interesting[2])] {
        assert_eq!(
            snap.logs(0, tip, address, None),
            recovered.logs(0, tip, address, None),
            "recovered logs"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn handle_matches_node_after_revert() {
    let mut node = LocalNode::new(3);
    let handle = node.read_handle();
    let [a, b] = [node.accounts()[0], node.accounts()[1]];

    let emitter = node
        .send_transaction(Transaction::deploy(a, init_code_for(&emitter_runtime(7))))
        .unwrap()
        .contract_address
        .unwrap();
    let snap_id = node.snapshot();

    node.send_transaction(Transaction::call(a, emitter, word(1)).with_gas(200_000))
        .unwrap();
    node.send_transaction(
        Transaction::call(a, b, vec![])
            .with_value(ether(5))
            .with_gas(21_000),
    )
    .unwrap();
    assert_eq!(handle.block_number(), 3, "handle sees pre-revert tip");

    assert!(node.revert_to_snapshot(snap_id));
    let interesting = vec![a, b, emitter, node.config().coinbase];
    assert_handle_matches_node(&node, &handle, &interesting);
    assert_eq!(handle.block_number(), 1, "handle rewound with the chain");
    assert_eq!(
        handle.storage_at(emitter, U256::from_u64(1)),
        U256::ZERO,
        "reverted storage gone from the published snapshot"
    );

    // The chain keeps working — and keeps publishing — after a revert.
    node.send_transaction(Transaction::call(a, emitter, word(2)).with_gas(200_000))
        .unwrap();
    assert_handle_matches_node(&node, &handle, &interesting);
}

/// Deterministic two-thread interleaving: a writer steps through a fixed
/// scripted history while a reader thread, in strict lockstep via
/// channels, asserts each published prefix. No sleeps, no racing — the
/// schedule is fully sequenced, so this runs identically every time.
#[test]
fn lockstep_interleaving_reader_sees_each_committed_prefix() {
    use std::sync::mpsc;

    let mut node = LocalNode::new(2);
    let handle = node.read_handle();
    let [a, b] = [node.accounts()[0], node.accounts()[1]];

    let (to_reader, from_writer) = mpsc::channel::<(u64, U256)>();
    let (to_writer, from_reader) = mpsc::channel::<()>();

    let reader = std::thread::spawn(move || {
        while let Ok((expect_block, expect_balance)) = from_writer.recv() {
            // The writer's entry point has returned, so the publication
            // invariant guarantees the handle already serves this prefix.
            assert_eq!(handle.block_number(), expect_block, "lockstep block");
            assert_eq!(handle.balance(b), expect_balance, "lockstep balance");
            let snap = handle.snapshot();
            assert_eq!(snap.block_number(), expect_block);
            if expect_block > 0 {
                let tip = snap.block(expect_block).expect("tip block");
                let parent = snap.block(expect_block - 1).expect("parent");
                assert_eq!(tip.parent_hash, parent.hash, "linked chain");
            }
            to_writer.send(()).unwrap();
        }
    });

    for step in 0..6u64 {
        node.send_transaction(
            Transaction::call(a, b, vec![])
                .with_value(U256::from_u64(100))
                .with_gas(21_000),
        )
        .unwrap();
        to_reader.send((step + 1, node.balance(b))).unwrap();
        from_reader.recv().unwrap();
    }
    drop(to_reader);
    reader.join().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential property: for proptest-generated chains of
    /// log-emitting transactions (mixed instant and batch mining), the
    /// indexed `eth_getLogs` equals the linear scan for every filter
    /// combination and arbitrary block ranges.
    #[test]
    fn indexed_logs_equal_scan(
        ops in proptest::collection::vec((0usize..4, 1u64..1000, 0u8..2), 1..30),
        ranges in proptest::collection::vec((0u64..40, 0u64..40), 4),
    ) {
        let mut node = LocalNode::new(2);
        let [a, _] = [node.accounts()[0], node.accounts()[1]];
        let topics = [11u64, 22, 33];
        let mut contracts: Vec<Address> = topics
            .iter()
            .map(|t| {
                node.send_transaction(Transaction::deploy(a, init_code_for(&emitter_runtime(*t))))
                    .unwrap()
                    .contract_address
                    .unwrap()
            })
            .collect();
        // Fourth contract: a LOG2 emitter whose topic 1 is the calldata
        // word, so positional filters beyond topic 0 have real targets.
        contracts.push(
            node.send_transaction(Transaction::deploy(a, init_code_for(&emitter2_runtime(44))))
                .unwrap()
                .contract_address
                .unwrap(),
        );

        let mut batched = false;
        for (which, value, instant) in &ops {
            let tx = Transaction::call(a, contracts[*which], word(*value)).with_gas(200_000);
            if *instant == 1 {
                node.send_transaction(tx).unwrap();
            } else {
                node.submit_transaction(tx);
                batched = true;
            }
        }
        if batched {
            let (_, errors) = node.mine_block();
            prop_assert!(errors.is_empty());
        }

        let snap = node.published_snapshot();
        let tip = node.block_number();
        let mut filters: Vec<(Option<Address>, Option<H256>)> = vec![(None, None)];
        for contract in &contracts {
            filters.push((Some(*contract), None));
        }
        for topic in topics {
            filters.push((None, Some(H256::from_u256(U256::from_u64(topic)))));
        }
        filters.push((
            Some(contracts[0]),
            Some(H256::from_u256(U256::from_u64(22))), // mismatched pair
        ));

        let mut sweeps: Vec<(u64, u64)> = vec![(0, tip)];
        sweeps.extend(ranges.iter().copied());
        for (from_block, to_block) in &sweeps {
            let (from_block, to_block) = (*from_block, *to_block);
            for (address, topic0) in &filters {
                let indexed = snap.logs(from_block, to_block, *address, *topic0);
                let scanned = snap.logs_scan(from_block, to_block, *address, *topic0);
                let node_scan = node.logs(from_block, to_block, *address, *topic0);
                prop_assert_eq!(&indexed, &scanned, "index vs scan");
                prop_assert_eq!(&indexed, &node_scan, "index vs node");
            }
        }

        // Positional multi-topic filters: address OR-lists, topic-0
        // OR-lists, and topic-1 constraints (which only the LOG2 emitter
        // can satisfy) — including the null wildcard at position 0.
        let topic_hash = |t: u64| H256::from_u256(U256::from_u64(t));
        let word_hash = |v: u64| H256::from_u256(U256::from_u64(v));
        let t1_candidates: Vec<H256> =
            ops.iter().take(2).map(|(_, v, _)| word_hash(*v)).collect();
        let address_choices: Vec<Vec<Address>> = vec![
            vec![],
            vec![contracts[0]],
            vec![contracts[0], contracts[3]],
            contracts.clone(),
        ];
        let topic0_choices: Vec<Vec<H256>> = vec![
            vec![],
            vec![topic_hash(11)],
            vec![topic_hash(22), topic_hash(44)],
            vec![topic_hash(11), topic_hash(22), topic_hash(33), topic_hash(44)],
        ];
        let mut topic1_choices: Vec<Option<Vec<H256>>> = vec![None, Some(vec![])];
        topic1_choices.push(Some(t1_candidates.clone()));
        if let Some(first) = t1_candidates.first() {
            topic1_choices.push(Some(vec![*first]));
        }
        for (from_block, to_block) in &sweeps {
            for addresses in &address_choices {
                for topic0 in &topic0_choices {
                    for topic1 in &topic1_choices {
                        let mut filter_topics = vec![topic0.clone()];
                        if let Some(t1) = topic1 {
                            filter_topics.push(t1.clone());
                        }
                        let filter = LogFilter {
                            addresses: addresses.clone(),
                            topics: filter_topics,
                        };
                        let indexed = snap.logs_filtered(*from_block, *to_block, &filter);
                        let scanned = snap.logs_scan_filtered(*from_block, *to_block, &filter);
                        let node_scan = node.logs_filtered(*from_block, *to_block, &filter);
                        prop_assert_eq!(&indexed, &scanned, "positional index vs scan");
                        prop_assert_eq!(&indexed, &node_scan, "positional index vs node");
                    }
                }
            }
        }
    }
}
