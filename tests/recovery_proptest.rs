//! Crash-recovery property test for the durable stack: run a random
//! landlord/tenant workload (deploys, rent payments, version
//! migrations, clock warps, batch mining, log compaction) against a
//! durable node, then — for **every** crash point the clean run
//! enumerates (each WAL write, each fsync, each snapshot rename, plus a
//! short-write variant of every write) — re-run the same workload with
//! that exact fault injected, recover from disk, and assert the
//! recovered chain equals the committed prefix bit-identically: block
//! hashes, receipts, storage, clock and pending queue. No committed
//! block may be lost; no uncommitted transaction may become visible.

use lsc_abi::AbiValue;
use lsc_app::{AppError, RentalApp};
use lsc_chain::wal::{FaultPlan, Faults};
use lsc_chain::{ChainConfig, LocalNode, TxError};
use lsc_core::{contracts, CoreError};
use lsc_ipfs::IpfsNode;
use lsc_primitives::{ether, Address, U256};
use lsc_solc::Artifact;
use lsc_web3::{Web3, Web3Error};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// One scripted workload step. Index arguments pick among the contracts
/// deployed so far (modulo), so every generated script is executable.
#[derive(Debug, Clone, Copy)]
enum Op {
    Deploy,
    Confirm(usize),
    Pay(usize),
    QueuePay(usize),
    /// Drain the app-side rent queue: one group-committed WAL batch
    /// (N appends, ONE fsync) followed by a mined block. Crash points
    /// between the batch's appends and its fsync are enumerated like any
    /// other write/fsync, and recovery must see no partial batch.
    RentDay,
    Mine,
    Warp(u64),
    Modify(usize),
    Compact,
}

fn artifacts() -> &'static (Artifact, Artifact) {
    static CACHE: OnceLock<(Artifact, Artifact)> = OnceLock::new();
    CACHE.get_or_init(|| {
        (
            contracts::compile_base_rental().expect("base contract compiles"),
            contracts::compile_rental_agreement().expect("v2 contract compiles"),
        )
    })
}

fn fresh_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("lsc-recovery-prop-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn is_durability(error: &AppError) -> bool {
    matches!(
        error,
        AppError::Core(CoreError::Web3(Web3Error::Tx(TxError::Durability(_))))
    )
}

fn is_durability_web3(error: &Web3Error) -> bool {
    matches!(error, Web3Error::Tx(TxError::Durability(_)))
}

fn open_app(dir: &Path, faults: Faults) -> (RentalApp, Web3) {
    let node = LocalNode::open(dir, ChainConfig::default(), 3, faults).expect("durable node opens");
    let web3 = Web3::new(node);
    let app = RentalApp::recover(web3.clone(), IpfsNode::new()).expect("app recovers");
    (app, web3)
}

/// Run the scripted workload. Returns `false` when a durability failure
/// stopped it (the node is poisoned; nothing after the failure applied).
/// Business-rule rejections (confirming twice, paying before confirming…)
/// are deterministic, identical in every run, and simply skipped.
fn run_workload(app: &RentalApp, web3: &Web3, ops: &[Op]) -> bool {
    macro_rules! step {
        ($r:expr) => {
            match $r {
                Ok(_) => {}
                Err(e) if is_durability(&e) => return false,
                Err(_) => {}
            }
        };
    }
    let (base, v2) = artifacts();
    let accounts = web3.accounts();
    step!(app.register("landlady", "l@x", "pw", accounts[0]));
    step!(app.register("tenant", "t@x", "pw", accounts[1]));
    let Ok(landlord) = app.login("landlady", "pw") else {
        return false;
    };
    let Ok(tenant) = app.login("tenant", "pw") else {
        return false;
    };
    step!(app.upload_contract(
        landlord,
        "Base rental",
        base.bytecode.clone(),
        &base.abi.to_json()
    ));
    step!(app.upload_contract(
        landlord,
        "Rental v2",
        v2.bytecode.clone(),
        &v2.abi.to_json()
    ));

    let mut deployed: Vec<Address> = Vec::new();
    let pick = |deployed: &Vec<Address>, i: usize| deployed[i % deployed.len()];
    for op in ops {
        match *op {
            Op::Deploy => match app.deploy_contract(
                landlord,
                0,
                &[
                    AbiValue::Uint(ether(1)),
                    AbiValue::string("10001-42 Main St"),
                    AbiValue::uint(31_536_000),
                ],
                U256::ZERO,
            ) {
                Ok(address) => deployed.push(address),
                Err(e) if is_durability(&e) => return false,
                Err(_) => {}
            },
            Op::Confirm(i) if !deployed.is_empty() => {
                step!(app.confirm_agreement(tenant, pick(&deployed, i)));
            }
            Op::Pay(i) if !deployed.is_empty() => {
                step!(app.pay_rent(tenant, pick(&deployed, i)));
            }
            Op::QueuePay(i) if !deployed.is_empty() => {
                step!(app.queue_rent_payment(tenant, pick(&deployed, i)));
            }
            Op::RentDay => match app.try_run_rent_day() {
                Err(e) if is_durability(&e) => return false,
                _ => {}
            },
            Op::Mine => match web3.try_mine_block() {
                Err(e) if is_durability_web3(&e) => return false,
                _ => {}
            },
            Op::Warp(seconds) => match web3.try_increase_time(seconds) {
                Err(e) if is_durability_web3(&e) => return false,
                _ => {}
            },
            Op::Modify(i) if !deployed.is_empty() => {
                match app.modify_contract(
                    landlord,
                    pick(&deployed, i),
                    1,
                    &[
                        AbiValue::Uint(ether(1)),
                        AbiValue::Uint(ether(2)),
                        AbiValue::uint(31_536_000),
                        AbiValue::Uint(U256::ZERO),
                        AbiValue::Uint(ether(2) / U256::from_u64(4)),
                        AbiValue::string("10001-42 Main St"),
                    ],
                    &[],
                ) {
                    Ok(address) => deployed.push(address),
                    Err(e) if is_durability(&e) => return false,
                    Err(_) => {}
                }
            }
            // A compaction that dies mid-way (its fault is swallowed here)
            // must leave the log fully recoverable — the workload keeps
            // going and the final recovery check still has to hold.
            Op::Compact => {
                let _ = web3.with_node(lsc_chain::LocalNode::compact);
            }
            _ => {}
        }
    }
    true
}

fn op_strategy() -> BoxedStrategy<Op> {
    prop_oneof![
        Just(Op::Deploy),
        (0usize..3).prop_map(Op::Confirm),
        (0usize..3).prop_map(Op::Pay),
        (0usize..3).prop_map(Op::QueuePay),
        Just(Op::RentDay),
        Just(Op::Mine),
        (1u64..100_000).prop_map(Op::Warp),
        (0usize..3).prop_map(Op::Modify),
        Just(Op::Compact),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn every_crash_point_recovers_exactly_the_committed_prefix(
        ops in proptest::collection::vec(op_strategy(), 3..8)
    ) {
        prop_assert!(
            lsc_chain::fault_injection_enabled(),
            "this test requires the fault-injection feature"
        );

        // Every run ends with a compaction and one more block, so the
        // snapshot's tmp-write/fsync/rename is always in the enumerated
        // crash-point set, and the final recovery rebuilds the trie
        // from a snapshot image and replays a log tail on top of it.
        let mut ops = ops;
        ops.push(Op::Compact);
        ops.push(Op::Mine);

        // Clean run: executes the whole workload and — via the shared
        // fault handle's counters — enumerates every crash point it
        // touched.
        let clean_dir = fresh_dir();
        let clean_faults = Faults::none();
        let (clean_app, clean_web3) = open_app(&clean_dir, clean_faults.clone());
        prop_assert!(run_workload(&clean_app, &clean_web3, &ops));
        let counts = clean_faults.op_counts();
        let clean_export = clean_web3.with_node(|node| node.export_state());
        drop(clean_app);
        drop(clean_web3);
        prop_assert!(counts.writes > 0, "the workload must hit the log");

        // A fault-free recovery reproduces the clean run exactly.
        let recovered = LocalNode::recover(&clean_dir, Faults::none()).expect("clean recovery");
        prop_assert_eq!(recovered.export_state(), clean_export);
        drop(recovered);
        std::fs::remove_dir_all(&clean_dir).ok();

        // Every enumerated crash point: fail the Nth write (and a
        // short-write variant of it), the Nth fsync, the Nth rename.
        let mut plans = Vec::new();
        for n in 1..=counts.writes {
            plans.push(FaultPlan { fail_write: Some(n), ..FaultPlan::default() });
            plans.push(FaultPlan { short_write: Some((n, 7)), ..FaultPlan::default() });
        }
        for n in 1..=counts.fsyncs {
            plans.push(FaultPlan { fail_fsync: Some(n), ..FaultPlan::default() });
        }
        for n in 1..=counts.renames {
            plans.push(FaultPlan { fail_rename: Some(n), ..FaultPlan::default() });
        }

        for plan in plans {
            let dir = fresh_dir();
            let (app, web3) = open_app(&dir, Faults::plan(plan.clone()));
            run_workload(&app, &web3, &ops);
            // Whether the fault poisoned the node mid-workload or was
            // swallowed by a compaction, the in-memory state now IS the
            // committed prefix: append-before-apply plus stop-on-error
            // guarantee it.
            let expected = web3.with_node(|node| node.export_state());
            let expected_blocks = web3.with_node(|node| {
                (0..=node.block_number())
                    .map(|n| node.block(n).expect("block exists").hash)
                    .collect::<Vec<_>>()
            });
            let expected_pending = web3.pending_count();
            drop(app);
            drop(web3);

            let recovered = LocalNode::recover(&dir, Faults::none())
                .unwrap_or_else(|e| panic!("recovery failed under {plan:?}: {e}"));
            // Bit-identical committed prefix: full image (accounts,
            // storage, receipts, clock)…
            prop_assert_eq!(
                recovered.export_state(),
                expected,
                "state mismatch under {:?}",
                plan.clone()
            );
            // …no committed block lost, hash for hash…
            let recovered_blocks: Vec<_> = (0..=recovered.block_number())
                .map(|n| recovered.block(n).expect("block exists").hash)
                .collect();
            prop_assert_eq!(recovered_blocks, expected_blocks, "blocks lost under {:?}", plan.clone());
            // …and no uncommitted transaction visible anywhere, including
            // the pending queue.
            prop_assert_eq!(recovered.pending_count(), expected_pending);

            // The app tier replays its committed events without error.
            let web3 = Web3::new(recovered);
            let app = RentalApp::recover(web3.clone(), IpfsNode::new());
            prop_assert!(app.is_ok(), "app replay failed under {:?}", plan);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Rewrite `dir` (a compacted data directory) into the layout of
/// releases that persisted the trie in a page store: `meta.json` gains
/// the `state_cache_bytes` knob, the snapshot image gains the
/// `state_root` field (re-checksummed, as those releases wrote it), and
/// `state.pages`/`state.root` sit beside the log.
fn dress_as_legacy(dir: &Path, root: lsc_primitives::H256, head: u64) {
    use lsc_abi::json::{parse, JsonValue};
    use lsc_primitives::{hex, keccak256};

    let meta_path = dir.join("meta.json");
    let mut meta = parse(&std::fs::read_to_string(&meta_path).unwrap()).unwrap();
    let JsonValue::Object(fields) = &mut meta else {
        panic!("meta.json is an object");
    };
    fields.insert("state_cache_bytes".into(), JsonValue::Number(16_777_216.0));
    std::fs::write(&meta_path, meta.to_json()).unwrap();

    let snapshots: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_string_lossy();
            name.starts_with("snapshot-") && name.ends_with(".json")
        })
        .collect();
    assert_eq!(snapshots.len(), 1, "the workload compacted once");
    let image = parse(&std::fs::read_to_string(&snapshots[0]).unwrap()).unwrap();
    let mut state = image.get("state").expect("image has a state").clone();
    let JsonValue::Object(fields) = &mut state else {
        panic!("image state is an object");
    };
    fields.insert("state_root".into(), JsonValue::String(root.to_string()));
    let checksum = hex::encode_prefixed(keccak256(state.to_json().as_bytes()));
    let image = JsonValue::object([("checksum", JsonValue::String(checksum)), ("state", state)]);
    std::fs::write(&snapshots[0], image.to_json()).unwrap();

    let mut page = vec![0u8; 16 * 1024];
    page[..4].copy_from_slice(&0x4C53_4350u32.to_le_bytes());
    std::fs::write(dir.join("state.pages"), page).unwrap();
    let root_file = JsonValue::object([
        ("block", JsonValue::Number(head as f64)),
        ("root", JsonValue::String(root.to_string())),
    ]);
    std::fs::write(dir.join("state.root"), root_file.to_json()).unwrap();
}

/// A data directory written by a release that kept the trie in an
/// on-disk page store recovers to the bit-identical chain: same image,
/// same block hashes, same state root, same proofs — all verifying
/// offline. Recovery ignores the legacy `meta.json` field, the image's
/// recorded `state_root` and the page files, and bulk-builds the trie
/// from the image; the next compaction deletes the page files.
#[test]
fn legacy_data_dir_recovers_identically() {
    let ops = [
        Op::Deploy,
        Op::Confirm(0),
        Op::Pay(0),
        Op::Warp(40_000),
        Op::Compact,
        Op::Pay(0),
        Op::Mine,
    ];
    let slots = [U256::ZERO, U256::from_u64(1)];
    let dir = fresh_dir();
    let (app, web3) = open_app(&dir, Faults::none());
    assert!(run_workload(&app, &web3, &ops));
    let expected = web3.with_node(|node| node.export_state());
    let expected_root = web3.with_node(lsc_chain::LocalNode::state_root);
    let head = web3.block_number();
    let account = web3.accounts()[0];
    let expected_proof = web3.with_node(|node| node.proof(account, &slots).expect("live proof"));
    drop(app);
    drop(web3);
    dress_as_legacy(&dir, expected_root, head);

    let mut recovered = LocalNode::recover(&dir, Faults::none()).expect("legacy recovery");
    assert_eq!(recovered.export_state(), expected);
    assert_eq!(recovered.state_root(), expected_root);
    let proof = recovered
        .proof(account, &slots)
        .expect("proof over the rebuilt trie");
    assert_eq!(proof.state_root, expected_root);
    assert_eq!(proof.account, expected_proof.account);
    assert_eq!(proof.account_proof, expected_proof.account_proof);
    assert!(lsc_chain::verify_proof(
        proof.state_root,
        lsc_chain::account_key(account),
        &proof.account_proof
    )
    .is_ok());
    for (got, want) in proof
        .storage_proofs
        .iter()
        .zip(&expected_proof.storage_proofs)
    {
        assert_eq!((got.key, got.value), (want.key, want.value));
        assert_eq!(got.proof, want.proof);
    }

    // Compaction deletes the page files; the chain is unchanged.
    recovered.compact().expect("compact");
    assert!(!dir.join("state.pages").exists(), "stale page file deleted");
    assert!(!dir.join("state.root").exists(), "stale root file deleted");
    drop(recovered);
    let mut again = LocalNode::recover(&dir, Faults::none()).expect("recovery after compaction");
    assert_eq!(again.export_state(), expected);
    assert_eq!(again.state_root(), expected_root);
    std::fs::remove_dir_all(&dir).ok();
}
