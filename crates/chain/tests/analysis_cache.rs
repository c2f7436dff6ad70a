//! Cache-invalidation correctness for the per-account code-analysis
//! cache: redeploying different code at the same address — the
//! CREATE-after-SELFDESTRUCT shape — and rolling back across `set_code`
//! must never serve a stale jumpdest bitmap or code hash, and keccak must
//! run at most once per distinct code blob (the cached `AnalyzedCode` is
//! shared by pointer, so its memoized hash is computed a single time).

use lsc_chain::{LocalNode, Transaction, WorldState};
use lsc_evm::AnalyzedCode;
use lsc_primitives::{Address, H256};
use std::sync::Arc;

mod common;
use common::child_runtime;
use common::{deploy_child, destroy_child, factory_runtime, init_for, read_constant, set_template};

fn addr(label: &str) -> Address {
    Address::from_label(label)
}

/// Two code blobs whose jumpdest maps and hashes differ, so any stale
/// cache is observable through both views.
fn code_v1() -> Vec<u8> {
    // JUMPDEST STOP
    vec![0x5b, 0x00]
}

fn code_v2() -> Vec<u8> {
    // PUSH1 0x5b STOP — the 0x5b is a push immediate, NOT a jumpdest.
    vec![0x60, 0x5b, 0x00]
}

#[test]
fn redeploy_at_same_address_after_destroy_serves_fresh_analysis() {
    let contract = addr("reborn-contract");
    let mut state = WorldState::new();
    state.set_code(contract, code_v1());
    state.commit();

    // Warm the cache through both read paths.
    let old_analysis = state.code_analysis(contract);
    assert!(old_analysis.is_jumpdest(0));
    assert_eq!(state.code_hash(contract), H256::keccak(code_v1()));

    // SELFDESTRUCT, then a CREATE lands different code at the SAME
    // address (possible with deterministic address schemes).
    state.destroy_account(contract);
    state.create_account(contract);
    state.set_code(contract, code_v2());
    state.commit();

    let new_analysis = state.code_analysis(contract);
    assert!(
        !Arc::ptr_eq(&old_analysis, &new_analysis),
        "redeploy must not reuse the destroyed account's analysis"
    );
    assert!(
        !new_analysis.is_jumpdest(0) && !new_analysis.is_jumpdest(1),
        "stale jumpdest bitmap served after redeploy"
    );
    assert_eq!(new_analysis.code(), code_v2().as_slice());
    assert_eq!(state.code_hash(contract), H256::keccak(code_v2()));
}

#[test]
fn destroy_rollback_restores_the_matching_analysis() {
    let contract = addr("destroyed-then-reverted");
    let mut state = WorldState::new();
    state.set_code(contract, code_v1());
    state.commit();
    let warmed = state.code_analysis(contract);

    let cp = state.checkpoint();
    state.destroy_account(contract);
    state.create_account(contract);
    state.set_code(contract, code_v2());
    assert_eq!(state.code_hash(contract), H256::keccak(code_v2()));
    state.revert_to(cp);

    // The restored account carries the analysis that described its code
    // before the destroy — same Arc, still correct.
    let restored = state.code_analysis(contract);
    assert!(Arc::ptr_eq(&warmed, &restored), "cache lost across revert");
    assert_eq!(state.code_hash(contract), H256::keccak(code_v1()));
    assert!(restored.is_jumpdest(0));
}

#[test]
fn rollback_across_set_code_never_serves_stale_analysis() {
    let contract = addr("upgraded-contract");
    let mut state = WorldState::new();
    state.set_code(contract, code_v1());
    state.commit();
    let v1_analysis = state.code_analysis(contract);
    assert_eq!(state.code_hash(contract), H256::keccak(code_v1()));

    let cp = state.checkpoint();
    state.set_code(contract, code_v2());
    // The upgrade is visible immediately — no stale v1 answers.
    assert_eq!(state.code_hash(contract), H256::keccak(code_v2()));
    assert!(!state.code_analysis(contract).is_jumpdest(0));

    state.revert_to(cp);
    // …and the rollback reinstates exactly the v1 cache.
    let after = state.code_analysis(contract);
    assert!(Arc::ptr_eq(&v1_analysis, &after));
    assert_eq!(state.code_hash(contract), H256::keccak(code_v1()));
    assert!(after.is_jumpdest(0));
}

#[test]
fn keccak_runs_at_most_once_per_distinct_code_blob() {
    let contract = addr("hash-once");
    let mut state = WorldState::new();
    state.set_code(contract, code_v1());
    state.commit();

    // Every analysis lookup returns the SAME memoized object, so its
    // `OnceLock`-backed hash is computed a single time no matter how many
    // frames, EXTCODEHASH reads, or code_hash calls touch the account.
    let first = state.code_analysis(contract);
    for _ in 0..10 {
        let again = state.code_analysis(contract);
        assert!(Arc::ptr_eq(&first, &again), "analysis recomputed");
        assert_eq!(state.code_hash(contract), H256::keccak(code_v1()));
    }
    assert_eq!(first.code_hash(), state.code_hash(contract));

    // A different blob gets its own (single) analysis and hash.
    let other = addr("hash-once-other");
    state.set_code(other, code_v2());
    state.commit();
    let other_analysis = state.code_analysis(other);
    assert!(!Arc::ptr_eq(&first, &other_analysis));
    assert!(Arc::ptr_eq(&other_analysis, &state.code_analysis(other)));
    assert_eq!(state.code_hash(other), H256::keccak(code_v2()));

    // Empty accounts share the one static empty analysis (hash ZERO).
    let eoa = addr("plain-eoa");
    assert!(Arc::ptr_eq(
        &state.code_analysis(eoa),
        &AnalyzedCode::empty()
    ));
    assert_eq!(state.code_hash(eoa), H256::ZERO);
}

#[test]
fn analysis_entry_is_replaced_by_set_code_and_reinstated_by_rollback() {
    let contract = addr("replaced-entry");
    let mut state = WorldState::new();
    state.set_code(contract, code_v1());
    state.commit();
    let v1 = state.code_analysis(contract);
    assert_eq!(v1.code_hash(), H256::keccak(code_v1()));
    assert!(Arc::ptr_eq(&v1, &state.code_analysis(contract)));

    // set_code swaps in a new entry — bitmap and memoized hash together —
    // while the old entry keeps describing the code it was built from.
    let cp = state.checkpoint();
    state.set_code(contract, code_v2());
    let v2 = state.code_analysis(contract);
    assert!(!Arc::ptr_eq(&v1, &v2), "stale analysis after upgrade");
    assert_eq!(v2.code(), code_v2().as_slice());
    assert_eq!(v2.code_hash(), H256::keccak(code_v2()));
    assert!(!v2.is_jumpdest(0));
    assert!(v1.is_jumpdest(0));
    assert_eq!(v1.code_hash(), H256::keccak(code_v1()));

    // Rollback reinstates the exact prior entry, warmed hash included.
    state.revert_to(cp);
    let restored = state.code_analysis(contract);
    assert!(Arc::ptr_eq(&v1, &restored), "cache lost across revert");
    assert_eq!(restored.code_hash(), H256::keccak(code_v1()));
}

// ---------------------------------------------------------------------------
// Metamorphic CREATE2 redeploy: the one production shape where an address
// gets NEW code (SELFDESTRUCT, then CREATE2 with identical init code that
// fetches its runtime from the factory). The second incarnation must get
// a fresh analysis and never execute the first incarnation's code.
// ---------------------------------------------------------------------------

#[test]
fn create2_redeploy_never_executes_old_code() {
    let mut node = LocalNode::new(3);
    let from = node.accounts()[0];
    let factory = node
        .send_transaction(Transaction::deploy(from, init_for(&factory_runtime())))
        .unwrap()
        .contract_address
        .unwrap();

    // First incarnation: returns 0x11; calling it warms the per-account
    // analysis cache.
    set_template(&mut node, from, factory, 0x11);
    let child = deploy_child(&mut node, from, factory);
    assert_eq!(node.code(child).as_slice(), &child_runtime(0x11));
    assert_eq!(read_constant(&node, from, child), 0x11);
    let first = node.code_analysis(child);
    assert!(Arc::ptr_eq(&first, &node.code_analysis(child)));
    assert_eq!(first.code_hash(), H256::keccak(child_runtime(0x11)));

    // Upgrade: SELFDESTRUCT, retarget the factory, CREATE2 again — the
    // identical init code lands the NEW runtime at the SAME address.
    destroy_child(&mut node, from, child);
    set_template(&mut node, from, factory, 0x22);
    let reborn = deploy_child(&mut node, from, factory);
    assert_eq!(child, reborn, "CREATE2 redeploy must reuse the address");

    let second = node.code_analysis(child);
    assert!(
        !Arc::ptr_eq(&first, &second),
        "redeploy reused the destroyed incarnation's analysis"
    );
    assert_eq!(second.code(), child_runtime(0x22).as_slice());
    assert_eq!(second.code_hash(), H256::keccak(child_runtime(0x22)));
    assert_eq!(
        read_constant(&node, from, child),
        0x22,
        "stale code executed after redeploy"
    );
}
