//! Differential property tests for the authenticated state layer.
//!
//! Three oracles pin the trie down:
//!
//! * a plain `BTreeMap` model — every `get` after every op must agree;
//! * canonicity — the root is a pure function of the final key→value
//!   map, independent of operation order, of intermediate churn, and of
//!   whether it was built key by key or bottom-up in one pass;
//! * bulk-vs-incremental — folding per-block dirt into a live
//!   [`StateTrie`] lands on the bit-identical root the bottom-up
//!   [`StateTrie::rebuild_from`] of the same world state produces, and
//!   both commit exactly the `WorldState`'s accounts and slots (this is
//!   the invariant restart, revert and import rely on).

use lsc_chain::state::TrieDirt;
use lsc_chain::trie::{encode_account, encode_slot_value, AccountData};
use lsc_chain::{
    account_key, decode_account, decode_slot_value, storage_key, verify_proof, MemNodes, StateTrie,
    Trie, WorldState,
};
use lsc_primitives::{Address, FxHashMap, H256, U256};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn key(n: u8) -> H256 {
    H256::keccak([n])
}

#[derive(Debug, Clone, Copy)]
enum MapOp {
    Insert(u8, u64),
    Remove(u8),
}

fn map_op() -> BoxedStrategy<MapOp> {
    prop_oneof![
        (0u8..40, 0u64..1_000_000).prop_map(|(k, v)| MapOp::Insert(k, v)),
        (0u8..40).prop_map(MapOp::Remove),
    ]
    .boxed()
}

/// Build a trie holding exactly `map`, inserting in the given order.
fn trie_of<'a>(entries: impl Iterator<Item = (&'a u8, &'a u64)>) -> (Trie, MemNodes) {
    let mut store = MemNodes::new();
    let mut trie = Trie::empty();
    for (k, v) in entries {
        trie.insert(&mut store, key(*k), &v.to_be_bytes()).unwrap();
    }
    (trie, store)
}

/// Build a trie holding exactly `map` in one bottom-up pass.
fn bulk_trie_of(map: &BTreeMap<u8, u64>) -> (Trie, MemNodes) {
    let mut entries: Vec<(H256, [u8; 8])> = map
        .iter()
        .map(|(k, v)| (key(*k), v.to_be_bytes()))
        .collect();
    entries.sort_by_key(|(k, _)| *k);
    let mut store = MemNodes::new();
    let trie = Trie::from_sorted(&mut store, &entries);
    (trie, store)
}

/// The key-by-key oracle: every storage slot, then every account leaf,
/// inserted one at a time with `Trie::insert`, in map order.
fn key_by_key_root(state: &WorldState) -> H256 {
    let mut store = MemNodes::new();
    let mut accounts = Trie::empty();
    for (address, account) in state.iter_accounts() {
        let mut storage = Trie::empty();
        for (slot, value) in &account.storage {
            storage
                .insert(&mut store, storage_key(*slot), &encode_slot_value(*value))
                .unwrap();
        }
        let data = AccountData {
            balance: account.balance,
            nonce: account.nonce,
            code_hash: state.code_hash(*address),
            storage_root: storage.root(),
        };
        accounts
            .insert(&mut store, account_key(*address), &encode_account(&data))
            .unwrap();
    }
    accounts.root()
}

/// Every account and slot of `state` is committed under `trie`'s root:
/// the account leaf and each slot verify by proof and decode to the
/// `WorldState`'s own values.
fn assert_commits_world_state(trie: &StateTrie, store: &MemNodes, state: &WorldState) {
    let root = trie.root();
    for (address, account) in state.iter_accounts() {
        let proof = trie.prove_account(store, *address).unwrap();
        let leaf = verify_proof(root, account_key(*address), &proof)
            .expect("account proof verifies")
            .expect("account present");
        let data = decode_account(&leaf).expect("account leaf decodes");
        assert_eq!(data.balance, account.balance);
        assert_eq!(data.nonce, account.nonce);
        assert_eq!(data.code_hash, state.code_hash(*address));
        for (slot, value) in &account.storage {
            let proof = trie.prove_storage(store, *address, *slot).unwrap();
            let committed = verify_proof(data.storage_root, storage_key(*slot), &proof)
                .expect("storage proof verifies")
                .and_then(|bytes| decode_slot_value(&bytes));
            assert_eq!(committed, Some(*value));
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum StateOp {
    Credit(u8, u64),
    SetNonce(u8, u64),
    SetStorage(u8, u8, u64),
    SetCode(u8, u8),
    /// Give account `.1` every storage slot of account `.0`, so storage
    /// tries can be identical across accounts.
    CopyStorage(u8, u8),
    Destroy(u8),
    /// Commit the journal and fold the dirt into the live trie.
    Sync,
}

fn state_op() -> BoxedStrategy<StateOp> {
    prop_oneof![
        (0u8..6, 1u64..1_000_000).prop_map(|(a, v)| StateOp::Credit(a, v)),
        (0u8..6, 0u64..50).prop_map(|(a, n)| StateOp::SetNonce(a, n)),
        (0u8..6, 0u8..8, 0u64..1000).prop_map(|(a, s, v)| StateOp::SetStorage(a, s, v)),
        (0u8..6, 1u8..200).prop_map(|(a, b)| StateOp::SetCode(a, b)),
        (0u8..6, 0u8..6).prop_map(|(a, b)| StateOp::CopyStorage(a, b)),
        (0u8..6).prop_map(StateOp::Destroy),
        Just(StateOp::Sync),
    ]
    .boxed()
}

fn addr(n: u8) -> Address {
    Address::from_label(&format!("acct-{n}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The trie agrees with a plain map after every operation, and its
    /// final root is canonical: rebuilding the final map fresh — in
    /// ascending and in descending key order, and bottom-up in one pass
    /// — reproduces it exactly.
    #[test]
    fn trie_matches_map_model_and_root_is_canonical(
        ops in proptest::collection::vec(map_op(), 0..60)
    ) {
        let mut store = MemNodes::new();
        let mut trie = Trie::empty();
        let mut model: BTreeMap<u8, u64> = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    trie.insert(&mut store, key(k), &v.to_be_bytes()).unwrap();
                    model.insert(k, v);
                }
                MapOp::Remove(k) => {
                    trie.remove(&mut store, key(k)).unwrap();
                    model.remove(&k);
                }
            }
            for k in 0u8..40 {
                prop_assert_eq!(
                    trie.get(&store, key(k)).unwrap(),
                    model.get(&k).map(|v| v.to_be_bytes().to_vec())
                );
            }
        }
        let (forward, _) = trie_of(model.iter());
        let (reverse, _) = trie_of(model.iter().rev());
        let (bulk, bulk_store) = bulk_trie_of(&model);
        prop_assert_eq!(trie.root(), forward.root());
        prop_assert_eq!(trie.root(), reverse.root());
        prop_assert_eq!(trie.root(), bulk.root());
        prop_assert_eq!(trie.root() == H256::ZERO, model.is_empty());
        for k in 0u8..40 {
            let proof = bulk.prove(&bulk_store, key(k)).unwrap();
            prop_assert_eq!(
                verify_proof(bulk.root(), key(k), &proof).unwrap(),
                model.get(&k).map(|v| v.to_be_bytes().to_vec())
            );
        }
    }

    /// Proofs generated for present and absent keys verify against the
    /// root, and any single-byte tamper is rejected.
    #[test]
    fn proofs_survive_the_model_and_reject_tampering(
        entries in proptest::collection::btree_map(0u8..40, 0u64..1_000_000, 1..20),
        probe in 0u8..50,
        flip in 0usize..1000,
    ) {
        let (trie, store) = trie_of(entries.iter());
        let root = trie.root();
        let proof = trie.prove(&store, key(probe)).unwrap();
        let verdict = verify_proof(root, key(probe), &proof).unwrap();
        prop_assert_eq!(verdict, entries.get(&probe).map(|v| v.to_be_bytes().to_vec()));
        // Flip one byte anywhere in the proof: it must no longer verify
        // as-is (either an error, or — never — a different value).
        let mut tampered = proof.clone();
        let total: usize = tampered.iter().map(Vec::len).sum();
        let mut at = flip % total;
        for node in &mut tampered {
            if at < node.len() {
                node[at] ^= 0x01;
                break;
            }
            at -= node.len();
        }
        prop_assert!(verify_proof(root, key(probe), &tampered).is_err());
    }

    /// Incremental dirt-folding, the key-by-key oracle and the bottom-up
    /// rebuild agree on the root at every sync point, for arbitrary
    /// interleavings of account and storage mutations (including
    /// destroys and accounts given identical storage), and the rebuilt
    /// trie proves exactly the world state's accounts and slots.
    #[test]
    fn incremental_apply_equals_scratch_rebuild(
        ops in proptest::collection::vec(state_op(), 0..40)
    ) {
        let mut state = WorldState::new();
        let mut store = MemNodes::new();
        let mut trie = StateTrie::new();
        for op in ops {
            match op {
                StateOp::Credit(a, v) => state.credit(addr(a), U256::from_u64(v)),
                StateOp::SetNonce(a, n) => state.set_nonce(addr(a), n),
                StateOp::SetStorage(a, s, v) => {
                    // Storage on a non-existent account is meaningless;
                    // make sure it exists first (as the EVM would).
                    state.create_account(addr(a));
                    state.set_storage(addr(a), U256::from_u64(u64::from(s)), U256::from_u64(v));
                }
                StateOp::SetCode(a, b) => {
                    state.create_account(addr(a));
                    state.set_code(addr(a), vec![b; 4]);
                }
                StateOp::CopyStorage(from, to) => {
                    let slots: Vec<(U256, U256)> = state
                        .account(addr(from))
                        .map(|a| a.storage.iter().map(|(k, v)| (*k, *v)).collect())
                        .unwrap_or_default();
                    state.create_account(addr(to));
                    for (slot, value) in slots {
                        state.set_storage(addr(to), slot, value);
                    }
                }
                StateOp::Destroy(a) => state.destroy_account(addr(a)),
                StateOp::Sync => {}
            }
            state.commit();
            if matches!(op, StateOp::Sync) {
                let dirt = state.take_trie_dirty();
                let incremental = trie.apply(&mut store, &state, &dirt).unwrap();
                let scratch = StateTrie::rebuild_from(&mut MemNodes::new(), &state);
                prop_assert_eq!(incremental, scratch.root());
                prop_assert_eq!(incremental, key_by_key_root(&state));
            }
        }
        // Final sync: whatever dirt remains must fold to the rebuilt root.
        let dirt = state.take_trie_dirty();
        let incremental = trie.apply(&mut store, &state, &dirt).unwrap();
        let mut scratch_store = MemNodes::new();
        let scratch = StateTrie::rebuild_from(&mut scratch_store, &state);
        prop_assert_eq!(incremental, scratch.root());
        prop_assert_eq!(incremental, key_by_key_root(&state));
        assert_commits_world_state(&scratch, &scratch_store, &state);
    }

    /// The two-level proof chain (account leaf → storage root → slot
    /// leaf) verifies offline for arbitrary states.
    #[test]
    fn account_and_storage_proof_chain_verifies(
        balances in proptest::collection::btree_map(0u8..5, 1u64..1_000_000, 1..5),
        slots in proptest::collection::btree_map(0u8..5, 1u64..1000, 1..6),
        target in 0u8..5,
    ) {
        let mut state = WorldState::new();
        for (a, v) in &balances {
            state.credit(addr(*a), U256::from_u64(*v));
        }
        for (s, v) in &slots {
            state.create_account(addr(target));
            state.set_storage(addr(target), U256::from_u64(u64::from(*s)), U256::from_u64(*v));
        }
        state.commit();
        let mut store = MemNodes::new();
        let trie = StateTrie::rebuild_from(&mut store, &state);
        let root = trie.root();

        let account_proof = trie.prove_account(&store, addr(target)).unwrap();
        let leaf = verify_proof(root, account_key(addr(target)), &account_proof)
            .expect("account proof verifies");
        let Some(bytes) = leaf else {
            // Account untouched by both maps — absence is the honest answer.
            prop_assert!(!balances.contains_key(&target) && slots.is_empty());
            return Ok(());
        };
        let account = decode_account(&bytes).expect("account leaf decodes");
        prop_assert_eq!(account.balance, U256::from_u64(*balances.get(&target).unwrap_or(&0)));

        for (s, v) in &slots {
            let slot = U256::from_u64(u64::from(*s));
            let proof = trie.prove_storage(&store, addr(target), slot).unwrap();
            let value = verify_proof(account.storage_root, storage_key(slot), &proof)
                .expect("storage proof verifies")
                .and_then(|bytes| decode_slot_value(&bytes))
                .unwrap_or(U256::ZERO);
            prop_assert_eq!(value, U256::from_u64(*v));
        }
    }
}

/// Rebuilding from a `WorldState` that carries dirt marks must not
/// depend on the marks (regression guard: rebuild iterates accounts, not
/// dirt).
#[test]
fn rebuild_ignores_pending_dirt_marks() {
    let mut state = WorldState::new();
    state.credit(addr(1), U256::from_u64(10));
    state.commit();
    let r1 = StateTrie::rebuild_from(&mut MemNodes::new(), &state).root();
    // Drain the dirt and rebuild again: same state, same root.
    let drained: FxHashMap<Address, TrieDirt> = state.take_trie_dirty();
    assert!(!drained.is_empty());
    let r2 = StateTrie::rebuild_from(&mut MemNodes::new(), &state).root();
    assert_eq!(r1, r2);
}

/// The edge shapes of the bottom-up build, pinned explicitly: the empty
/// world, a single account with a single slot, accounts whose storage
/// is identical (their storage tries share every node), and a world
/// wider than the proptests reach.
#[test]
fn bulk_build_edge_cases_match_key_by_key() {
    let empty = WorldState::new();
    assert_eq!(
        StateTrie::rebuild_from(&mut MemNodes::new(), &empty).root(),
        H256::ZERO
    );
    assert_eq!(key_by_key_root(&empty), H256::ZERO);

    let mut single = WorldState::new();
    single.create_account(addr(0));
    single.set_storage(addr(0), U256::ONE, U256::from_u64(7));
    single.commit();
    let mut store = MemNodes::new();
    let trie = StateTrie::rebuild_from(&mut store, &single);
    assert_eq!(trie.root(), key_by_key_root(&single));
    assert_commits_world_state(&trie, &store, &single);
    // One account leaf plus one storage leaf, each hashed once.
    assert_eq!(store.len(), 2);

    let mut twins = WorldState::new();
    for a in 0..4u8 {
        twins.credit(addr(a), U256::from_u64(u64::from(a) + 1));
        for s in 0..10u64 {
            twins.set_storage(addr(a), U256::from_u64(s), U256::from_u64(s * 3 + 1));
        }
    }
    twins.commit();
    let mut store = MemNodes::new();
    let trie = StateTrie::rebuild_from(&mut store, &twins);
    assert_eq!(trie.root(), key_by_key_root(&twins));
    assert_commits_world_state(&trie, &store, &twins);
    let storage_roots: Vec<H256> = (0..4u8)
        .map(|a| {
            trie.account_data(&store, addr(a))
                .unwrap()
                .unwrap()
                .storage_root
        })
        .collect();
    assert!(storage_roots.windows(2).all(|w| w[0] == w[1]));

    let mut wide = WorldState::new();
    for i in 0..200u64 {
        let address = Address::from_label(&format!("wide-{i}"));
        wide.credit(address, U256::from_u64(i + 1));
        for s in 0..i % 5 * 4 {
            wide.set_storage(address, U256::from_u64(s), U256::from_u64(i * s + 1));
        }
    }
    wide.commit();
    let mut store = MemNodes::new();
    let trie = StateTrie::rebuild_from(&mut store, &wide);
    assert_eq!(trie.root(), key_by_key_root(&wide));
    assert_commits_world_state(&trie, &store, &wide);
}
