//! The two-level authenticated state trie: one account trie whose
//! leaves commit each account's storage root, over the single in-memory
//! [`MemNodes`] store. It is rebuilt in one bottom-up pass whenever the
//! world state is replaced wholesale (snapshot import, revert, restart)
//! and folded incrementally from per-block dirt otherwise.

use crate::state::{Account, TrieDirt, WorldState};
use crate::trie::{
    account_key, decode_account, encode_account, encode_slot_value, storage_key, AccountData,
    MemNodes, Trie, TrieError,
};
use lsc_primitives::{Address, FxHashMap, FxHashSet, H256, U256};

/// The authenticated view of world state: one account trie whose leaves
/// commit each account's balance/nonce/code-hash/storage-root, plus a
/// write-through cache of per-account storage tries. Fully recoverable
/// from the account trie alone — storage roots live in the account
/// leaves, so the cache is an optimization, never a source of truth.
pub struct StateTrie {
    accounts: Trie,
    storage: FxHashMap<Address, Trie>,
}

impl Default for StateTrie {
    fn default() -> Self {
        StateTrie::new()
    }
}

impl StateTrie {
    /// An empty state trie.
    pub fn new() -> StateTrie {
        StateTrie {
            accounts: Trie::empty(),
            storage: FxHashMap::default(),
        }
    }

    /// Current state root ([`H256::ZERO`] when empty).
    pub fn root(&self) -> H256 {
        self.accounts.root()
    }

    /// The account's storage trie: cached, or recovered from its
    /// account leaf's committed storage root.
    fn storage_trie(&self, store: &MemNodes, address: Address) -> Result<Trie, TrieError> {
        if let Some(trie) = self.storage.get(&address) {
            return Ok(*trie);
        }
        match self.accounts.get(store, account_key(address))? {
            Some(bytes) => {
                let account =
                    decode_account(&bytes).ok_or(TrieError::BadNode(account_key(address)))?;
                Ok(Trie::from_root(account.storage_root))
            }
            None => Ok(Trie::empty()),
        }
    }

    /// Fold one block's dirt into the trie and return the new state
    /// root. `Some(slots)` dirt updates exactly those slots
    /// incrementally; `None` rebuilds the account's storage trie from
    /// the world state. Iteration order is fixed (sorted addresses and
    /// slots) so the node-creation sequence is deterministic.
    pub fn apply(
        &mut self,
        store: &mut MemNodes,
        state: &WorldState,
        dirty: &FxHashMap<Address, TrieDirt>,
    ) -> Result<H256, TrieError> {
        let mut addresses: Vec<Address> = dirty.keys().copied().collect();
        addresses.sort_by_key(|a| a.0);
        for address in addresses {
            let Some(account) = state.account(address) else {
                self.accounts.remove(store, account_key(address))?;
                self.storage.remove(&address);
                continue;
            };
            let storage_trie = match &dirty[&address] {
                None => storage_trie_of(store, account),
                Some(touched) => {
                    let mut storage_trie = self.storage_trie(store, address)?;
                    let mut touched: Vec<U256> = touched.iter().copied().collect();
                    touched.sort_by_key(U256::to_be_bytes);
                    for slot in touched {
                        match account.storage.get(&slot) {
                            Some(value) => {
                                storage_trie.insert(
                                    store,
                                    storage_key(slot),
                                    &encode_slot_value(*value),
                                )?;
                            }
                            None => {
                                storage_trie.remove(store, storage_key(slot))?;
                            }
                        }
                    }
                    storage_trie
                }
            };
            let data = leaf_data(state, address, account, storage_trie);
            self.accounts
                .insert(store, account_key(address), &encode_account(&data))?;
            self.storage.insert(address, storage_trie);
        }
        Ok(self.accounts.root())
    }

    /// Build the whole trie from a world state in one bottom-up pass
    /// (see [`Trie::from_sorted`]): each storage trie from its slots
    /// sorted by key, then the account trie from the accounts sorted by
    /// key. The trie is canonical, so this lands on the bit-identical
    /// root an incremental history of the same state produced.
    pub fn rebuild_from(store: &mut MemNodes, state: &WorldState) -> StateTrie {
        let mut storage = FxHashMap::default();
        let mut leaves: Vec<(H256, Vec<u8>)> = state
            .iter_accounts()
            .map(|(address, account)| {
                let storage_trie = storage_trie_of(store, account);
                storage.insert(*address, storage_trie);
                let data = leaf_data(state, *address, account, storage_trie);
                (account_key(*address), encode_account(&data))
            })
            .collect();
        leaves.sort_unstable_by_key(|(key, _)| *key);
        StateTrie {
            accounts: Trie::from_sorted(store, &leaves),
            storage,
        }
    }

    /// Every node reachable from the current root, depth-first, account
    /// trie first then each storage trie (discovered by decoding the
    /// account leaves — storage roots are leaf *data*, not child
    /// pointers). Each node appears once: subtrees shared between
    /// storage tries (accounts with identical storage) are walked once.
    /// This is the live set [`MemNodes::gc`] keeps.
    pub fn live_nodes(&self, store: &MemNodes) -> Result<Vec<H256>, TrieError> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        let mut storage_roots = Vec::new();
        collect_subtree(
            store,
            self.accounts.root(),
            &mut seen,
            &mut out,
            &mut |payload| {
                if let Some(account) = decode_account(payload) {
                    if !account.storage_root.is_zero() {
                        storage_roots.push(account.storage_root);
                    }
                }
            },
        )?;
        for root in storage_roots {
            collect_subtree(store, root, &mut seen, &mut out, &mut |_| {})?;
        }
        Ok(out)
    }

    /// Merkle proof for an account leaf.
    pub fn prove_account(
        &self,
        store: &MemNodes,
        address: Address,
    ) -> Result<Vec<Vec<u8>>, TrieError> {
        self.accounts.prove(store, account_key(address))
    }

    /// The committed account data, if the account is in the trie.
    pub fn account_data(
        &self,
        store: &MemNodes,
        address: Address,
    ) -> Result<Option<AccountData>, TrieError> {
        match self.accounts.get(store, account_key(address))? {
            Some(bytes) => Ok(Some(
                decode_account(&bytes).ok_or(TrieError::BadNode(account_key(address)))?,
            )),
            None => Ok(None),
        }
    }

    /// Merkle proof for a storage slot under an account's storage root.
    pub fn prove_storage(
        &self,
        store: &MemNodes,
        address: Address,
        slot: U256,
    ) -> Result<Vec<Vec<u8>>, TrieError> {
        self.storage_trie(store, address)?
            .prove(store, storage_key(slot))
    }
}

/// Bulk-build one account's storage trie from its slots.
fn storage_trie_of(store: &mut MemNodes, account: &Account) -> Trie {
    let mut slots: Vec<(H256, [u8; 32])> = account
        .storage
        .iter()
        .map(|(slot, value)| (storage_key(*slot), value.to_be_bytes()))
        .collect();
    slots.sort_unstable_by_key(|(key, _)| *key);
    Trie::from_sorted(store, &slots)
}

/// What an account's leaf commits to, given its storage trie.
fn leaf_data(
    state: &WorldState,
    address: Address,
    account: &Account,
    storage_trie: Trie,
) -> AccountData {
    AccountData {
        balance: account.balance,
        nonce: account.nonce,
        code_hash: state.code_hash(address),
        storage_root: storage_trie.root(),
    }
}

/// An `eth_getProof`-style response bundle: the account's committed
/// data with its Merkle proof, plus a proof per requested storage slot
/// — everything a verifier needs to check the evidence offline against
/// `state_root` (see [`crate::trie::verify_proof`]).
#[derive(Debug, Clone)]
pub struct AccountProof {
    /// The root the proofs verify against.
    pub state_root: H256,
    /// The proven account.
    pub address: Address,
    /// Committed account data; `None` proves non-inclusion.
    pub account: Option<AccountData>,
    /// Merkle proof of the account leaf (or of its absence).
    pub account_proof: Vec<Vec<u8>>,
    /// One proof per requested storage slot.
    pub storage_proofs: Vec<StorageProof>,
}

/// Proof for one storage slot under an account's storage root.
#[derive(Debug, Clone)]
pub struct StorageProof {
    /// The storage slot.
    pub key: U256,
    /// Its committed value (zero when absent — absence is proven).
    pub value: U256,
    /// Merkle proof against the account's `storage_root`.
    pub proof: Vec<Vec<u8>>,
}

fn collect_subtree(
    store: &MemNodes,
    root: H256,
    seen: &mut FxHashSet<H256>,
    out: &mut Vec<H256>,
    on_leaf_value: &mut impl FnMut(&[u8]),
) -> Result<(), TrieError> {
    if root.is_zero() {
        return Ok(());
    }
    let mut stack = vec![root];
    while let Some(hash) = stack.pop() {
        if !seen.insert(hash) {
            continue; // a shared subtree, already walked
        }
        let bytes = store.node(hash).ok_or(TrieError::MissingNode(hash))?;
        out.push(hash);
        match bytes.first() {
            Some(&0x00) if bytes.len() >= 33 => on_leaf_value(&bytes[33..]),
            Some(&0x01) if bytes.len() == 67 => {
                let left = H256::from_slice(&bytes[3..35]).expect("32 bytes");
                let right = H256::from_slice(&bytes[35..67]).expect("32 bytes");
                // Right pushed first so the walk visits left-to-right.
                stack.push(right);
                stack.push(left);
            }
            _ => return Err(TrieError::BadNode(hash)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trie::verify_proof;

    #[test]
    fn incremental_apply_matches_scratch_rebuild() {
        let mut state = WorldState::new();
        let mut store = MemNodes::new();
        let mut trie = StateTrie::new();
        let a = Address::from_label("inc-a");
        let b = Address::from_label("inc-b");
        state.credit(a, U256::from_u64(10));
        state.commit();
        let dirt = state.take_trie_dirty();
        trie.apply(&mut store, &state, &dirt).unwrap();
        state.set_storage(a, U256::ONE, U256::from_u64(5));
        state.credit(b, U256::from_u64(20));
        state.commit();
        let dirt = state.take_trie_dirty();
        let incremental = trie.apply(&mut store, &state, &dirt).unwrap();
        let scratch = StateTrie::rebuild_from(&mut MemNodes::new(), &state);
        assert_eq!(incremental, scratch.root());
    }

    #[test]
    fn destroy_account_removes_leaf() {
        let mut state = WorldState::new();
        let mut store = MemNodes::new();
        let mut trie = StateTrie::new();
        let a = Address::from_label("gone");
        state.credit(a, U256::from_u64(1));
        state.set_storage(a, U256::ONE, U256::ONE);
        state.commit();
        let dirt = state.take_trie_dirty();
        trie.apply(&mut store, &state, &dirt).unwrap();
        assert_ne!(trie.root(), H256::ZERO);
        state.destroy_account(a);
        state.commit();
        let dirt = state.take_trie_dirty();
        let root = trie.apply(&mut store, &state, &dirt).unwrap();
        assert_eq!(root, H256::ZERO);
    }

    #[test]
    fn gc_drops_only_dead_overlay_nodes() {
        let mut store = MemNodes::new();
        let mut state = WorldState::new();
        let mut trie = StateTrie::new();
        let a = Address::from_label("gc");
        for round in 0..50u64 {
            state.set_storage(a, U256::ONE, U256::from_u64(round + 1));
            state.commit();
            let dirt = state.take_trie_dirty();
            trie.apply(&mut store, &state, &dirt).unwrap();
        }
        let before = store.len();
        let live = trie.live_nodes(&store).unwrap();
        store.gc(&live);
        assert!(store.len() < before, "dead versions dropped");
        assert_eq!(store.len(), live.len());
        // Proofs still work over the retained set.
        let proof = trie.prove_account(&store, a).unwrap();
        assert!(verify_proof(trie.root(), account_key(a), &proof)
            .unwrap()
            .is_some());
    }

    #[test]
    fn live_set_walks_shared_storage_once() {
        let mut state = WorldState::new();
        let twins = [Address::from_label("twin-a"), Address::from_label("twin-b")];
        for address in twins {
            state.credit(address, U256::ONE);
            for slot in 0..16u64 {
                state.set_storage(address, U256::from_u64(slot), U256::from_u64(slot + 1));
            }
        }
        state.commit();
        let mut store = MemNodes::new();
        let trie = StateTrie::rebuild_from(&mut store, &state);
        let storage_root = |address| {
            trie.account_data(&store, address)
                .unwrap()
                .unwrap()
                .storage_root
        };
        assert_eq!(storage_root(twins[0]), storage_root(twins[1]));
        let live = trie.live_nodes(&store).unwrap();
        let distinct: FxHashSet<H256> = live.iter().copied().collect();
        assert_eq!(live.len(), distinct.len(), "no node listed twice");
        // A bulk build leaves no garbage: the live set is the whole store.
        assert_eq!(live.len(), store.len());
    }
}
