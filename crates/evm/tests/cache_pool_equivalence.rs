//! Random bytecode through the execution fast path must be
//! indistinguishable from a from-scratch run: identical results, output,
//! gas, refunds, logs and final host state.
//!
//! - Reference: a host that analyzes the code afresh on every
//!   `code_analysis` call, run on a fresh `Evm` (empty frame pool).
//! - Subject: a host with the chain-style per-address memoized analysis,
//!   run on an `Evm` that has already executed a different program, so
//!   its frame pool holds dirty buffers (memory, stack, return data).

use lsc_evm::asm::Asm;
use lsc_evm::opcode::op;
use lsc_evm::{AnalyzedCode, BlockEnv, CallResult, Evm, Host, Log, Message, MockHost};
use lsc_primitives::{Address, H256, U256};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// `MockHost` with an explicit analysis policy: `cache: None` analyzes
/// the code afresh on every call; `Some` memoizes per address and drops
/// entries whenever the adjacent code may change, as the chain's account
/// store does.
struct TestHost {
    inner: MockHost,
    cache: Option<RefCell<HashMap<Address, Arc<AnalyzedCode>>>>,
}

impl TestHost {
    fn fresh(inner: MockHost) -> Self {
        TestHost { inner, cache: None }
    }

    fn caching(inner: MockHost) -> Self {
        TestHost {
            inner,
            cache: Some(RefCell::new(HashMap::new())),
        }
    }

    /// Drop the cached analysis of `address`, or of every address.
    fn forget(&self, address: Option<Address>) {
        let Some(cache) = &self.cache else { return };
        let mut cache = cache.borrow_mut();
        match address {
            Some(address) => {
                cache.remove(&address);
            }
            None => cache.clear(),
        }
    }
}

impl Host for TestHost {
    fn block(&self) -> &BlockEnv {
        self.inner.block()
    }
    fn blockhash(&self, number: u64) -> H256 {
        self.inner.blockhash(number)
    }
    fn gas_price(&self) -> U256 {
        self.inner.gas_price()
    }
    fn exists(&self, address: Address) -> bool {
        self.inner.exists(address)
    }
    fn balance(&self, address: Address) -> U256 {
        self.inner.balance(address)
    }
    fn nonce(&self, address: Address) -> u64 {
        self.inner.nonce(address)
    }
    fn code(&self, address: Address) -> Vec<u8> {
        self.inner.code(address)
    }
    fn code_hash(&self, address: Address) -> H256 {
        self.inner.code_hash(address)
    }
    fn code_analysis(&self, address: Address) -> Arc<AnalyzedCode> {
        let analyze = || AnalyzedCode::analyze(Arc::new(self.inner.code(address)));
        match &self.cache {
            None => analyze(),
            Some(cache) => cache
                .borrow_mut()
                .entry(address)
                .or_insert_with(analyze)
                .clone(),
        }
    }
    fn sload(&mut self, address: Address, key: U256) -> U256 {
        self.inner.sload(address, key)
    }
    fn sstore(&mut self, address: Address, key: U256, value: U256) -> U256 {
        self.inner.sstore(address, key, value)
    }
    fn transfer(&mut self, from: Address, to: Address, value: U256) -> bool {
        self.inner.transfer(from, to, value)
    }
    fn mint(&mut self, to: Address, value: U256) {
        self.inner.mint(to, value);
    }
    fn inc_nonce(&mut self, address: Address) -> u64 {
        self.inner.inc_nonce(address)
    }
    fn set_code(&mut self, address: Address, code: Vec<u8>) {
        self.forget(Some(address));
        self.inner.set_code(address, code);
    }
    fn create_account(&mut self, address: Address) {
        self.inner.create_account(address);
    }
    fn selfdestruct(&mut self, address: Address, beneficiary: Address) {
        self.forget(Some(address));
        self.inner.selfdestruct(address, beneficiary);
    }
    fn log(&mut self, log: Log) {
        self.inner.log(log);
    }
    fn snapshot(&mut self) -> usize {
        self.inner.snapshot()
    }
    fn revert(&mut self, snapshot: usize) {
        // The cache may hold analyses for codes the rollback removes;
        // drop everything (coarse but always correct — the chain's
        // journaled variant restores exact entries instead).
        self.forget(None);
        self.inner.revert(snapshot);
    }
}

fn caller() -> Address {
    Address::from_label("equivalence-caller")
}

fn contract() -> Address {
    Address::from_label("equivalence-contract")
}

fn warmup_outer() -> Address {
    Address::from_label("warmup-outer")
}

fn warmup_leaf() -> Address {
    Address::from_label("warmup-leaf")
}

/// A program that leaves its frame buffers dirty: non-zero memory up to
/// ~800 bytes, 24 junk stack words, optionally a nested CALL (whose
/// output lands in the return-data buffer), then RETURN of 128 bytes.
fn dirtying_code(callee: Option<Address>) -> Vec<u8> {
    let mut asm = Asm::new();
    for i in 0..8 {
        asm.push(U256::MAX).push_u64(i * 96).op(op::MSTORE);
    }
    for i in 0..24 {
        asm.push_u64(0xdead + i);
    }
    if let Some(callee) = callee {
        // CALL(gas, callee, 0, args 0..32, ret 0..64)
        asm.push_u64(64)
            .push_u64(0)
            .push_u64(32)
            .push_u64(0)
            .push_u64(0)
            .push(callee.to_u256())
            .op(op::GAS)
            .op(op::CALL);
    }
    asm.push_u64(128).push_u64(0).op(op::RETURN);
    asm.assemble().expect("warmup program assembles")
}

fn setup_host(code: &[u8]) -> MockHost {
    let mut host = MockHost::new();
    host.fund(caller(), U256::from_u64(1_000_000_000));
    host.fund(contract(), U256::from_u64(500));
    host.set_code(contract(), code.to_vec());
    host.set_code(warmup_outer(), dirtying_code(Some(warmup_leaf())));
    host.set_code(warmup_leaf(), dirtying_code(None));
    host
}

fn run_message(data: &[u8]) -> Message {
    Message::call(
        caller(),
        contract(),
        U256::from_u64(3),
        data.to_vec(),
        200_000,
    )
}

type Digest = (bool, bool, Option<lsc_evm::Halt>, Vec<u8>, u64, u64);

fn digest(result: &CallResult) -> Digest {
    (
        result.success,
        result.reverted,
        result.halt,
        result.output.clone(),
        result.gas_left,
        result.gas_refund,
    )
}

fn host_digest(host: &MockHost) -> String {
    let mut balances: Vec<_> = host
        .balances
        .iter()
        .map(|(a, v)| format!("{a}={v:x}"))
        .collect();
    balances.sort();
    let mut storage: Vec<_> = host
        .storage
        .iter()
        .map(|((a, k), v)| format!("{a}/{k:x}={v:x}"))
        .collect();
    storage.sort();
    let mut codes: Vec<_> = host
        .codes
        .iter()
        .map(|(a, c)| format!("{a}:{}", H256::keccak(c)))
        .collect();
    codes.sort();
    format!(
        "b={balances:?} s={storage:?} c={codes:?} logs={} created={:?} destroyed={:?}",
        host.logs.len(),
        host.created,
        host.destroyed
    )
}

/// Run `code` with `data` on the reference and on the subject; return
/// each side's result digest and final host state.
fn run_both(code: &[u8], data: &[u8]) -> ((Digest, String), (Digest, String)) {
    let mut reference = TestHost::fresh(setup_host(code));
    let reference_result = Evm::new(&mut reference).execute(run_message(data));

    let mut subject = TestHost::caching(setup_host(code));
    let subject_result = {
        let mut evm = Evm::new(&mut subject);
        let warmup = evm.execute(Message::call(
            caller(),
            warmup_outer(),
            U256::ZERO,
            vec![0xab; 32],
            1_000_000,
        ));
        assert!(warmup.success && warmup.output.iter().any(|b| *b != 0));
        evm.execute(run_message(data))
    };
    (
        (digest(&reference_result), host_digest(&reference.inner)),
        (digest(&subject_result), host_digest(&subject.inner)),
    )
}

/// Random programs rarely read memory or return data before writing
/// them, so probe both directly: a frame starting from clean buffers
/// sees `MSIZE == 0` and `RETURNDATASIZE == 0`.
#[test]
fn reused_frame_buffers_start_empty() {
    let mut asm = Asm::new();
    asm.op(op::MSIZE)
        .op(op::RETURNDATASIZE)
        .push_u64(0)
        .op(op::MSTORE)
        .push_u64(32)
        .op(op::MSTORE)
        .push_u64(64)
        .push_u64(0)
        .op(op::RETURN);
    let probe = asm.assemble().expect("probe assembles");
    let (reference, subject) = run_both(&probe, &[]);
    assert_eq!(reference, subject);
    assert_eq!(
        reference.0 .3,
        vec![0u8; 64],
        "probe read non-empty buffers"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_warm_pool_and_fresh_execution_are_bit_identical(
        code in proptest::collection::vec(any::<u8>(), 0..160),
        data in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let (reference, subject) = run_both(&code, &data);
        prop_assert_eq!(
            reference.0,
            subject.0,
            "result diverged for code {:02x?} data {:02x?}",
            code,
            data
        );
        prop_assert_eq!(
            reference.1,
            subject.1,
            "state diverged for code {:02x?} data {:02x?}",
            code,
            data
        );
    }
}
