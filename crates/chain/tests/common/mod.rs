//! Shared metamorphic-CREATE2 test harness: a factory contract that
//! deploys a child at a salt-fixed address, where the child's runtime is
//! fetched from the factory's storage at construction time. A
//! SELFDESTRUCT followed by a redeploy therefore lands *different* code
//! at the *same* address — the one production shape that can expose a
//! stale per-account code analysis.

use lsc_chain::{LocalNode, Transaction};
use lsc_evm::opcode::op;
use lsc_primitives::{Address, U256};

pub const CHILD_RUNTIME_LEN: usize = 18;

/// Child runtime with behaviour `c`: empty calldata returns `c` as a
/// 32-byte word; any calldata self-destructs (the upgrade protocol).
pub fn child_runtime(c: u8) -> Vec<u8> {
    vec![
        op::CALLDATASIZE,
        op::PUSH1,
        0x0e,
        op::JUMPI,
        op::PUSH1,
        c,
        op::PUSH1,
        0x00,
        op::MSTORE,
        op::PUSH1,
        0x20,
        op::PUSH1,
        0x00,
        op::RETURN,
        op::JUMPDEST,
        op::PUSH1,
        0x00,
        op::SELFDESTRUCT,
    ]
}

/// Fixed metamorphic init code: STATICCALL the factory (the CREATE2
/// caller) with empty calldata and deploy whatever it serves. Because the
/// init code never changes, the CREATE2 address never changes either —
/// while the deployed runtime does.
fn child_init() -> Vec<u8> {
    vec![
        op::PUSH1,
        0x20, // out len
        op::PUSH1,
        0x00, // out offset
        op::PUSH1,
        0x00, // in len
        op::PUSH1,
        0x00, // in offset
        op::CALLER,
        op::PUSH1 + 1,
        0xff,
        0xff, // gas
        op::STATICCALL,
        op::POP,
        op::PUSH1,
        CHILD_RUNTIME_LEN as u8,
        op::PUSH1,
        0x00,
        op::RETURN,
    ]
}

/// Factory runtime: 32-byte calldata stores a new runtime template in
/// slot 0; 1-byte calldata CREATE2-deploys the metamorphic child (salt 0)
/// and returns its address; empty calldata serves the current template.
pub fn factory_runtime() -> Vec<u8> {
    use lsc_evm::asm::Asm;
    let mut a = Asm::new();
    let set = a.new_label();
    let deploy = a.new_label();
    a.op(op::CALLDATASIZE)
        .push_u64(32)
        .op(op::EQ)
        .push_label(set)
        .op(op::JUMPI);
    a.op(op::CALLDATASIZE)
        .push_u64(1)
        .op(op::EQ)
        .push_label(deploy)
        .op(op::JUMPI);
    // Serve: mem[0..32] = slot 0, return the right-aligned runtime tail.
    a.push_u64(0).op(op::SLOAD).push_u64(0).op(op::MSTORE);
    a.push_u64(CHILD_RUNTIME_LEN as u64)
        .push_u64((32 - CHILD_RUNTIME_LEN) as u64)
        .op(op::RETURN);
    // Set: slot 0 = calldata word.
    a.place(set);
    a.push_u64(0)
        .op(op::CALLDATALOAD)
        .push_u64(0)
        .op(op::SSTORE)
        .op(op::STOP);
    // Deploy: right-align the init code in the first memory word, then
    // CREATE2(value=0, offset, len, salt=0).
    a.place(deploy);
    let init = child_init();
    let init_len = init.len() as u64;
    a.push(U256::from_be_slice(&init))
        .push_u64(0)
        .op(op::MSTORE);
    a.push_u64(0); // salt
    a.push_u64(init_len); // len
    a.push_u64(32 - init_len); // offset
    a.push_u64(0); // value
    a.op(op::CREATE2);
    a.push_u64(0).op(op::MSTORE);
    a.push_u64(32).push_u64(0).op(op::RETURN);
    a.assemble().unwrap()
}

/// Plain init wrapper returning an arbitrary runtime blob.
pub fn init_for(runtime: &[u8]) -> Vec<u8> {
    let mut code = vec![
        0x61,
        (runtime.len() >> 8) as u8,
        runtime.len() as u8, // PUSH2 len
        0x80,                // DUP1
        0x60,
        0x0c, // PUSH1 12 (runtime offset below)
        0x60,
        0x00, // PUSH1 0 (memory dst)
        0x39, // CODECOPY
        0x60,
        0x00, // PUSH1 0
        0xf3, // RETURN
    ];
    code.extend_from_slice(runtime);
    code
}

/// Point the factory's template at runtime variant `c`.
pub fn set_template(node: &mut LocalNode, from: Address, factory: Address, c: u8) {
    let mut word = vec![0u8; 32];
    word[32 - CHILD_RUNTIME_LEN..].copy_from_slice(&child_runtime(c));
    let receipt = node
        .send_transaction(Transaction::call(from, factory, word))
        .unwrap();
    assert_eq!(receipt.status, 1, "set_template failed");
}

/// CREATE2-deploy the metamorphic child and return its address.
pub fn deploy_child(node: &mut LocalNode, from: Address, factory: Address) -> Address {
    let receipt = node
        .send_transaction(Transaction::call(from, factory, vec![0x01]))
        .unwrap();
    assert_eq!(receipt.status, 1, "deploy_child failed");
    let created = Address::from_u256(U256::from_be_slice(&receipt.output));
    assert_ne!(created, Address::ZERO, "CREATE2 returned the zero address");
    created
}

/// Call the child with empty calldata and return its constant.
pub fn read_constant(node: &LocalNode, from: Address, child: Address) -> u8 {
    let result = node.call(from, child, vec![]);
    assert!(result.success, "child call halted: {:?}", result.halt);
    assert_eq!(result.output.len(), 32);
    result.output[31]
}

/// SELFDESTRUCT the child (any calldata triggers the destruct path).
pub fn destroy_child(node: &mut LocalNode, from: Address, child: Address) {
    let receipt = node
        .send_transaction(Transaction::call(from, child, vec![0xff]))
        .unwrap();
    assert_eq!(receipt.status, 1, "selfdestruct failed");
}
