//! Cached per-blob code analysis: jumpdest bitmap + lazily memoized
//! keccak code hash.
//!
//! Before this module every call frame re-scanned its bytecode for
//! `JUMPDEST`s (`opcode::jumpdest_map` allocates a `Vec<bool>` the size
//! of the code) and every `EXTCODEHASH`/`WorldState::code_hash` re-ran
//! keccak over the full blob. [`AnalyzedCode`] computes both at most once
//! per distinct code blob and is shared behind an `Arc`: the account
//! store caches it next to its `Arc<Vec<u8>>` code, hosts hand it out via
//! [`Host::code_analysis`](crate::Host::code_analysis), and the
//! interpreter consumes it without copying the bytecode.
//!
//! Invariant: an `AnalyzedCode` is immutable and always consistent with
//! the code it was built from. Cache *slots* (e.g. the per-account
//! `OnceLock` in `lsc-chain`) must be cleared whenever the code they sit
//! next to changes — `set_code`, `destroy_account`, journal rollback.

use lsc_primitives::H256;
use std::sync::{Arc, OnceLock};

use crate::opcode;

/// Hit/miss counters of the compile memo that the removed basic-block
/// compiler tier kept. Nothing counts any more, so
/// [`snapshot`](memo_stats::snapshot) always reads `(0, 0)`. The module
/// stays only for rentbench's record-only `evm.memo_*` fields, which a
/// change to the benchmark can drop together with it.
pub mod memo_stats {
    /// `(hits, misses)`: always `(0, 0)`.
    pub fn snapshot() -> (u64, u64) {
        (0, 0)
    }

    /// No-op: there is nothing to reset.
    pub fn reset() {}
}

/// Immutable analysis of one bytecode blob.
#[derive(Debug, Default)]
pub struct AnalyzedCode {
    code: Arc<Vec<u8>>,
    /// One bit per code byte; set where a `JUMPDEST` opcode begins
    /// (push immediates are skipped, per the Yellow Paper).
    jumpdests: Box<[u64]>,
    /// keccak256 of the code, memoized on first use. Empty code hashes
    /// to `H256::ZERO` to match `WorldState::code_hash` semantics.
    hash: OnceLock<H256>,
}

impl AnalyzedCode {
    /// Analyze a code blob (single pass over the bytecode; the keccak
    /// hash is deferred until [`code_hash`](Self::code_hash) first asks).
    pub fn analyze(code: Arc<Vec<u8>>) -> Arc<AnalyzedCode> {
        let map = opcode::jumpdest_map(&code);
        let mut jumpdests = vec![0u64; code.len().div_ceil(64)].into_boxed_slice();
        for (i, is_dest) in map.iter().enumerate() {
            if *is_dest {
                jumpdests[i >> 6] |= 1u64 << (i & 63);
            }
        }
        Arc::new(AnalyzedCode {
            code,
            jumpdests,
            hash: OnceLock::new(),
        })
    }

    /// The shared analysis of empty code (accounts without code).
    pub fn empty() -> Arc<AnalyzedCode> {
        static EMPTY: OnceLock<Arc<AnalyzedCode>> = OnceLock::new();
        EMPTY
            .get_or_init(|| AnalyzedCode::analyze(Arc::new(Vec::new())))
            .clone()
    }

    /// The analyzed bytecode.
    #[inline]
    pub fn code(&self) -> &[u8] {
        &self.code
    }

    /// The shared code blob.
    pub fn code_arc(&self) -> &Arc<Vec<u8>> {
        &self.code
    }

    /// Code length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True for empty code.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// True if `pc` is a valid jump destination.
    #[inline]
    pub fn is_jumpdest(&self, pc: usize) -> bool {
        pc < self.code.len() && (self.jumpdests[pc >> 6] >> (pc & 63)) & 1 == 1
    }

    /// keccak256 of the code (`H256::ZERO` for empty code), computed at
    /// most once per blob and memoized.
    pub fn code_hash(&self) -> H256 {
        *self.hash.get_or_init(|| {
            if self.code.is_empty() {
                H256::ZERO
            } else {
                H256::keccak(self.code.as_slice())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::op;

    #[test]
    fn bitmap_matches_reference_map() {
        // PUSH2 with a fake JUMPDEST inside the immediate, then a real one.
        let push2 = op::PUSH1 + 1;
        let code = vec![push2, op::JUMPDEST, 0x00, op::JUMPDEST, op::STOP];
        let analysis = AnalyzedCode::analyze(Arc::new(code.clone()));
        let reference = opcode::jumpdest_map(&code);
        for (i, expect) in reference.iter().enumerate() {
            assert_eq!(analysis.is_jumpdest(i), *expect, "pc {i}");
        }
        assert!(!analysis.is_jumpdest(code.len()));
        assert!(!analysis.is_jumpdest(usize::MAX));
    }

    #[test]
    fn hash_matches_keccak_and_empty_is_zero() {
        let code = vec![op::STOP, op::STOP, op::JUMPDEST];
        let analysis = AnalyzedCode::analyze(Arc::new(code.clone()));
        assert_eq!(analysis.code_hash(), H256::keccak(&code));
        // Memoized: second call returns the same value.
        assert_eq!(analysis.code_hash(), H256::keccak(&code));
        assert_eq!(AnalyzedCode::empty().code_hash(), H256::ZERO);
        assert!(AnalyzedCode::empty().is_empty());
    }
}
