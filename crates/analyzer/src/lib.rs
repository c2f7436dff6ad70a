//! # lsc-analyzer
//!
//! Static bytecode verifier for the legal-smart-contracts stack. The
//! paper's version chain (Fig. 2) makes every deployed contract part of
//! the permanent legal record, and its modify flow (Figs. 7–8) swaps new
//! logic in against shared storage with no admission check. This crate
//! is that missing check: before a deployment or version upgrade enters
//! the chain, its bytecode is
//!
//! 1. decoded and shaped into a CFG ([`lsc_evm::cfg`]),
//! 2. abstractly interpreted ([`absint`]) — stack-depth intervals,
//!    bounded constant tracking for jump resolution, reachability, and a
//!    static lower-bound gas estimate,
//! 3. linted ([`lints`]) into structured [`Finding`]s,
//! 4. judged against a [`VettingPolicy`] that maps each [`Rule`] to
//!    deny/warn/allow.
//!
//! `lsc-core` enforces the policy in `ContractManager::deploy` and the
//! negotiation `enact` path; the CLI exposes it as `vet`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod compat;
mod extract;
pub mod layout;
pub mod lints;

pub use compat::check_upgrade;
pub use extract::extract_runtime;
pub use layout::{ClassSet, SlotUse, StorageLayout};
pub use lints::LintOptions;

use lsc_evm::cfg::Cfg;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// What a finding is about. Discriminants are stable and ordered by how
/// alarming the rule is by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Rule {
    /// A jump whose (constant) target is not a `JUMPDEST`: guaranteed
    /// `InvalidJump` halt if executed.
    InvalidJump,
    /// Some reachable path reaches an instruction with too few operands.
    StackUnderflow,
    /// Some reachable path may push past the 1024-slot limit.
    StackOverflow,
    /// Storage write after a reentrancy-capable external call — the
    /// checks-effects-interactions violation behind the DAO-style bugs.
    WriteAfterCall,
    /// A CALL/CREATE status code is discarded without being inspected.
    UncheckedCall,
    /// PUSH immediate truncated by the end of the code (zero-padded at
    /// runtime; almost always a build artifact).
    TruncatedPush,
    /// `SELFDESTRUCT` present on a reachable path.
    Selfdestruct,
    /// `ORIGIN` present on a reachable path.
    Origin,
    /// Code that no path from the entry point can reach.
    UnreachableCode,
    /// Upgrade hazard: a storage slot the predecessor reads is written
    /// by the successor with a provably different provenance class.
    SlotRepurposed,
    /// Upgrade hazard: a predecessor mapping/array root slot is
    /// scalar-written by the successor without remaining a hash base.
    MappingBaseCollision,
    /// Upgrade hazard: the version-chain `next`/`previous` pointer slots
    /// are written with a provably non-calldata value.
    LinkPointerClobbered,
    /// Layout recovery was incomplete, so upgrade compatibility is
    /// unprovable (warn-level by design: the gate records, not denies).
    LayoutUnknown,
}

impl Rule {
    /// Every rule. New variants append — the discriminant and name of an
    /// existing rule never change, which is what keeps committed
    /// finding baselines stable across analyzer growth.
    pub const ALL: [Rule; 13] = [
        Rule::InvalidJump,
        Rule::StackUnderflow,
        Rule::StackOverflow,
        Rule::WriteAfterCall,
        Rule::UncheckedCall,
        Rule::TruncatedPush,
        Rule::Selfdestruct,
        Rule::Origin,
        Rule::UnreachableCode,
        Rule::SlotRepurposed,
        Rule::MappingBaseCollision,
        Rule::LinkPointerClobbered,
        Rule::LayoutUnknown,
    ];

    /// Stable kebab-case name (used in audit records and CLI output).
    pub fn name(self) -> &'static str {
        match self {
            Rule::InvalidJump => "invalid-jump",
            Rule::StackUnderflow => "stack-underflow",
            Rule::StackOverflow => "stack-overflow",
            Rule::WriteAfterCall => "write-after-call",
            Rule::UncheckedCall => "unchecked-call",
            Rule::TruncatedPush => "truncated-push",
            Rule::Selfdestruct => "selfdestruct",
            Rule::Origin => "origin",
            Rule::UnreachableCode => "unreachable-code",
            Rule::SlotRepurposed => "slot-repurposed",
            Rule::MappingBaseCollision => "mapping-base-collision",
            Rule::LinkPointerClobbered => "link-pointer-clobbered",
            Rule::LayoutUnknown => "layout-unknown",
        }
    }

    /// Intrinsic severity, independent of any policy.
    pub fn severity(self) -> Severity {
        match self {
            Rule::InvalidJump
            | Rule::StackUnderflow
            | Rule::StackOverflow
            | Rule::WriteAfterCall
            | Rule::SlotRepurposed
            | Rule::MappingBaseCollision
            | Rule::LinkPointerClobbered => Severity::Error,
            _ => Severity::Warning,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How bad a finding is on its own terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth knowing about; the contract still behaves as written.
    Warning,
    /// The contract can halt or be exploited on a reachable path.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One diagnostic produced by the lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Intrinsic severity ([`Rule::severity`]).
    pub severity: Severity,
    /// Offset of the offending instruction (or region start).
    pub pc: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(rule: Rule, pc: usize, message: String) -> Finding {
        Finding {
            severity: rule.severity(),
            pc,
            rule,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] at pc {}: {}",
            self.severity, self.rule, self.pc, self.message
        )
    }
}

/// What the policy does when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Reject the deployment.
    Deny,
    /// Record the finding, allow the deployment.
    Warn,
    /// Ignore the rule entirely.
    Allow,
}

/// Per-rule deny/warn/allow decisions enforced by the deployment gate.
///
/// The default denies the [`Severity::Error`] rules and warns on the
/// rest — every built-in template passes it, while invalid jumps, stack
/// hazards, reentrancy shapes and incompatible upgrades are kept out of
/// the version chain.
#[derive(Debug, Clone, Default)]
pub struct VettingPolicy {
    overrides: Vec<(Rule, Action)>,
}

impl VettingPolicy {
    /// Policy that records findings but denies nothing (audit-only mode).
    pub fn permissive() -> VettingPolicy {
        let mut p = VettingPolicy::default();
        for rule in Rule::ALL {
            p = p.with_action(rule, Action::Warn);
        }
        p
    }

    /// Override the action for one rule (last write wins).
    pub fn with_action(mut self, rule: Rule, action: Action) -> VettingPolicy {
        self.overrides.retain(|(r, _)| *r != rule);
        self.overrides.push((rule, action));
        self
    }

    /// The action this policy takes for `rule`.
    pub fn action(&self, rule: Rule) -> Action {
        self.overrides.iter().find(|(r, _)| *r == rule).map_or(
            match rule.severity() {
                Severity::Error => Action::Deny,
                Severity::Warning => Action::Warn,
            },
            |(_, a)| *a,
        )
    }
}

/// Analysis result for one bytecode blob.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by pc.
    pub findings: Vec<Finding>,
    /// Static lower bound on gas consumed by any run of this code that
    /// ends without an exceptional halt (see `absint`).
    pub gas_floor: u64,
    /// Number of basic blocks recovered.
    pub block_count: usize,
    /// Number of decoded instructions.
    pub instr_count: usize,
    reachable_pcs: Vec<bool>,
}

impl Report {
    /// True when `pc` starts a reachable instruction — the set the
    /// interpreter's executed pcs must be a subset of (soundness
    /// property (a)).
    pub fn is_reachable_pc(&self, pc: usize) -> bool {
        self.reachable_pcs.get(pc).copied().unwrap_or(false)
    }

    /// Findings for one rule.
    pub fn findings_for(&self, rule: Rule) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.rule == rule)
    }

    /// Findings the given policy denies.
    pub fn denied<'a>(&'a self, policy: &'a VettingPolicy) -> impl Iterator<Item = &'a Finding> {
        self.findings
            .iter()
            .filter(|f| policy.action(f.rule) == Action::Deny)
    }
}

/// Analyze a bytecode blob with the default lint set.
pub fn analyze(code: &[u8]) -> Report {
    analyze_with(code, LintOptions::default())
}

/// Analyze with explicit lint options.
pub fn analyze_with(code: &[u8], opts: LintOptions) -> Report {
    let cfg = Cfg::build(code);
    let analysis = absint::run(&cfg);
    let findings = lints::lint(&cfg, &analysis, opts);
    let mut reachable_pcs = vec![false; code.len()];
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if analysis.reachable(b) {
            for ins in &cfg.instrs[blk.instr_range()] {
                reachable_pcs[ins.pc] = true;
            }
        }
    }
    Report {
        findings,
        gas_floor: analysis.gas_floor,
        block_count: cfg.blocks.len(),
        instr_count: cfg.instrs.len(),
        reachable_pcs,
    }
}

/// Which blob a deployment finding came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The constructor wrapper executed once at deploy time.
    Init,
    /// The code installed at the contract address.
    Runtime,
    /// A cross-version comparison (the finding is about the pair, not
    /// one blob).
    Upgrade,
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Region::Init => "init",
            Region::Runtime => "runtime",
            Region::Upgrade => "upgrade",
        })
    }
}

/// Vetting result for a full deployment blob: the init wrapper (analyzed
/// without the unreachable lint — appended function bodies and the
/// runtime image are data from init's perspective) plus, when the
/// canonical deploy tail is found, the extracted runtime under the full
/// lint set.
#[derive(Debug)]
pub struct DeploymentVetting {
    /// Report over the init (deploy-transaction) code.
    pub init: Report,
    /// Report over the extracted runtime image, when recoverable.
    pub runtime: Option<Report>,
    /// Byte range of the runtime image inside the init blob.
    pub runtime_range: Option<std::ops::Range<usize>>,
}

impl DeploymentVetting {
    /// All findings with the region they came from, errors first.
    pub fn findings(&self) -> Vec<(Region, &Finding)> {
        let mut all: Vec<(Region, &Finding)> = self
            .init
            .findings
            .iter()
            .map(|f| (Region::Init, f))
            .chain(
                self.runtime
                    .iter()
                    .flat_map(|r| r.findings.iter().map(|f| (Region::Runtime, f))),
            )
            .collect();
        all.sort_by_key(|(region, f)| {
            (
                std::cmp::Reverse(f.severity),
                f.rule as u8,
                *region as u8,
                f.pc,
            )
        });
        all
    }

    /// Enforce a policy: `Err` carries every denied finding.
    pub fn enforce(&self, policy: &VettingPolicy) -> Result<(), VetError> {
        let denied: Vec<(Region, Finding)> = self
            .findings()
            .into_iter()
            .filter(|(_, f)| policy.action(f.rule) == Action::Deny)
            .map(|(region, f)| (region, f.clone()))
            .collect();
        if denied.is_empty() {
            Ok(())
        } else {
            Err(VetError { denied })
        }
    }
}

/// Vet a deployment blob (init code as submitted in a create
/// transaction, *before* constructor arguments are appended).
pub fn vet_deployment(init_code: &[u8]) -> DeploymentVetting {
    let init = analyze_with(init_code, LintOptions { unreachable: false });
    let runtime_range = extract_runtime(init_code);
    let runtime = runtime_range
        .clone()
        .map(|r| analyze_with(&init_code[r], LintOptions::default()));
    DeploymentVetting {
        init,
        runtime,
        runtime_range,
    }
}

/// Vetting rejected a deployment: the findings the policy denied.
#[derive(Debug, Clone)]
pub struct VetError {
    /// Denied findings with their region.
    pub denied: Vec<(Region, Finding)>,
}

impl fmt::Display for VetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vetting denied {} finding(s): ", self.denied.len())?;
        for (i, (region, finding)) in self.denied.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "[{region}] {finding}")?;
        }
        Ok(())
    }
}

impl std::error::Error for VetError {}

/// Vetting result for a version upgrade: the predecessor's recovered
/// layout, the successor's (when its runtime was recoverable), and the
/// compatibility findings between them.
#[derive(Debug, Clone)]
pub struct UpgradeVetting {
    /// Layout of the live predecessor's runtime.
    pub old_layout: Arc<StorageLayout>,
    /// Layout of the successor's runtime; `None` when runtime extraction
    /// failed (which itself yields a hard [`Rule::LayoutUnknown`]
    /// finding — extraction failure is never silently skipped).
    pub new_layout: Option<Arc<StorageLayout>>,
    /// Byte range of the successor's runtime inside its init blob, when
    /// it was extracted here rather than supplied directly.
    pub new_runtime_range: Option<std::ops::Range<usize>>,
    /// Compatibility findings, sorted errors-first.
    pub findings: Vec<Finding>,
}

impl UpgradeVetting {
    /// All findings with their region (always [`Region::Upgrade`]),
    /// matching [`DeploymentVetting::findings`]'s shape so callers can
    /// render both the same way.
    pub fn findings(&self) -> Vec<(Region, &Finding)> {
        self.findings.iter().map(|f| (Region::Upgrade, f)).collect()
    }

    /// Enforce a policy: `Err` carries every denied finding.
    pub fn enforce(&self, policy: &VettingPolicy) -> Result<(), VetError> {
        let denied: Vec<(Region, Finding)> = self
            .findings
            .iter()
            .filter(|f| policy.action(f.rule) == Action::Deny)
            .map(|f| (Region::Upgrade, f.clone()))
            .collect();
        if denied.is_empty() {
            Ok(())
        } else {
            Err(VetError { denied })
        }
    }
}

/// Vet an upgrade where the successor is still an init blob (the deploy
/// transaction's code, as `deploy_version`/`enact` see it). The
/// comparison must run runtime-against-runtime — init code writes
/// constructor state and would drown the diff — so the successor's
/// runtime image is extracted first; when extraction fails, layout
/// compatibility is unprovable and a [`Rule::LayoutUnknown`] finding is
/// emitted instead of silently skipping the check.
pub fn vet_upgrade(old_runtime: &[u8], new_init: &[u8]) -> UpgradeVetting {
    match extract_runtime(new_init) {
        Some(range) => {
            let mut vetting = vet_upgrade_runtime(old_runtime, &new_init[range.clone()]);
            vetting.new_runtime_range = Some(range);
            vetting
        }
        None => {
            let old_layout = recover_layout_cached(old_runtime);
            let findings = vec![Finding::new(
                Rule::LayoutUnknown,
                0,
                "successor runtime image not recoverable from init code; upgrade compatibility is unprovable".to_string(),
            )];
            UpgradeVetting {
                old_layout,
                new_layout: None,
                new_runtime_range: None,
                findings,
            }
        }
    }
}

/// Vet an upgrade where both sides are already runtime images (e.g. both
/// fetched from chain state).
pub fn vet_upgrade_runtime(old_runtime: &[u8], new_runtime: &[u8]) -> UpgradeVetting {
    let old_layout = recover_layout_cached(old_runtime);
    let new_layout = recover_layout_cached(new_runtime);
    let findings = compat::check_upgrade(&old_layout, &new_layout);
    UpgradeVetting {
        old_layout,
        new_layout: Some(new_layout),
        new_runtime_range: None,
        findings,
    }
}

// ---- content-addressed memoization ----
//
// The 16 template combos deploy byte-identical runtimes to many
// addresses, and the upgrade gate re-analyzes the same predecessor for
// every candidate successor, so vetting and layout recovery are keyed on
// code content. Same discipline as the compiler's analysis memo: hash
// for the bucket, byte-compare for the hit (a hash collision must never
// serve another blob's verdict), bounded size with wholesale eviction.

/// Cached blobs across both memos before they are cleared wholesale.
const MEMO_CAP: usize = 1024;

type MemoMap<T> = Mutex<BTreeMap<u64, Vec<(Arc<Vec<u8>>, Arc<T>)>>>;

/// FNV-1a; the byte-verified chain behind it makes collision quality a
/// throughput concern only.
fn content_key(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn memo_get_or_insert<T>(memo: &MemoMap<T>, code: &[u8], build: impl FnOnce() -> T) -> Arc<T> {
    let key = content_key(code);
    {
        let map = memo.lock().expect("analyzer memo poisoned");
        if let Some(chain) = map.get(&key) {
            if let Some((_, cached)) = chain.iter().find(|(bytes, _)| ***bytes == *code) {
                return Arc::clone(cached);
            }
        }
    }
    // Build outside the lock: analysis is the expensive part and two
    // racing builders of the same blob agree on the result anyway.
    let built = Arc::new(build());
    let mut map = memo.lock().expect("analyzer memo poisoned");
    if map.values().map(Vec::len).sum::<usize>() >= MEMO_CAP {
        map.clear();
    }
    let chain = map.entry(key).or_default();
    if let Some((_, cached)) = chain.iter().find(|(bytes, _)| ***bytes == *code) {
        return Arc::clone(cached);
    }
    chain.push((Arc::new(code.to_vec()), Arc::clone(&built)));
    built
}

static VET_MEMO: MemoMap<DeploymentVetting> = Mutex::new(BTreeMap::new());
static LAYOUT_MEMO: MemoMap<StorageLayout> = Mutex::new(BTreeMap::new());

/// [`vet_deployment`] behind the content-addressed memo. Identical init
/// blobs (the common case for template re-deploys) analyze once.
pub fn vet_deployment_cached(init_code: &[u8]) -> Arc<DeploymentVetting> {
    memo_get_or_insert(&VET_MEMO, init_code, || vet_deployment(init_code))
}

/// [`layout::recover_layout`] behind the content-addressed memo.
pub fn recover_layout_cached(code: &[u8]) -> Arc<StorageLayout> {
    memo_get_or_insert(&LAYOUT_MEMO, code, || layout::recover_layout(code))
}

#[cfg(test)]
mod memo_tests {
    use super::*;

    #[test]
    fn identical_bytes_share_one_analysis() {
        let code = [0x60, 0x2a, 0x60, 0x07, 0x55, 0x00]; // PUSH PUSH SSTORE STOP
        let a = recover_layout_cached(&code);
        let b = recover_layout_cached(&code);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn different_bytes_never_share() {
        let a = recover_layout_cached(&[0x60, 0x01, 0x60, 0x02, 0x55, 0x00]);
        let b = recover_layout_cached(&[0x60, 0x01, 0x60, 0x03, 0x55, 0x00]);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.slots.keys().next(), b.slots.keys().next());
    }
}
