//! `lease_amendments`: the paper's Fig. 4 and Fig. 11 flow, in process
//! through the business tier on an instant-mining in-memory node, one
//! client, closed loop.
//!
//! Each lease runs back to back: deploy v1, the tenant confirms, twelve
//! rents, `deploy_version` to `RentalAgreement` (vetting, layout gate,
//! pointer links), the tenant confirms v2, two rents, the landlord
//! terminates. Every transaction is its own block, so history grows by
//! one block per operation over the run.

use crate::trace;
use crate::util::{self, ms_since, Metrics, Rng, Samples};
use crate::world::{self, Artifacts};
use crate::Outcome;
use lsc_chain::LocalNode;
use lsc_core::{ContractManager, CoreResult, Rental, RentalState};
use lsc_ipfs::IpfsNode;
use lsc_primitives::{Address, U256};
use lsc_web3::Web3;
use std::time::Instant;

pub const RENTS_V1: usize = 12;
pub const RENTS_V2: usize = 2;
/// Leases per second of `--seconds`. The run is bounded by its lease
/// count, not by time, so both sides of a comparison build the same
/// history: 21 blocks per lease, 10,500 blocks at 10 s, which take 5 to
/// 7 s on the parent commit (2 cores). Per-block cost grows with the
/// history, so twice the leases take over four times as long.
pub const LEASES_PER_SECOND: f64 = 50.0;

/// Setups per run; one takes a few milliseconds, so `setup_s` is the
/// median of many.
pub const SETUPS: usize = 101;

/// The number of leases a run of `seconds` goes through.
pub fn lease_count(seconds: f64) -> u64 {
    ((seconds * LEASES_PER_SECOND) as u64).max(1)
}

pub struct Setup {
    pub web3: Web3,
    pub manager: ContractManager,
    pub upload_base: u64,
    pub upload_v2: u64,
    pub landlords: Vec<Address>,
    pub tenants: Vec<Address>,
}

pub fn accounts(quick: bool) -> usize {
    if quick {
        16
    } else {
        64
    }
}

pub fn setup(accounts: usize, seed: u64) -> Setup {
    let web3 = Web3::new(LocalNode::new(accounts));
    let manager = ContractManager::new(web3.clone(), IpfsNode::new());
    let artifacts = Artifacts::compile();
    let upload_base = manager
        .upload_artifact("BaseRental", &artifacts.base)
        .expect("upload base");
    let upload_v2 = manager
        .upload_artifact("RentalAgreement", &artifacts.v2)
        .expect("upload v2");
    let mut people = web3.accounts().to_vec();
    Rng::new(seed).fork(1).shuffle(&mut people);
    let tenants = people.split_off(8);
    Setup {
        web3,
        manager,
        upload_base,
        upload_v2,
        landlords: people,
        tenants,
    }
}

/// Latencies of one run of the flow.
#[derive(Default)]
pub struct Flow {
    /// Latency of every operation
    pub ops: Samples,
    /// Latency of every rent payment
    pub rents: Samples,
    /// Blocks sealed by the operations
    pub sealed: u64,
    pub amends: Samples,
    pub leases: u64,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

fn timed<T>(
    flow: &mut Flow,
    id: &mut u64,
    web3: &Web3,
    name: &'static str,
    f: impl FnOnce() -> CoreResult<T>,
) -> (f64, Option<T>) {
    *id += 1;
    flow.attempted += 1;
    let tip = web3.block_number();
    let start = Instant::now();
    let out = trace::request(*id, "op", || trace::span(name, f));
    let ms = ms_since(start);
    flow.ops.push(ms);
    flow.sealed += web3.block_number() - tip;
    if name == "core.pay_rent" {
        flow.rents.push(ms);
    }
    match out {
        Ok(v) => (ms, Some(v)),
        Err(e) => {
            flow.failed += 1;
            if flow.notes.len() < 5 {
                flow.notes.push(format!("{name} failed: {e}"));
            }
            (ms, None)
        }
    }
}

/// Run one lease through the whole flow. Returns `None` when an
/// operation failed (the rest of the lease cannot run).
pub fn lease(s: &Setup, rng: &mut Rng, flow: &mut Flow, id: &mut u64) -> Option<()> {
    let landlord = s.landlords[rng.below(s.landlords.len())];
    let tenant = s.tenants[rng.below(s.tenants.len())];
    let rent = U256::from_u64(1_000_000_000_000_000 * (1 + rng.below(9) as u64));
    let house = format!("{:05}-{}", 10_000 + rng.below(90_000), 1 + rng.below(200));

    let web3 = &s.web3;
    let args = world::base_args(rent, &house);
    let (_, v1) = timed(flow, id, web3, "core.deploy", || {
        s.manager.deploy(landlord, s.upload_base, &args, U256::ZERO)
    });
    let v1 = Rental::at(v1?);
    timed(flow, id, web3, "core.confirm", || {
        v1.confirm_agreement(tenant)
    })
    .1?;
    for _ in 0..RENTS_V1 {
        timed(flow, id, web3, "core.pay_rent", || v1.pay_rent(tenant)).1?;
    }
    let args = world::v2_args(rent, &house);
    let (ms, v2) = timed(flow, id, web3, "core.deploy_version", || {
        s.manager
            .deploy_version(landlord, s.upload_v2, &args, U256::ZERO, v1.address(), &[])
    });
    let v2 = Rental::at(v2?);
    flow.amends.push(ms);
    timed(flow, id, web3, "core.confirm", || {
        v2.confirm_agreement(tenant)
    })
    .1?;
    for _ in 0..RENTS_V2 {
        timed(flow, id, web3, "core.pay_rent", || v2.pay_rent(tenant)).1?;
    }
    timed(flow, id, web3, "core.terminate", || v2.terminate(landlord)).1?;
    s.manager.mark_terminated(v2.address());

    // Output checks: the evidence line verifies and the lease ended.
    flow.attempted += 2;
    match s.manager.verify_chain(v2.address()) {
        Ok(line) if line == vec![v1.address(), v2.address()] => {}
        other => {
            flow.failed += 1;
            flow.notes.push(format!(
                "evidence line of {} wrong: {other:?}",
                v2.address()
            ));
        }
    }
    match v2.state() {
        Ok(RentalState::Terminated) => {}
        other => {
            flow.failed += 1;
            flow.notes
                .push(format!("lease {} ends {other:?}", v2.address()));
        }
    }
    flow.leases += 1;
    Some(())
}

pub fn run(seed: u64, seconds: f64, quick: bool, trace_run: bool) -> Outcome {
    let accounts = accounts(quick);
    // Setup takes milliseconds here, so take the median of many.
    let mut setup_s = Samples::default();
    let mut s = None;
    for _ in 0..SETUPS {
        drop(s.take());
        let t = Instant::now();
        s = Some(setup(accounts, seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let s = s.expect("one setup");
    if trace_run {
        return crate::replay::lease_amendments(&s, seed, seconds, &setup_s);
    }

    let mut rng = Rng::new(seed).fork(3);
    let mut flow = Flow::default();
    let tip0 = s.web3.block_number();
    let cpu0 = util::cpu_ms();
    let start = Instant::now();
    let mut id = 0;
    for _ in 0..lease_count(seconds) {
        if lease(&s, &mut rng, &mut flow, &mut id).is_none() {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let cpu1 = util::cpu_ms();
    let txs = s.web3.block_number() - tip0;

    let (ops, rents) = (&flow.ops, &flow.rents);

    let mut m = Metrics::default();
    m.set("setup_s", setup_s.median(), "s");
    m.set("commit_p50_ms", rents.median(), "ms");
    m.set("commit_p99_ms", rents.pct(0.99), "ms");
    m.set("commit_tput_tx_s", flow.sealed as f64 / elapsed, "1/s");
    m.set("op_p50_ms", ops.median(), "ms");
    m.set("op_p99_ms", ops.pct(0.99), "ms");
    m.set("amend_p50_ms", flow.amends.median(), "ms");
    m.set(
        "error_rate",
        flow.failed as f64 / flow.attempted.max(1) as f64,
        "ratio",
    );
    m.set("peak_rss_mb", util::peak_rss_mb(), "MiB");
    m.set(
        "proc.cpu_ms_per_op",
        (cpu1 - cpu0) / flow.ops.len().max(1) as f64,
        "ms",
    );
    let deciles = decile_p50s(ops);
    Outcome {
        attempted: flow.attempted,
        failed: flow.failed,
        valid: true,
        notes: flow.notes,
        metrics: m,
        detail: vec![
            ("setup_s_samples", util::num(setup_s.len() as f64)),
            ("leases", util::num(flow.leases as f64)),
            ("load_s", util::num(elapsed)),
            ("blocks_at_end", util::num(s.web3.block_number() as f64)),
            ("transactions", util::num(txs as f64)),
            ("ops_ms", ops.summary()),
            ("rents_ms", rents.summary()),
            ("amends_ms", flow.amends.summary()),
            (
                "op_p50_ms_by_decile",
                lsc_abi::json::JsonValue::Array(deciles.into_iter().map(util::num).collect()),
            ),
            ("accounts", util::num(accounts as f64)),
        ],
        size: None,
    }
}

/// Median op latency in each tenth of the run, in order: how per-op
/// cost grows with history.
pub fn decile_p50s(ops: &Samples) -> Vec<f64> {
    let values = ops.values();
    let n = values.len();
    (0..10)
        .map(|d| {
            values[d * n / 10..(d + 1) * n / 10]
                .iter()
                .copied()
                .collect::<Samples>()
                .median()
        })
        .collect()
}
