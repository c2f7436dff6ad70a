//! `tenant_portal`: tenants load their dashboards over HTTP while a
//! share of them pay rent, closed loop.
//!
//! Two keep-alive connections, one thread each. Every battery is one
//! tenant's page load: `eth_call` summary getters, the lease's
//! `paidRent` logs over the whole history, the tenant's balance, a past
//! block, a past payment's receipt and the proof of the lease's
//! version-pointer slots — plus, one request in ten, a `payRent`
//! `eth_sendTransaction` mined by the 10 ms interval producer.

use crate::client::{self, Http};
use crate::util::{self, us_since, Metrics, Rng, Samples};
use crate::world::{self, Lease, Size, World};
use crate::{replay, Outcome};
use lsc_abi::json::{self, JsonValue};
use lsc_chain::{ChainConfig, ReadHandle};
use lsc_primitives::{Address, H256, U256};
use lsc_rpc::{MiningMode, RpcConfig, RpcServer};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub const THREADS: usize = 2;
pub const INTERVAL_MS: u64 = 10;
/// Batteries per client thread per second of `--seconds`. The run is
/// bounded by its battery count, not by time, so both sides of a
/// comparison serve the same requests and grow the same history; two
/// threads run about 650 batteries a second on the parent commit (2
/// cores, busy host) and about 1,400 on an idle one.
pub const BATTERIES_PER_THREAD_SECOND: f64 = 300.0;

/// Batteries each client thread runs in a run of `seconds`.
pub fn battery_count(seconds: f64) -> usize {
    ((seconds * BATTERIES_PER_THREAD_SECOND) as usize).max(1)
}

pub fn size(quick: bool) -> Size {
    crate::rent_roll::size(quick)
}

pub fn setup(size: Size, seed: u64) -> World {
    let node = world::open_node(None, ChainConfig::default(), size.accounts);
    world::build(
        node,
        world::Artifacts::compile(),
        size,
        &mut Rng::new(seed).fork(1),
    )
}

/// The request kinds of a dashboard battery.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    CallRent,
    CallState,
    CallLandlord,
    CallTenant,
    Logs,
    Balance,
    Block,
    Receipt,
    Proof,
    Pay,
}

impl Kind {
    pub const READS: [Kind; 9] = [
        Kind::CallRent,
        Kind::CallState,
        Kind::CallLandlord,
        Kind::CallTenant,
        Kind::Logs,
        Kind::Balance,
        Kind::Block,
        Kind::Receipt,
        Kind::Proof,
    ];

    pub fn method(self) -> &'static str {
        match self {
            Kind::CallRent | Kind::CallState | Kind::CallLandlord | Kind::CallTenant => "eth_call",
            Kind::Logs => "eth_getLogs",
            Kind::Balance => "eth_getBalance",
            Kind::Block => "eth_getBlockByNumber",
            Kind::Receipt => "eth_getTransactionReceipt",
            Kind::Proof => "eth_getProof",
            Kind::Pay => "eth_sendTransaction",
        }
    }
}

/// One generated request.
pub struct Req {
    pub kind: Kind,
    pub lease: usize,
    pub body: String,
}

/// Everything a battery generator needs from the world.
pub struct Inputs<'a> {
    pub leases: &'a [Lease],
    pub history: &'a [H256],
    pub tip: u64,
    pub paid_topic: H256,
}

fn call_params(lease: &Lease, name: &str) -> String {
    let data = lsc_abi::selector(&format!("{name}()"));
    format!(
        "[{{\"from\":\"{}\",\"to\":\"{}\",\"data\":\"0x{}\"}},\"latest\"]",
        lease.tenant,
        lease.address,
        lsc_primitives::hex::encode(data)
    )
}

/// The requests of one battery: nine reads in a seeded order with the
/// payment at a seeded position.
pub fn battery(inputs: &Inputs, rng: &mut Rng, id: &mut u64) -> Vec<Req> {
    let lease_ix = rng.below(inputs.leases.len());
    let lease = &inputs.leases[lease_ix];
    let mut kinds = Kind::READS.to_vec();
    rng.shuffle(&mut kinds);
    kinds.insert(rng.below(kinds.len() + 1), Kind::Pay);
    kinds
        .into_iter()
        .map(|kind| {
            *id += 1;
            let params = match kind {
                Kind::CallRent => call_params(lease, "rent"),
                Kind::CallState => call_params(lease, "state"),
                Kind::CallLandlord => call_params(lease, "landlord"),
                Kind::CallTenant => call_params(lease, "tenant"),
                Kind::Logs => format!(
                    "[{{\"address\":\"{}\",\"topics\":[\"{}\"],\"fromBlock\":\"0x0\",\"toBlock\":\"latest\"}}]",
                    lease.address, inputs.paid_topic
                ),
                Kind::Balance => format!("[\"{}\",\"latest\"]", lease.tenant),
                Kind::Block => format!("[\"0x{:x}\",false]", 1 + rng.below(inputs.tip as usize)),
                Kind::Receipt => format!(
                    "[\"{}\"]",
                    inputs.history[rng.below(inputs.history.len())]
                ),
                Kind::Proof => format!("[\"{}\",[\"0x0\",\"0x1\"],\"latest\"]", lease.address),
                Kind::Pay => {
                    let body = crate::rent_roll::send_body(*id, lease, 1 + rng.below(4) as u64);
                    return Req {
                        kind,
                        lease: lease_ix,
                        body,
                    };
                }
            };
            Req {
                kind,
                lease: lease_ix,
                body: client::request(*id, kind.method(), &params),
            }
        })
        .collect()
}

fn word_hex(word: [u8; 32]) -> String {
    format!("0x{}", lsc_primitives::hex::encode(word))
}

fn address_word(a: Address) -> String {
    let mut word = [0u8; 32];
    word[12..].copy_from_slice(a.as_bytes());
    word_hex(word)
}

/// The answers the constant getters must give.
pub fn expected_call(kind: Kind, lease: &Lease) -> Option<String> {
    Some(match kind {
        Kind::CallRent => word_hex(lease.rent.to_be_bytes()),
        Kind::CallState => word_hex(U256::from_u64(1).to_be_bytes()),
        Kind::CallLandlord => address_word(lease.landlord),
        Kind::CallTenant => address_word(lease.tenant),
        _ => return None,
    })
}

pub fn paid_topic() -> H256 {
    H256::from(lsc_primitives::keccak256(b"paidRent()"))
}

/// What one client thread measured.
#[derive(Default)]
struct ThreadResult {
    /// Latency of every battery
    batteries: Samples,
    by_method: HashMap<&'static str, Samples>,
    all_us: Samples,
    failed: u64,
    attempted: u64,
    notes: Vec<String>,
    /// (hash, send time, lease) of every acked payment
    writes: Vec<(H256, Instant, usize)>,
    proofs: Vec<(usize, String)>,
    balance_checked: u64,
}

fn client_thread(
    addr: std::net::SocketAddr,
    inputs: &Inputs,
    reads: &ReadHandle,
    seed_rng: Rng,
    batteries: usize,
) -> ThreadResult {
    let mut out = ThreadResult::default();
    let mut http = Http::connect(addr).expect("connect");
    let mut rng = seed_rng;
    let mut id = 0u64;
    for _ in 0..batteries {
        let reqs = battery(inputs, &mut rng, &mut id);
        let battery_start = Instant::now();
        for req in &reqs {
            let lease = &inputs.leases[req.lease];
            let tip_before = reads.block_number();
            let sent = Instant::now();
            let response = http.call(&req.body);
            let us = us_since(sent);
            out.attempted += 1;
            out.all_us.push(us);
            out.by_method.entry(req.kind.method()).or_default().push(us);
            let body = match response {
                Ok(body) if client::error_of(&body).is_none() => body,
                Ok(body) => {
                    out.failed += 1;
                    if out.notes.len() < 5 {
                        out.notes.push(format!("{:?} failed: {body}", req.kind));
                    }
                    continue;
                }
                Err(e) => {
                    // The connection is gone; nothing after this can run.
                    out.failed += 1;
                    out.notes
                        .push(format!("{:?} transport error: {e}", req.kind));
                    return out;
                }
            };
            let ok = match req.kind {
                Kind::CallRent | Kind::CallState | Kind::CallLandlord | Kind::CallTenant => {
                    client::string_result(&body) == expected_call(req.kind, lease).as_deref()
                }
                Kind::Balance => {
                    // Compare against the in-process snapshot when no
                    // block was published while the request ran.
                    let tip_after = reads.block_number();
                    if tip_before == tip_after {
                        out.balance_checked += 1;
                        let want = reads.balance(lease.tenant);
                        client::string_result(&body)
                            .and_then(|h| U256::from_hex_str(h.trim_start_matches("0x")).ok())
                            == Some(want)
                    } else {
                        true
                    }
                }
                Kind::Logs => body.contains("\"result\":["),
                Kind::Block => body.contains("\"result\":{"),
                Kind::Receipt => body.contains("\"status\":\"0x1\""),
                Kind::Proof => {
                    out.proofs.push((req.lease, body.clone()));
                    true
                }
                Kind::Pay => match client::string_result(&body).and_then(|h| {
                    lsc_web3::wire::parse_h256(&JsonValue::String(h.into()), "h").ok()
                }) {
                    Some(hash) => {
                        out.writes.push((hash, sent, req.lease));
                        true
                    }
                    None => false,
                },
            };
            if !ok {
                out.failed += 1;
                if out.notes.len() < 5 {
                    out.notes
                        .push(format!("{:?} answered wrongly: {body}", req.kind));
                }
            }
        }
        out.batteries.push(us_since(battery_start) / 1e3);
    }
    out
}

/// Watch publications in process and note when each transaction's
/// receipt became readable.
fn watch(reads: &ReadHandle, stop: &AtomicBool) -> HashMap<H256, Instant> {
    let mut seen = HashMap::new();
    let mut seq = reads.publication_seq();
    let mut tip = reads.block_number();
    while !stop.load(Ordering::SeqCst) {
        let (next, snap) = reads.wait_for_publication(seq, Duration::from_millis(50));
        seq = next;
        let now = Instant::now();
        let new_tip = snap.block_number();
        for number in tip + 1..=new_tip {
            if let Some(block) = snap.block(number) {
                for hash in &block.tx_hashes {
                    seen.insert(*hash, now);
                }
            }
        }
        tip = tip.max(new_tip);
    }
    seen
}

#[allow(clippy::too_many_lines)]
pub fn run(seed: u64, seconds: f64, quick: bool, trace: bool) -> Outcome {
    let size = size(quick);
    let setups = if quick { 1 } else { 2 };
    let mut setup_s = Samples::default();
    let mut world = None;
    for _ in 0..setups {
        drop(world.take());
        let t = Instant::now();
        world = Some(setup(size, seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let world = world.expect("one setup");
    let tip0 = world.web3.block_number();
    let topic = paid_topic();
    let inputs = Inputs {
        leases: &world.leases,
        history: &world.history,
        tip: tip0,
        paid_topic: topic,
    };
    if trace {
        return replay::tenant_portal(&world, &inputs, seed, seconds, &setup_s);
    }

    let server = RpcServer::bind(
        world.web3.clone(),
        "127.0.0.1:0",
        RpcConfig {
            workers: THREADS,
            mining: MiningMode::Interval(Duration::from_millis(INTERVAL_MS)),
            ..RpcConfig::default()
        },
    )
    .expect("bind server");
    let addr = server.local_addr();
    let reads = world.web3.read_handle();
    let stop = AtomicBool::new(false);
    let cpu0 = util::cpu_ms();
    let start = Instant::now();
    let per_thread = battery_count(seconds);
    let root = Rng::new(seed);
    let (results, seen, phase) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| watch(&reads, &stop));
        let clients: Vec<_> = (0..THREADS)
            .map(|t| {
                let inputs = &inputs;
                let reads = &reads;
                let rng = root.fork(10 + t as u64);
                scope.spawn(move || client_thread(addr, inputs, reads, rng, per_thread))
            })
            .collect();
        let results: Vec<ThreadResult> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect();
        let phase = start.elapsed().as_secs_f64();
        let drain = Instant::now() + Duration::from_secs(20);
        while reads.pending_count() > 0 && Instant::now() < drain {
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(3 * INTERVAL_MS));
        stop.store(true, Ordering::SeqCst);
        (results, watcher.join().expect("watcher"), phase)
    });
    let cpu1 = util::cpu_ms();
    server.shutdown();

    let offset = |at: Instant| at.saturating_duration_since(start).as_secs_f64();
    let mut batteries = Samples::default();
    let mut all_us = Samples::default();
    let mut by_method: HashMap<&'static str, Samples> = HashMap::new();
    let (mut attempted, mut failed, mut balance_checked) = (0, 0, 0);
    let mut notes = Vec::new();
    let mut commit_ms = Samples::default();
    // Payments committed before the closed-loop phase ended.
    let mut committed_in_phase = 0u64;
    let mut writes = Vec::new();
    let mut proofs = Vec::new();
    for r in results {
        batteries.extend(&r.batteries);
        all_us.extend(&r.all_us);
        for (m, s) in r.by_method {
            by_method.entry(m).or_default().extend(&s);
        }
        attempted += r.attempted;
        failed += r.failed;
        balance_checked += r.balance_checked;
        notes.extend(r.notes);
        writes.extend(r.writes);
        proofs.extend(r.proofs);
    }
    let snap = world.web3.read_snapshot();
    let mut uncommitted = 0;
    for (hash, sent, _) in &writes {
        match (seen.get(hash), snap.receipt(*hash)) {
            (Some(at), Some(r)) if r.status == 1 => {
                let ms = at.saturating_duration_since(*sent).as_secs_f64() * 1e3;
                commit_ms.push(ms);
                if offset(*at) < phase {
                    committed_in_phase += 1;
                }
            }
            _ => uncommitted += 1,
        }
    }
    if uncommitted > 0 {
        failed += uncommitted;
        notes.push(format!(
            "{uncommitted} payments never committed with status 1"
        ));
    }

    // Every proof verifies offline against the root of a sealed header.
    let roots: HashSet<H256> = (0..=snap.block_number())
        .filter_map(|n| snap.block(n).map(|b| b.state_root))
        .collect();
    let mut bad_proofs = 0usize;
    for (lease, body) in &proofs {
        let ok = json::parse(body).ok().and_then(|doc| {
            let result = doc.get("result")?.clone();
            let root = lsc_web3::wire::parse_h256(result.get("stateRoot")?, "root").ok()?;
            if !roots.contains(&root) {
                return None;
            }
            let proof = lsc_web3::verify_proof_response(&result, root).ok()?;
            (proof.address == world.leases[*lease].address).then_some(())
        });
        if ok.is_none() {
            bad_proofs += 1;
        }
    }
    if bad_proofs > 0 {
        failed += bad_proofs as u64;
        notes.push(format!("{bad_proofs} proofs failed offline verification"));
    }

    let mut m = Metrics::default();
    m.set("setup_s", setup_s.median(), "s");
    m.set("commit_p50_ms", commit_ms.median(), "ms");
    m.set("commit_p99_ms", commit_ms.pct(0.99), "ms");
    m.set("commit_tput_tx_s", committed_in_phase as f64 / phase, "1/s");
    m.set("op_p50_ms", batteries.median(), "ms");
    m.set("op_p99_ms", batteries.pct(0.99), "ms");
    m.set("req_p50_us", all_us.median(), "us");
    m.set("req_p99_us", all_us.pct(0.99), "us");
    m.set("req_tput_per_s", all_us.len() as f64 / phase, "1/s");
    m.set(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    m.set("peak_rss_mb", util::peak_rss_mb(), "MiB");
    m.set(
        "proc.cpu_ms_per_op",
        (cpu1 - cpu0) / attempted.max(1) as f64,
        "ms",
    );
    let mut methods: Vec<_> = by_method.into_iter().collect();
    methods.sort_by_key(|(m, _)| *m);
    for (method, s) in &methods {
        m.set(format!("rpc.rtt_us.{method}"), s.median(), "us");
    }
    Outcome {
        attempted,
        failed,
        valid: true,
        notes,
        metrics: m,
        detail: vec![
            ("setup_s_samples", util::num(setup_s.len() as f64)),
            ("batteries_ms", batteries.summary()),
            ("load_s", util::num(phase)),
            ("requests_us", all_us.summary()),
            ("commit_ms", commit_ms.summary()),
            ("balance_answers_checked", util::num(balance_checked as f64)),
            (
                "proofs_verified",
                util::num((proofs.len() - bad_proofs) as f64),
            ),
            ("client_threads", util::num(THREADS as f64)),
            ("history_blocks", util::num(tip0 as f64)),
            (
                "rtt_by_method",
                util::obj(methods.iter().map(|(m, s)| (*m, s.summary()))),
            ),
        ],
        size: Some(size),
    }
}
