//! `rent_roll`: open-loop rent payments through JSON-RPC on a durable
//! node, then a saturation phase, then a crash and recovery.
//!
//! One JSON-lines connection carries a `newHeads` subscription. The
//! sender thread writes `payRent` transactions on a fixed schedule; the
//! reader thread takes the acks and the pushes. A payment commits when
//! the push whose `transactions` list holds its hash arrives: that is
//! the moment its receipt becomes readable.

use crate::client::{self, Lines};
use crate::util::{self, Metrics, Rng, Samples, ScratchDir};
use crate::world::{self, Lease, Size, World};
use crate::{replay, Outcome};
use lsc_abi::json::JsonValue;
use lsc_chain::{ChainConfig, Faults, LocalNode};
use lsc_primitives::{Address, U256};
use lsc_rpc::{MiningMode, RpcConfig, RpcServer};
use lsc_web3::Web3;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Offered payment rate of the fixed-rate phase (tx/s), a fifth to a
/// seventh of the saturation throughput.
pub const RATE: f64 = 400.0;
/// Commit-latency limit on p99 for the fixed-rate phase (ms); the run
/// record says whether it was met.
pub const LIMIT_P99_MS: f64 = 250.0;
/// Producer interval.
pub const INTERVAL_MS: u64 = 10;
/// Payments kept outstanding in the saturation phase.
pub const WINDOW: u64 = 1_024;
/// Payments of the saturation phase: a fixed count, not a fixed time,
/// so the log holds the same bytes at every point of the load. Long
/// enough (11–21 s) that the host's second-to-second speed swings
/// average out.
pub const SATURATION: usize = 30_000;
/// How often the client threads wake in the saturation phase. The
/// window holds about 400 ms of work, so the client's reaction time does
/// not limit the node, and fewer client wakeups leave the 2 cores to the
/// node.
pub const SATURATION_POLL: Duration = Duration::from_millis(5);
/// Payments that follow the saturation phase under the same window; the
/// node's one auto-compaction of the load falls among them.
pub const COMPACTION_PHASE: usize = 4_000;
/// The node compacts its log once it spans this many segments (256 KiB
/// each) past the newest snapshot. Setup ends with a compaction; at
/// about 233 log bytes per payment the 4,000 payments of a 10 s
/// fixed-rate phase and the saturation phase fill about 30.2 segments,
/// so the compaction comes about 2,000 payments into the compaction
/// phase.
pub const AUTO_COMPACT_SEGMENTS: u64 = 32;

pub fn size(quick: bool) -> Size {
    if quick {
        Size {
            accounts: 500,
            landlords: 8,
            leases_per_landlord: 4,
            history_receipts: 1_000,
        }
    } else {
        Size {
            accounts: 10_000,
            landlords: 8,
            leases_per_landlord: 32,
            history_receipts: 40_000,
        }
    }
}

fn config() -> ChainConfig {
    ChainConfig {
        auto_compact_segments: Some(AUTO_COMPACT_SEGMENTS),
        ..ChainConfig::default()
    }
}

/// Build the durable world and compact once, so every load phase starts
/// at the same point of the compaction cycle.
pub fn setup(dir: &Path, size: Size, seed: u64) -> World {
    let node = world::open_node(Some(dir), config(), size.accounts);
    let world = world::build(
        node,
        world::Artifacts::compile(),
        size,
        &mut Rng::new(seed).fork(1),
    );
    world
        .web3
        .with_node(LocalNode::compact)
        .expect("compact after setup");
    world
}

/// One scheduled payment.
pub struct Payment {
    pub lease: usize,
    pub gwei: u64,
}

/// The generated load: lease choice and bid of every payment.
pub fn payments(n: usize, leases: usize, rng: &mut Rng) -> Vec<Payment> {
    (0..n)
        .map(|_| Payment {
            lease: rng.below(leases),
            gwei: 1 + rng.below(4) as u64,
        })
        .collect()
}

pub fn send_body(id: u64, lease: &Lease, gwei: u64) -> String {
    client::request(
        id,
        "eth_sendTransaction",
        &format!(
            "[{{\"from\":\"{}\",\"to\":\"{}\",\"value\":\"0x{}\",\"data\":\"0x{}\",\"gas\":\"0x{:x}\",\"gasPrice\":\"0x{:x}\"}}]",
            lease.tenant,
            lease.address,
            hex_u256(lease.rent),
            lsc_primitives::hex::encode(pay_selector()),
            world::PAY_GAS,
            gwei * 1_000_000_000,
        ),
    )
}

fn hex_u256(value: U256) -> String {
    let text = lsc_primitives::hex::encode(value.to_be_bytes());
    let trimmed = text.trim_start_matches('0');
    if trimmed.is_empty() {
        "0".into()
    } else {
        trimmed.into()
    }
}

pub fn pay_selector() -> [u8; 4] {
    lsc_abi::selector("payRent()")
}

/// What the reader thread saw.
#[derive(Default)]
struct Seen {
    /// id → (hash, ack time)
    acks: HashMap<u64, (String, Instant)>,
    /// id → error body
    errors: HashMap<u64, String>,
    /// hash → (first push arrival, number of pushes holding it)
    pushed: HashMap<String, (Instant, u32)>,
    /// (arrival, tx count) of every push
    pushes: Vec<(Instant, usize)>,
}

struct Shared {
    committed: AtomicU64,
    stop: AtomicBool,
    /// Set once the saturation phase starts: the reader then drains the
    /// socket every [`SATURATION_POLL`] instead of waking for every line.
    saturating: AtomicBool,
}

fn read_loop(mut lines: Lines, shared: &Shared) -> Seen {
    let mut seen = Seen::default();
    let mut pending_ids: HashMap<String, u64> = HashMap::new();
    let mut buf = Vec::new();
    loop {
        if lines.reader.buffer().is_empty() && shared.saturating.load(Ordering::Relaxed) {
            std::thread::sleep(SATURATION_POLL);
        }
        match lines.reader.read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) if buf.last() == Some(&b'\n') => {}
            Ok(_) => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        let now = Instant::now();
        let line = String::from_utf8_lossy(&buf).into_owned();
        buf.clear();
        if line.contains("\"method\":\"eth_subscription\"") {
            let hashes = client::push_hashes(&line);
            seen.pushes.push((now, hashes.len()));
            for hash in hashes {
                let entry = seen.pushed.entry(hash.to_string()).or_insert((now, 0));
                entry.1 += 1;
                if entry.1 == 1 && pending_ids.remove(hash).is_some() {
                    shared.committed.fetch_add(1, Ordering::SeqCst);
                }
            }
            continue;
        }
        let Some(id) = client::id_of(&line) else {
            continue;
        };
        if client::error_of(&line).is_some() {
            seen.errors.insert(id, line);
            continue;
        }
        let Some(hash) = client::string_result(&line) else {
            seen.errors.insert(id, line);
            continue;
        };
        if seen.pushed.contains_key(hash) {
            shared.committed.fetch_add(1, Ordering::SeqCst);
        } else {
            pending_ids.insert(hash.to_string(), id);
        }
        seen.acks.insert(id, (hash.to_string(), now));
    }
    seen
}

/// What the sender thread did.
struct Sent {
    /// id → (scheduled, actual send) for every payment written
    times: Vec<(Instant, Instant)>,
    /// Ids below this are the fixed-rate phase; the rest saturation.
    fixed: usize,
    late_ms: Samples,
    backlog_max: u64,
    /// (offset into the fixed phase in s, backlog) samples
    backlog: Vec<(f64, u64)>,
    sat_start: Instant,
}

fn write_batch(writer: &mut TcpStream, batch: &str) {
    writer.write_all(batch.as_bytes()).expect("send payments");
}

/// The fixed-rate phase first: `bodies[..fixed]` on a schedule of
/// `RATE` per second. Once all of them are committed, the saturation
/// phase: the rest of `bodies` with `WINDOW` of them kept outstanding.
fn send_loop(mut writer: TcpStream, bodies: &[String], fixed: usize, shared: &Shared) -> Sent {
    let mut times = Vec::with_capacity(bodies.len());
    let mut batch = String::new();
    let start = Instant::now() + Duration::from_millis(20);
    let mut late_ms = Samples::default();
    let mut backlog = Vec::new();
    let mut backlog_max = 0;
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / RATE);
    let mut i = 0;
    while i < fixed {
        let now = Instant::now();
        if due(i) > now {
            std::thread::sleep(due(i) - now);
            continue;
        }
        // Everything due by now goes out in one write.
        batch.clear();
        let sent_at = Instant::now();
        while i < fixed && due(i) <= sent_at {
            batch.push_str(&bodies[i]);
            batch.push('\n');
            times.push((due(i), sent_at));
            late_ms.push((sent_at - due(i)).as_secs_f64() * 1e3);
            i += 1;
        }
        write_batch(&mut writer, &batch);
        let outstanding = i as u64 - shared.committed.load(Ordering::SeqCst);
        backlog_max = backlog_max.max(outstanding);
        backlog.push(((sent_at - start).as_secs_f64(), outstanding));
    }
    let drain = Instant::now() + Duration::from_secs(30);
    while shared.committed.load(Ordering::SeqCst) < fixed as u64 && Instant::now() < drain {
        std::thread::sleep(Duration::from_millis(1));
    }

    let sat_start = Instant::now();
    shared.saturating.store(true, Ordering::Relaxed);
    while i < bodies.len() {
        let outstanding = (i as u64).saturating_sub(shared.committed.load(Ordering::SeqCst));
        if outstanding >= WINDOW {
            std::thread::sleep(SATURATION_POLL);
            continue;
        }
        let end = (i + (WINDOW - outstanding) as usize).min(bodies.len());
        batch.clear();
        let now = Instant::now();
        for body in &bodies[i..end] {
            batch.push_str(body);
            batch.push('\n');
            times.push((now, now));
        }
        write_batch(&mut writer, &batch);
        i = end;
    }
    Sent {
        times,
        fixed,
        late_ms,
        backlog_max,
        backlog,
        sat_start,
    }
}

struct PreState {
    paid: Vec<u64>,
    landlord_balance: HashMap<Address, U256>,
}

fn pre_state(world: &World) -> PreState {
    PreState {
        paid: world
            .leases
            .iter()
            .map(|l| world::paid_count(&world.web3, l.address))
            .collect(),
        landlord_balance: world
            .landlords
            .iter()
            .map(|a| (*a, world.web3.balance(*a)))
            .collect(),
    }
}

#[allow(clippy::too_many_lines)]
pub fn run(seed: u64, seconds: f64, quick: bool, trace: bool) -> Outcome {
    let size = size(quick);
    let scratch = ScratchDir::new("rent_roll");
    // Set up twice and keep the second world; report the median.
    let setups = if quick { 1 } else { 2 };
    let mut setup_s = Samples::default();
    let mut world = None;
    let mut dir = scratch.0.join("node");
    for k in 0..setups {
        drop(world.take());
        let _ = std::fs::remove_dir_all(&dir);
        dir = scratch.0.join(format!("node-{k}"));
        let t = Instant::now();
        world = Some(setup(&dir, size, seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let world = world.expect("at least one setup");

    let (saturation, compaction) = if quick {
        (1_000, 500)
    } else {
        (SATURATION, COMPACTION_PHASE)
    };
    // The fixed-rate phase is scheduled over `seconds`; the phases
    // after it are bounded by their payment counts.
    let fixed = (RATE * seconds) as usize;
    let plan = payments(
        fixed + saturation + compaction,
        world.leases.len(),
        &mut Rng::new(seed).fork(2),
    );
    let bodies: Vec<String> = plan
        .iter()
        .enumerate()
        .map(|(i, p)| send_body(i as u64, &world.leases[p.lease], p.gwei))
        .collect();

    if trace {
        return replay::rent_roll(world, &bodies[..fixed], seed, &setup_s);
    }

    let pre = pre_state(&world);
    let history_blocks = world.web3.read_snapshot().block_number();
    let chain_txs_before = count_chain_txs(&world.web3);
    let server = RpcServer::bind(
        world.web3.clone(),
        "127.0.0.1:0",
        RpcConfig {
            workers: 1,
            mining: MiningMode::Interval(Duration::from_millis(INTERVAL_MS)),
            ..RpcConfig::default()
        },
    )
    .expect("bind server");
    let mut lines = Lines::connect(server.local_addr()).expect("connect");
    lines
        .writer
        .write_all(
            format!(
                "{}\n",
                client::request(0, "eth_subscribe", "[\"newHeads\"]")
            )
            .as_bytes(),
        )
        .expect("subscribe");
    let mut first = String::new();
    loop {
        match lines.reader.read_line(&mut first) {
            Ok(_) if first.ends_with('\n') => break,
            Ok(0) => panic!("server closed the subscription connection"),
            _ => {}
        }
    }
    assert!(
        client::string_result(&first).is_some(),
        "subscribe failed: {first}"
    );

    let shared = Shared {
        committed: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        saturating: AtomicBool::new(false),
    };
    let (io0, cpu0) = (util::io_counters(), util::cpu_ms());
    let load_start = Instant::now();
    let writer = lines.writer.try_clone().expect("clone writer");
    let (sent, seen) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_loop(lines, &shared));
        let sent = send_loop(writer, &bodies, fixed, &shared);
        // Drain: wait until every acked payment is committed.
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline
            && shared.committed.load(Ordering::SeqCst) < sent.times.len() as u64
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(50));
        shared.stop.store(true, Ordering::SeqCst);
        let seen = reader.join().expect("reader thread");
        (sent, seen)
    });
    let load_secs = load_start.elapsed().as_secs_f64();
    let (io1, cpu1) = (util::io_counters(), util::cpu_ms());
    server.shutdown();

    // ---- latencies --------------------------------------------------
    let mut commit_ms = Samples::default();
    let mut ack_ms = Samples::default();
    let mut ack_to_push = Samples::default();
    let mut failed = 0u64;
    let mut shed = 0u64;
    let mut unmatched = 0u64;
    let mut multi_push = 0u64;
    let mut committed_hashes = Vec::new();
    let mut sat_end = sent.sat_start;
    let mut load_end = sent.sat_start;
    let mut sat_pushed = Vec::new();
    let mut sat_commits = 0u64;
    for (id, (due, _)) in sent.times.iter().enumerate() {
        let id = id as u64;
        if let Some(err) = seen.errors.get(&id) {
            failed += 1;
            if err.contains("-32005") {
                shed += 1;
            }
            continue;
        }
        let Some((hash, acked)) = seen.acks.get(&id) else {
            failed += 1;
            unmatched += 1;
            continue;
        };
        let Some((pushed, count)) = seen.pushed.get(hash) else {
            failed += 1;
            unmatched += 1;
            continue;
        };
        if *count != 1 {
            multi_push += 1;
            failed += 1;
        }
        committed_hashes.push((hash.clone(), plan[id as usize].lease));
        ack_to_push.push(pushed.saturating_duration_since(*acked).as_secs_f64() * 1e3);
        if (id as usize) < sent.fixed {
            let commit = pushed.saturating_duration_since(*due).as_secs_f64() * 1e3;
            let ack = acked.saturating_duration_since(*due).as_secs_f64() * 1e3;
            commit_ms.push(commit);
            ack_ms.push(ack);
        } else {
            let t = pushed
                .saturating_duration_since(sent.sat_start)
                .as_secs_f64();
            if (id as usize) < sent.fixed + saturation {
                sat_end = sat_end.max(*pushed);
                sat_commits += 1;
            }
            load_end = load_end.max(*pushed);
            sat_pushed.push(t);
        }
    }
    let sat_secs = (sat_end - sent.sat_start).as_secs_f64();
    let commit_tput = sat_commits as f64 / sat_secs;
    let compaction_secs = (load_end - sat_end).as_secs_f64();
    let mut sat_by_second = vec![0u64; (load_end - sent.sat_start).as_secs() as usize + 1];
    for t in &sat_pushed {
        sat_by_second[*t as usize] += 1;
    }

    // Open-loop validity: the generator kept to its schedule, and the
    // backlog at the end of the fixed phase is no larger than a few
    // producer intervals' worth of offered load.
    let late_p99 = sent.late_ms.pct(0.99);
    let tail: Vec<u64> = sent
        .backlog
        .iter()
        .filter(|(t, _)| *t >= seconds * 0.9)
        .map(|(_, b)| *b)
        .collect();
    let tail_backlog = tail.iter().sum::<u64>() as f64 / tail.len().max(1) as f64;
    let backlog_limit = RATE * 0.25;
    let mut notes = Vec::new();
    let generator_ok = late_p99 <= 50.0;
    let backlog_ok = tail_backlog <= backlog_limit;
    let limit_met = commit_ms.pct(0.99) <= LIMIT_P99_MS;
    if !generator_ok {
        notes.push(format!("generator fell behind: late p99 {late_p99:.1} ms"));
    }
    if !backlog_ok {
        notes.push(format!(
            "backlog grew: {tail_backlog:.0} outstanding at the end of the fixed phase"
        ));
    }

    // ---- output checks ---------------------------------------------
    let web3 = &world.web3;
    let snap = web3.read_snapshot();
    let mut reverted = 0u64;
    let mut expected_paid = pre.paid.clone();
    let mut expected_income: HashMap<Address, U256> = HashMap::new();
    for (hash, lease) in &committed_hashes {
        let hash = lsc_web3::wire::parse_h256(&JsonValue::String(hash.clone()), "hash")
            .expect("ack hash parses");
        match snap.receipt(hash) {
            Some(r) if r.status == 1 => {
                expected_paid[*lease] += 1;
                let l = &world.leases[*lease];
                *expected_income.entry(l.landlord).or_insert(U256::ZERO) += l.rent;
            }
            _ => reverted += 1,
        }
    }
    failed += reverted;
    if unmatched + multi_push + reverted > 0 {
        notes.push(format!(
            "{unmatched} payments without exactly one push, {multi_push} in several pushes, {reverted} without a status-1 receipt"
        ));
    }
    let paid_mismatch = world
        .leases
        .iter()
        .zip(&expected_paid)
        .filter(|(l, want)| world::paid_count(web3, l.address) != **want)
        .count();
    let balance_mismatch = world
        .landlords
        .iter()
        .filter(|a| {
            let before = pre.landlord_balance[*a];
            let income = expected_income.get(*a).copied().unwrap_or(U256::ZERO);
            web3.balance(**a) != before + income
        })
        .count();
    if paid_mismatch + balance_mismatch > 0 {
        failed += (paid_mismatch + balance_mismatch) as u64;
        notes.push(format!(
            "{paid_mismatch} leases with a wrong paidrents length, {balance_mismatch} landlords with a wrong balance"
        ));
    }

    // ---- disk ---------------------------------------------------------
    let chain_txs = count_chain_txs(web3);
    let bytes = util::dir_bytes(&dir);
    let total_bytes: u64 = bytes.values().sum();
    let load_txs = (chain_txs - chain_txs_before).max(1);

    // ---- crash and recovery -----------------------------------------
    let tip = web3.block_number();
    let root = web3.state_root();
    drop(snap);
    drop(world);
    let (recover_s, recovered_tip, recovered_root) = recover(&dir);
    if recovered_tip != tip || recovered_root != root {
        failed += 1;
        notes.push(format!(
            "recovery diverged: tip {recovered_tip} vs {tip}, root {recovered_root} vs {root}"
        ));
    }
    let valid = generator_ok && backlog_ok;

    // Payments, plus the per-lease, per-landlord and recovery checks.
    let attempted = (sent.times.len() + size.leases() + size.landlords + 1) as u64;
    let mut m = Metrics::default();
    m.set("setup_s", setup_s.median(), "s");
    m.set("commit_p50_ms", commit_ms.median(), "ms");
    m.set("commit_p99_ms", commit_ms.pct(0.99), "ms");
    m.set("commit_tput_tx_s", commit_tput, "1/s");
    m.set("op_p50_ms", ack_ms.median(), "ms");
    m.set("op_p99_ms", ack_ms.pct(0.99), "ms");
    m.set("recover_s", recover_s, "s");
    m.set(
        "disk_bytes_per_tx",
        total_bytes as f64 / chain_txs as f64,
        "B",
    );
    m.set("error_rate", failed as f64 / attempted as f64, "ratio");
    m.set("peak_rss_mb", util::peak_rss_mb(), "MiB");
    m.set("rpc.shed", shed as f64, "count");
    m.set("gen.late_p99_ms", late_p99, "ms");
    m.set("gen.backlog_max", sent.backlog_max as f64, "count");
    // Push gaps, and the long ones (writer stalls) with their offset
    // into the load.
    let mut gaps = Samples::default();
    let mut stalls = Vec::new();
    for w in seen.pushes.windows(2) {
        let gap = (w[1].0 - w[0].0).as_secs_f64() * 1e3;
        gaps.push(gap);
        if gap > 250.0 {
            stalls.push(util::obj([
                ("at_s", util::num((w[0].0 - load_start).as_secs_f64())),
                ("gap_ms", util::num(gap)),
            ]));
        }
    }
    m.set("subs.push_gap_ms", gaps.median(), "ms");
    m.set("subs.ack_to_push_ms", ack_to_push.median(), "ms");
    let fills: Vec<usize> = seen.pushes.iter().map(|p| p.1).filter(|n| *n > 0).collect();
    m.set(
        "producer.txs_per_block",
        fills.iter().sum::<usize>() as f64 / fills.len().max(1) as f64,
        "count",
    );
    m.set(
        "io.write_bytes_per_tx",
        io1.0.saturating_sub(io0.0) as f64 / load_txs as f64,
        "B",
    );
    m.set(
        "io.syscw_per_tx",
        io1.1.saturating_sub(io0.1) as f64 / load_txs as f64,
        "count",
    );
    m.set(
        "proc.cpu_ms_per_op",
        (cpu1 - cpu0) / sent.times.len() as f64,
        "ms",
    );
    for (kind, b) in &bytes {
        m.set(format!("disk.{kind}_bytes"), *b as f64, "B");
    }

    Outcome {
        attempted,
        failed,
        valid,
        notes,
        metrics: m,
        detail: vec![
            ("setup_s_samples", util::num(setup_s.len() as f64)),
            ("commit_ms", commit_ms.summary()),
            (
                "commit_max_ms_by_second",
                JsonValue::Array(
                    commit_ms
                        .values()
                        .chunks(RATE as usize)
                        .map(|c| util::num(c.iter().copied().fold(0.0, f64::max)))
                        .collect(),
                ),
            ),
            ("ack_ms", ack_ms.summary()),
            ("load_s", util::num(load_secs)),
            ("saturation_s", util::num(sat_secs)),
            (
                "saturation_commits_by_second",
                JsonValue::Array(sat_by_second.iter().map(|n| util::num(*n as f64)).collect()),
            ),
            ("saturation_payments", util::num(saturation as f64)),
            ("compaction_phase_payments", util::num(compaction as f64)),
            ("compaction_phase_s", util::num(compaction_secs)),
            ("history_blocks", util::num(history_blocks as f64)),
            ("chain_txs", util::num(chain_txs as f64)),
            ("pushes", util::num(seen.pushes.len() as f64)),
            ("offered_rate_tx_s", util::num(RATE)),
            ("commit_limit_p99_ms", util::num(LIMIT_P99_MS)),
            ("commit_limit_met", JsonValue::Bool(limit_met)),
            ("fixed_phase_s", util::num(seconds)),
            ("saturation_window", util::num(WINDOW as f64)),
            ("push_stalls", JsonValue::Array(stalls)),
            (
                "auto_compact_segments",
                util::num(AUTO_COMPACT_SEGMENTS as f64),
            ),
        ],
        size: Some(size),
    }
}

/// Transactions in the chain, counted from the block headers.
pub fn count_chain_txs(web3: &Web3) -> u64 {
    let snap = web3.read_snapshot();
    (0..=snap.block_number())
        .filter_map(|n| snap.block(n))
        .map(|b| b.tx_hashes.len() as u64)
        .sum()
}

/// Recover the node in `dir`, serve it again, and time until the first
/// `eth_blockNumber` is answered. Returns (seconds, tip, state root).
pub fn recover(dir: &Path) -> (f64, u64, lsc_primitives::H256) {
    let start = Instant::now();
    let node = LocalNode::recover(dir, Faults::none()).expect("recover");
    let web3 = Web3::new(node);
    let server = RpcServer::bind(
        web3.clone(),
        "127.0.0.1:0",
        RpcConfig {
            workers: 1,
            mining: MiningMode::Manual,
            ..RpcConfig::default()
        },
    )
    .expect("rebind");
    let mut http = client::Http::connect(server.local_addr()).expect("reconnect");
    let body = http
        .call(&client::request(1, "eth_blockNumber", "[]"))
        .expect("eth_blockNumber");
    let secs = start.elapsed().as_secs_f64();
    let tip = client::string_result(&body)
        .and_then(|h| u64::from_str_radix(h.trim_start_matches("0x"), 16).ok())
        .expect("block number");
    drop(http);
    server.shutdown();
    let root = web3.state_root();
    (secs, tip, root)
}
