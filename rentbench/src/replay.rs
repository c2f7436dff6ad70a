//! The traced runs. The socket hides the layers, so for `rent_roll` and
//! `tenant_portal` the traced run replays the same generated inputs
//! in process, calling each layer's public function
//! in the order the server would, with a span around every call. For
//! `lease_amendments` the spans wrap the business-tier calls themselves.
//! Every traced run then runs the probe suite ([`crate::probes`]).
//!
//! Requests alternate between traced and untraced, so the run measures
//! its own tracing overhead on the same inputs.

use crate::lease_amendments::{self, Flow, Setup};
use crate::probes;
use crate::rent_roll;
use crate::tenant_portal::{self, Inputs, Kind};
use crate::trace::{self, span};
use crate::util::{self, num, obj, us_since, Metrics, Rng, Samples};
use crate::world::{self, Lease, World};
use crate::Outcome;
use lsc_abi::json::{self, JsonValue};
use lsc_chain::LocalNode;
use lsc_primitives::{Address, H256, U256};
use lsc_web3::{wire, Web3};
use std::time::Instant;

/// Durations of traced and untraced requests.
#[derive(Default)]
struct Split {
    traced: Samples,
    plain: Samples,
}

impl Split {
    /// Run request `id` under a root span `root`.
    fn run<T>(&mut self, id: u64, root: &'static str, f: impl FnOnce() -> T) -> T {
        self.toggle(id, || trace::request(id, root, f))
    }

    /// Time `f` with spans recorded for even `id`s only.
    fn toggle<T>(&mut self, id: u64, f: impl FnOnce() -> T) -> T {
        let traced = id.is_multiple_of(2);
        trace::set_enabled(traced);
        let start = Instant::now();
        let out = f();
        let us = us_since(start);
        if traced {
            self.traced.push(us);
        } else {
            self.plain.push(us);
        }
        trace::set_enabled(true);
        out
    }

    fn overhead_pct(&self) -> f64 {
        (self.traced.median() / self.plain.median() - 1.0) * 100.0
    }
}

/// The response envelope the server builds, encoded.
fn respond(id: &JsonValue, result: JsonValue) -> String {
    span("abi.json_encode", || {
        JsonValue::object([
            ("jsonrpc", JsonValue::String("2.0".into())),
            ("id", id.clone()),
            ("result", result),
        ])
        .to_json()
    })
}

fn param(doc: &JsonValue, i: usize) -> &JsonValue {
    &doc.get("params")
        .and_then(JsonValue::as_array)
        .expect("params")[i]
}

struct Common {
    metrics: Metrics,
    id: u64,
    cpu0: f64,
    memo0: (u64, u64),
    transfers_start: Samples,
}

fn begin(web3: &Web3, a: Address, b: Address) -> Common {
    trace::set_enabled(true);
    let mut id = 1_000_000_000;
    let transfers_start = probes::instant_transfers(web3, a, b, 60, &mut id);
    Common {
        metrics: Metrics::default(),
        id,
        cpu0: util::cpu_ms(),
        memo0: lsc_evm::memo_stats::snapshot(),
        transfers_start,
    }
}

/// Probe suite, end-of-run transfers, span output and the shared
/// per-layer figures.
#[allow(clippy::too_many_arguments)]
fn finish(
    mut c: Common,
    ctx: &probes::Ctx,
    workload: &str,
    root: &str,
    seed: u64,
    split: &Split,
    ops: usize,
    setup_s: &Samples,
    mut outcome: Outcome,
) -> Outcome {
    let cpu_ops = util::cpu_ms() - c.cpu0;
    let mut rng = Rng::new(seed).fork(9);
    probes::run(ctx, &mut c.metrics, &mut rng, &mut c.id);
    let end = probes::instant_transfers(ctx.web3, ctx.landlord, ctx.tenant, 60, &mut c.id);
    let memo = lsc_evm::memo_stats::snapshot();
    let m = &mut c.metrics;
    m.set(
        "chain.instant_transfer_us.start",
        c.transfers_start.median(),
        "us",
    );
    m.set("chain.instant_transfer_us.end", end.median(), "us");
    m.set(
        "chain.block_cost_growth",
        end.median() / c.transfers_start.median(),
        "ratio",
    );
    m.set("evm.memo_hits", (memo.0 - c.memo0.0) as f64, "count");
    m.set("evm.memo_misses", (memo.1 - c.memo0.1) as f64, "count");
    m.set("proc.cpu_ms_per_op", cpu_ops / ops.max(1) as f64, "ms");
    m.set("trace.overhead_pct", split.overhead_pct(), "%");
    m.set("setup_s", setup_s.median(), "s");
    m.set("peak_rss_mb", util::peak_rss_mb(), "MiB");
    trace::set_enabled(false);

    let spans = trace::take();
    let table = trace::layer_table(&spans);
    let cov = trace::coverage(&spans, root);
    let path = util::out_dir().join(format!("spans-{workload}-seed{seed}.jsonl"));
    if let Err(e) = trace::write_spans(&path, &spans) {
        eprintln!("rentbench: could not write {}: {e}", path.display());
    }
    m.set("trace.unattributed_p50", cov.unattributed_p50, "ratio");
    m.set("trace.span_cost_ns", trace::span_cost_ns(), "ns");
    // A per-layer metric named after a span is that span's median self
    // time over the whole traced run: the workload's own calls and the
    // probes' together.
    for name in crate::PER_LAYER {
        let scaled = [("_us", 1.0, "us"), ("_ms", 1e-3, "ms"), ("_ns", 1e3, "ns")]
            .into_iter()
            .find_map(|(suffix, scale, unit)| Some((name.strip_suffix(suffix)?, scale, unit)));
        if let Some((stem, scale, unit)) = scaled {
            if let Some(samples) = table.get(stem) {
                m.set(*name, samples.median() * scale, unit);
            }
        }
    }
    for (name, value) in c.metrics_drain() {
        outcome.metrics.set(name, value.0, value.1);
    }
    outcome.detail.extend([
        ("layers", trace::table_json(&table)),
        (
            "coverage",
            obj([
                ("requests", num(cov.requests as f64)),
                ("max_sum_error_ns", num(cov.max_sum_error_ns as f64)),
                ("unattributed_p50", num(cov.unattributed_p50)),
            ]),
        ),
        (
            "overhead",
            obj([
                ("traced_p50_us", num(split.traced.median())),
                ("untraced_p50_us", num(split.plain.median())),
                ("traced_n", num(split.traced.len() as f64)),
                ("untraced_n", num(split.plain.len() as f64)),
            ]),
        ),
        ("spans", num(spans.len() as f64)),
    ]);
    outcome
}

impl Common {
    fn metrics_drain(&mut self) -> Vec<(String, (f64, &'static str))> {
        std::mem::take(&mut self.metrics).into_vec()
    }
}

fn outcome(attempted: u64, failed: u64, notes: Vec<String>, size: Option<world::Size>) -> Outcome {
    Outcome {
        attempted,
        failed,
        valid: true,
        notes,
        metrics: Metrics::default(),
        detail: Vec::new(),
        size,
    }
}

/// Replay the fixed-phase payments of `rent_roll`: JSON parse, decode,
/// submit on the durable node, one pipelined seal per block of the
/// untraced run's fill, then the receipt lookup and its encoding.
pub fn rent_roll(world: World, bodies: &[String], seed: u64, setup_s: &Samples) -> Outcome {
    let web3 = world.web3.clone();
    let reads = web3.read_handle();
    let mut c = begin(&web3, world.landlords[0], world.landlords[1]);
    let fill = ((rent_roll::RATE * rent_roll::INTERVAL_MS as f64 / 1e3).round() as usize).max(1);
    let mut split = Split::default();
    let mut failed = 0;
    let mut replayed = 0;
    for (b, chunk) in bodies.chunks(fill).enumerate() {
        let ok = split.run(b as u64, "batch", || {
            let hashes: Vec<H256> = chunk
                .iter()
                .map(|body| {
                    let doc = span("abi.json_parse", || json::parse(body)).expect("body parses");
                    let tx = span("wire.tx_decode", || wire::tx_from_json(param(&doc, 0)))
                        .expect("tx decodes");
                    span("chain.submit", || web3.submit_transaction(tx)).expect("submit")
                })
                .collect();
            span("chain.mine", || {
                web3.with_node(LocalNode::try_mine_block_pipelined)
            })
            .expect("mine");
            hashes
                .iter()
                .filter(|hash| {
                    let snap = span("mvcc.snapshot", || reads.snapshot());
                    let Some(receipt) = span("mvcc.receipt", || snap.receipt(**hash)) else {
                        return false;
                    };
                    let block_hash = span("mvcc.block", || {
                        snap.block(receipt.block_number).map(|b| b.hash)
                    });
                    let encoded = span("wire.receipt_encode", || {
                        wire::receipt_to_json(&receipt, block_hash)
                    });
                    respond(&JsonValue::Number(1.0), encoded);
                    receipt.status == 1
                })
                .count()
        });
        replayed += chunk.len();
        failed += chunk.len() - ok;
    }
    let leases = world.leases.clone();
    let ctx = probes::Ctx {
        web3: &web3,
        manager: &world.manager,
        upload_base: world.upload_base,
        upload_v2: world.upload_v2,
        base: &world.artifacts.base,
        v2: &world.artifacts.v2,
        leases: &leases,
        bodies,
        landlord: world.landlords[0],
        tenant: world.landlords[1],
    };
    let notes = if failed > 0 {
        vec![format!(
            "{failed} replayed payments without a status-1 receipt"
        )]
    } else {
        Vec::new()
    };
    let mut out = outcome(replayed as u64, failed as u64, notes, Some(world.size));
    out.detail.push(("block_fill", num(fill as f64)));
    c.metrics.set("replay.requests", replayed as f64, "count");
    // Compaction of the durable node after the replay, timed whole.
    let start = Instant::now();
    trace::request(c.id, "probe", || {
        span("chain.compact", || web3.with_node(LocalNode::compact))
    })
    .expect("compact");
    c.id += 1;
    c.metrics.set(
        "chain.compact_ms",
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    finish(
        c,
        &ctx,
        "rent_roll",
        "batch",
        seed,
        &split,
        replayed,
        setup_s,
        out,
    )
}

/// Serve one dashboard request in process, the way the server's
/// dispatch does, with a span around each layer call. Returns whether
/// the answer passed its check.
fn serve(web3: &Web3, req: &tenant_portal::Req, lease: &Lease, pending: &mut Vec<H256>) -> bool {
    let doc = span("abi.json_parse", || json::parse(&req.body)).expect("body parses");
    let id = doc.get("id").cloned().unwrap_or(JsonValue::Null);
    let reads = web3.read_handle();
    let snap = span("mvcc.snapshot", || reads.snapshot());
    match req.kind {
        Kind::CallRent | Kind::CallState | Kind::CallLandlord | Kind::CallTenant => {
            let call = param(&doc, 0);
            let (from, to, data) = span("wire.params_decode", || {
                (
                    wire::parse_address(call.get("from").expect("from"), "from"),
                    wire::parse_address(call.get("to").expect("to"), "to"),
                    wire::parse_data(call.get("data").expect("data"), "data"),
                )
            });
            let result = span("evm.call", || {
                snap.call(from.expect("from"), to.expect("to"), data.expect("data"))
            });
            let body = respond(&id, wire::data_json(&result.output));
            span("check", || {
                result.success
                    && tenant_portal::expected_call(req.kind, lease)
                        .is_some_and(|want| body.contains(&want))
            })
        }
        Kind::Logs => {
            let (from, to, filter) = span("wire.filter_decode", || {
                wire::filter_from_json(param(&doc, 0)).expect("filter")
            });
            let tip = snap.block_number();
            let logs = span("mvcc.logs", || {
                snap.logs_filtered(from.resolve(tip), to.resolve(tip), &filter)
            });
            let encoded = span("wire.logs_encode", || {
                JsonValue::Array(
                    logs.iter()
                        .enumerate()
                        .map(|(i, (b, log))| wire::log_to_json(*b, i as u64, log))
                        .collect(),
                )
            });
            respond(&id, encoded);
            true
        }
        Kind::Balance => {
            let address = span("wire.params_decode", || {
                wire::parse_address(param(&doc, 0), "address").expect("address")
            });
            let balance = span("mvcc.balance", || snap.balance(address));
            respond(&id, wire::quantity_u256(balance));
            span("check", || {
                balance == reads.snapshot().balance(address)
                    || snap.block_number() != reads.block_number()
            })
        }
        Kind::Block => {
            let tag = span("wire.params_decode", || {
                wire::parse_block_tag(param(&doc, 0), "tag").expect("tag")
            });
            let block = span("mvcc.block", || {
                snap.block(tag.resolve(snap.block_number()))
            });
            let ok = block.is_some();
            let encoded = span("wire.block_encode", || {
                block.map_or(JsonValue::Null, |b| wire::block_to_json(&b))
            });
            respond(&id, encoded);
            ok
        }
        Kind::Receipt => {
            let hash = span("wire.params_decode", || {
                wire::parse_h256(param(&doc, 0), "hash").expect("hash")
            });
            let receipt = span("mvcc.receipt", || snap.receipt(hash));
            let Some(receipt) = receipt else {
                return false;
            };
            let block_hash = span("mvcc.block", || {
                snap.block(receipt.block_number).map(|b| b.hash)
            });
            let encoded = span("wire.receipt_encode", || {
                wire::receipt_to_json(&receipt, block_hash)
            });
            respond(&id, encoded);
            receipt.status == 1
        }
        Kind::Proof => {
            let address = span("wire.params_decode", || {
                wire::parse_address(param(&doc, 0), "address").expect("address")
            });
            let proof = span("trie.prove", || {
                web3.proof(address, &[U256::ZERO, U256::from_u64(1)])
            })
            .expect("proof");
            let encoded = span("wire.proof_encode", || wire::proof_to_json(&proof));
            let ok = span("check", || {
                lsc_web3::verify_proof_response(&encoded, proof.state_root).is_ok()
            });
            respond(&id, encoded);
            ok
        }
        Kind::Pay => {
            let tx =
                span("wire.tx_decode", || wire::tx_from_json(param(&doc, 0))).expect("tx decodes");
            match span("chain.submit", || web3.submit_transaction(tx)) {
                Ok(hash) => {
                    respond(&id, wire::h256_json(hash));
                    pending.push(hash);
                    true
                }
                Err(_) => false,
            }
        }
    }
}

/// Batteries per sealed block in the replay: the interval producer's
/// fill in the untraced run (about 660 payments committed per second,
/// one per battery, at one block per 10 ms).
pub const BATTERIES_PER_BLOCK: usize = 7;

pub fn tenant_portal(
    world: &World,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    setup_s: &Samples,
) -> Outcome {
    let web3 = &world.web3;
    let mut c = begin(web3, world.landlords[0], world.landlords[1]);
    let mut split = Split::default();
    let mut req_id = 0;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut pending = Vec::new();
    let mut bodies = Vec::new();
    let mut b = 0u64;
    // Each client thread's batteries in turn, from the same seeded
    // streams the untraced run's threads use.
    let per_thread = tenant_portal::battery_count(seconds);
    for t in 0..tenant_portal::THREADS {
        let mut rng = Rng::new(seed).fork(10 + t as u64);
        for _ in 0..per_thread {
            let reqs = tenant_portal::battery(inputs, &mut rng, &mut req_id);
            let bad = split.run(b, "battery", || {
                reqs.iter()
                    .filter(|r| !serve(web3, r, &inputs.leases[r.lease], &mut pending))
                    .count()
            });
            attempted += reqs.len() as u64;
            failed += bad as u64;
            if bodies.len() < 2_000 {
                bodies.extend(reqs.into_iter().map(|r| r.body));
            }
            b += 1;
            if b.is_multiple_of(BATTERIES_PER_BLOCK as u64) {
                trace::request(u64::MAX - b, "block", || {
                    span("chain.mine", || {
                        web3.with_node(LocalNode::try_mine_block_pipelined)
                    })
                })
                .expect("mine");
            }
        }
    }
    web3.with_node(LocalNode::try_mine_block_pipelined)
        .expect("mine");
    let snap = web3.read_snapshot();
    let uncommitted = pending
        .iter()
        .filter(|h| snap.receipt(**h).is_none_or(|r| r.status != 1))
        .count() as u64;
    failed += uncommitted;
    let mut notes = Vec::new();
    if failed > 0 {
        notes.push(format!(
            "{failed} replayed requests failed their check ({uncommitted} payments uncommitted)"
        ));
    }
    let ctx = probes::Ctx {
        web3,
        manager: &world.manager,
        upload_base: world.upload_base,
        upload_v2: world.upload_v2,
        base: &world.artifacts.base,
        v2: &world.artifacts.v2,
        leases: &world.leases,
        bodies: &bodies,
        landlord: world.landlords[0],
        tenant: world.landlords[1],
    };
    let out = outcome(attempted, failed, notes, Some(world.size));
    c.metrics.set("replay.requests", attempted as f64, "count");
    finish(
        c,
        &ctx,
        "tenant_portal",
        "battery",
        seed,
        &split,
        attempted as usize,
        setup_s,
        out,
    )
}

/// The traced `lease_amendments` flow: the same leases, each operation
/// a request whose span wraps the business-tier call; every other lease
/// untraced for the overhead figure. The probe suite then runs on fresh
/// live leases, since every lease of the flow ends terminated.
pub fn lease_amendments(s: &Setup, seed: u64, seconds: f64, setup_s: &Samples) -> Outcome {
    let mut c = begin(&s.web3, s.landlords[0], s.landlords[1]);
    let mut rng = Rng::new(seed).fork(3);
    let mut flow = Flow::default();
    let mut split = Split::default();
    let mut id = 0;
    for n in 0..lease_amendments::lease_count(seconds) {
        // Each operation is its own request (see `lease_amendments::timed`),
        // so a lease is timed without a root span of its own.
        let done = split.toggle(n, || {
            lease_amendments::lease(s, &mut rng, &mut flow, &mut id)
        });
        if done.is_none() {
            break;
        }
    }
    // Live leases for the probes: deployed and confirmed through the
    // business tier, with a couple of payments each.
    let live: Vec<Lease> = (0..8)
        .map(|i| {
            let landlord = s.landlords[i % s.landlords.len()];
            let tenant = s.tenants[i % s.tenants.len()];
            let rent = U256::from_u64(1_000_000_000_000_000 * (1 + i as u64));
            let contract = s
                .manager
                .deploy(
                    landlord,
                    s.upload_base,
                    &world::base_args(rent, "10001-42 Main St"),
                    U256::ZERO,
                )
                .expect("deploy probe lease");
            let rental = lsc_core::Rental::at(contract);
            rental
                .confirm_agreement(tenant)
                .expect("confirm probe lease");
            for _ in 0..2 {
                rental.pay_rent(tenant).expect("pay probe lease");
            }
            Lease {
                address: rental.address(),
                landlord,
                tenant,
                rent,
            }
        })
        .collect();
    let bodies: Vec<String> = live
        .iter()
        .enumerate()
        .map(|(i, l)| rent_roll::send_body(i as u64, l, 1 + (i % 4) as u64))
        .collect();
    let artifacts = world::Artifacts::compile();
    let ctx = probes::Ctx {
        web3: &s.web3,
        manager: &s.manager,
        upload_base: s.upload_base,
        upload_v2: s.upload_v2,
        base: &artifacts.base,
        v2: &artifacts.v2,
        leases: &live,
        bodies: &bodies,
        landlord: s.landlords[0],
        tenant: s.tenants[0],
    };
    let ops = flow.ops.len();
    let out = outcome(flow.attempted, flow.failed, flow.notes, None);
    c.metrics.set("replay.requests", ops as f64, "count");
    finish(
        c,
        &ctx,
        "lease_amendments",
        "op",
        seed,
        &split,
        ops,
        setup_s,
        out,
    )
}
