//! The per-layer probe suite every traced run ends with. Each probe
//! times calls into one layer's public functions, on the workload's own
//! node, leases and request bodies, inside a span named after the layer.

use crate::client::{self, Http};
use crate::trace;
use crate::util::{Metrics, Rng, Samples, ScratchDir};
use crate::world::{self, Lease};
use lsc_abi::json::{self, JsonValue};
use lsc_abi::AbiType;
use lsc_chain::{LogFilter, Transaction, Wal, WalRecord};
use lsc_core::{ContractManager, Rental};
use lsc_evm::{BlockEnv, Evm, Message, SnapshotHost};
use lsc_primitives::{Address, U256};
use lsc_rpc::{MiningMode, RpcConfig, RpcServer};
use lsc_solc::Artifact;
use lsc_web3::{wire, Web3};
use std::time::Instant;

pub struct Ctx<'a> {
    pub web3: &'a Web3,
    pub manager: &'a ContractManager,
    pub upload_base: u64,
    pub upload_v2: u64,
    pub base: &'a Artifact,
    pub v2: &'a Artifact,
    /// Live, confirmed `BaseRental` leases of the workload.
    pub leases: &'a [Lease],
    /// Request bodies the workload sent (JSON-RPC text).
    pub bodies: &'a [String],
    pub landlord: Address,
    pub tenant: Address,
}

/// Run `f` `n` times, each inside a root span `probe` with one child
/// span `name`; returns the durations in µs.
fn probe<T>(name: &'static str, n: usize, id: &mut u64, mut f: impl FnMut(usize) -> T) -> Samples {
    let mut out = Samples::default();
    for i in 0..n {
        *id += 1;
        let start = Instant::now();
        let v = trace::request(*id, "probe", || trace::span(name, || f(i)));
        out.push(start.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(v);
    }
    out
}

/// Time instant-mined plain transfers (µs each).
pub fn instant_transfers(
    web3: &Web3,
    from: Address,
    to: Address,
    n: usize,
    id: &mut u64,
) -> Samples {
    probe("chain.instant_transfer", n, id, |_| {
        let tx = Transaction::call(from, to, Vec::new())
            .with_value(U256::from_u64(1))
            .with_gas(21_000);
        web3.send_transaction(tx).expect("instant transfer")
    })
}

fn next_env(snap: &lsc_chain::CommittedSnapshot) -> BlockEnv {
    let config = snap.config();
    BlockEnv {
        number: snap.block_number() + 1,
        timestamp: snap.timestamp() + config.block_time,
        coinbase: config.coinbase,
        gas_limit: config.block_gas_limit,
        difficulty: U256::ZERO,
        chain_id: config.chain_id,
    }
}

/// Run every probe and add its figures to `m`. Leaves the chain longer
/// (deploys, amendments, submitted payments) but every lease of the
/// workload in the state the workload left it, except for the payments
/// the submit probe adds.
#[allow(clippy::too_many_lines)]
pub fn run(ctx: &Ctx, m: &mut Metrics, rng: &mut Rng, id: &mut u64) {
    let web3 = ctx.web3;
    let reads = web3.read_handle();
    let pick = |rng: &mut Rng| &ctx.leases[rng.below(ctx.leases.len())];

    // ---- rpc: the floor of one round trip ------------------------------
    {
        let server = RpcServer::bind(
            web3.clone(),
            "127.0.0.1:0",
            RpcConfig {
                workers: 1,
                mining: MiningMode::Manual,
                ..RpcConfig::default()
            },
        )
        .expect("bind probe server");
        let mut http = Http::connect(server.local_addr()).expect("connect probe server");
        let body = client::request(1, "eth_chainId", "[]");
        let s = probe("rpc.floor", 400, id, |_| {
            http.call(&body).expect("eth_chainId")
        });
        m.set("rpc.floor_us", s.median(), "us");
        drop(http);
        server.shutdown();
    }

    // ---- abi: JSON and the ABI codec -----------------------------------
    let parsed: Vec<JsonValue> = ctx
        .bodies
        .iter()
        .map(|b| json::parse(b).expect("request body parses"))
        .collect();
    let s = probe("abi.json_parse", 1_000, id, |i| {
        json::parse(&ctx.bodies[i % ctx.bodies.len()]).expect("parse")
    });
    m.set("abi.json_parse_us", s.median(), "us");
    let snap = reads.snapshot();
    let receipts: Vec<_> = {
        let mut out = Vec::new();
        let tip = snap.block_number();
        let mut n = tip;
        while out.len() < 256 && n > 0 {
            if let Some(block) = snap.block(n) {
                for hash in &block.tx_hashes {
                    if let Some(r) = snap.receipt(*hash) {
                        out.push((r, block.hash));
                    }
                }
            }
            n -= 1;
        }
        out
    };
    let receipt_json: Vec<JsonValue> = receipts
        .iter()
        .map(|(r, h)| wire::receipt_to_json(r, Some(*h)))
        .collect();
    let s = probe("abi.json_encode", 1_000, id, |i| {
        receipt_json[i % receipt_json.len()].to_json()
    });
    m.set("abi.json_encode_us", s.median(), "us");
    let abi = &ctx.base.abi;
    let types = [AbiType::Uint(256), AbiType::String, AbiType::Uint(256)];
    let s = probe("abi.codec", 2_000, id, |i| {
        let lease = &ctx.leases[i % ctx.leases.len()];
        let args = world::base_args(lease.rent, "10001-42 Main St");
        let encoded = abi.encode_constructor(&args).expect("encode");
        lsc_abi::decode(&types, &encoded).expect("decode")
    });
    m.set("abi.codec_us", s.median(), "us");

    // ---- web3 wire codecs ----------------------------------------------
    let tx_params: Vec<&JsonValue> = parsed
        .iter()
        .filter(|v| v.get("method").and_then(JsonValue::as_str) == Some("eth_sendTransaction"))
        .filter_map(|v| v.get("params")?.as_array()?.first())
        .collect();
    let s = probe("wire.tx_decode", 1_000, id, |i| {
        wire::tx_from_json(tx_params[i % tx_params.len()]).expect("tx decodes")
    });
    m.set("wire.tx_decode_us", s.median(), "us");
    let s = probe("wire.receipt_encode", 1_000, id, |i| {
        let (r, h) = &receipts[i % receipts.len()];
        wire::receipt_to_json(r, Some(*h))
    });
    m.set("wire.receipt_encode_us", s.median(), "us");
    let topic = crate::tenant_portal::paid_topic();
    let filter_of = |lease: &Lease| LogFilter::address_topic0(Some(lease.address), Some(topic));
    let mut matched = Samples::default();
    let s = probe("mvcc.logs", 200, id, |i| {
        let lease = &ctx.leases[i % ctx.leases.len()];
        let logs = snap.logs_filtered(0, snap.block_number(), &filter_of(lease));
        matched.push(logs.len() as f64);
        logs
    });
    m.set("mvcc.logs_us", s.median(), "us");
    m.set("mvcc.logs_matched", matched.mean(), "count");
    let lease_logs = snap.logs_filtered(0, snap.block_number(), &filter_of(&ctx.leases[0]));
    let s = probe("wire.logs_encode", 200, id, |_| {
        lease_logs
            .iter()
            .enumerate()
            .map(|(i, (b, log))| wire::log_to_json(*b, i as u64, log))
            .collect::<Vec<_>>()
    });
    m.set("wire.logs_encode_us", s.median(), "us");

    // ---- trie: prove and verify ----------------------------------------
    let slots = [U256::ZERO, U256::from_u64(1)];
    let mut proofs = Vec::new();
    let s = probe("trie.prove", 300, id, |_| {
        let lease = pick(rng);
        let proof = web3.proof(lease.address, &slots).expect("proof");
        proofs.push(proof);
    });
    m.set("trie.prove_us", s.median(), "us");
    let s = probe("wire.proof_encode", 300, id, |i| {
        wire::proof_to_json(&proofs[i])
    });
    m.set("wire.proof_encode_us", s.median(), "us");
    let docs: Vec<JsonValue> = proofs.iter().map(wire::proof_to_json).collect();
    let s = probe("trie.verify", 300, id, |i| {
        lsc_web3::verify_proof_response(&docs[i], proofs[i].state_root).expect("proof verifies")
    });
    m.set("trie.verify_us", s.median(), "us");

    // ---- mvcc -------------------------------------------------------------
    let s = probe("mvcc.snapshot", 5_000, id, |_| reads.snapshot());
    m.set("mvcc.snapshot_ns", s.median() * 1e3, "ns");
    let hashes: Vec<_> = receipts.iter().map(|(r, _)| r.tx_hash).collect();
    let s = probe("mvcc.receipt", 2_000, id, |i| {
        snap.receipt(hashes[i % hashes.len()])
    });
    m.set("mvcc.receipt_us", s.median(), "us");

    // ---- evm ----------------------------------------------------------------
    let pay = world::selector(abi, "payRent");
    let env = next_env(&snap);
    let mut gas = 0u64;
    let mut evm_us = 0.0;
    let s = probe("evm.execute", 500, id, |_| {
        let lease = pick(rng);
        let start = Instant::now();
        let mut host = SnapshotHost::new(&*snap, &env, U256::from_u64(1), &[]);
        let result = Evm::new(&mut host).execute(Message::call(
            lease.tenant,
            lease.address,
            lease.rent,
            pay.clone(),
            world::PAY_GAS,
        ));
        evm_us += start.elapsed().as_secs_f64() * 1e6;
        assert!(result.success, "payRent executes");
        gas += world::PAY_GAS - result.gas_left;
    });
    m.set("evm.execute_us.payRent", s.median(), "us");
    m.set("evm.gas_per_s", gas as f64 / (evm_us / 1e6), "1/s");
    let rent_call = world::selector(abi, "rent");
    let s = probe("evm.call", 1_000, id, |_| {
        let lease = pick(rng);
        let result = snap.call(lease.tenant, lease.address, rent_call.clone());
        assert!(result.success, "rent() executes");
    });
    m.set("evm.execute_us.rent", s.median(), "us");
    drop(snap);

    // ---- core and analyzer -------------------------------------------------
    let s = probe("core.summary", 20, id, |_| {
        let lease = pick(rng);
        let contract = ctx.manager.contract_at(lease.address).expect("registered");
        Rental::at(contract).summary().expect("summary")
    });
    m.set("core.summary_us", s.median(), "us");
    let s = probe("core.verify_chain", 500, id, |_| {
        ctx.manager
            .verify_chain(pick(rng).address)
            .expect("chain verifies")
    });
    m.set("core.verify_chain_us", s.median(), "us");
    let mut fresh = Vec::new();
    let rent = U256::from_u64(1_000_000_000_000_000);
    let s = probe("core.deploy", 12, id, |_| {
        let c = ctx
            .manager
            .deploy(
                ctx.landlord,
                ctx.upload_base,
                &world::base_args(rent, "10001-42 Main St"),
                U256::ZERO,
            )
            .expect("deploy");
        fresh.push(c.address());
    });
    m.set("core.deploy_ms", s.median() / 1e3, "ms");
    let s = probe("core.deploy_version", 12, id, |i| {
        ctx.manager
            .deploy_version(
                ctx.landlord,
                ctx.upload_v2,
                &world::v2_args(rent, "10001-42 Main St"),
                U256::ZERO,
                fresh[i],
                &[],
            )
            .expect("deploy_version")
    });
    m.set("core.deploy_version_ms", s.median() / 1e3, "ms");
    let s = probe("analyzer.vet", 12, id, |i| {
        let code = if i % 2 == 0 {
            &ctx.base.bytecode
        } else {
            &ctx.v2.bytecode
        };
        lsc_analyzer::vet_deployment(code)
    });
    m.set("analyzer.vet_ms", s.median() / 1e3, "ms");
    let s = probe("analyzer.upgrade_check", 200, id, |_| {
        lsc_analyzer::vet_upgrade_runtime(&ctx.base.runtime, &ctx.v2.runtime)
    });
    m.set("analyzer.upgrade_check_us", s.median(), "us");

    // ---- wal: appends of the workload's own transactions -----------------
    {
        let scratch = ScratchDir::new("wal-probe");
        let mut wal = Wal::open(&scratch.0, lsc_chain::Faults::none()).expect("scratch wal");
        let records: Vec<WalRecord> = tx_params
            .iter()
            .map(|v| WalRecord::SubmitTx(wire::tx_from_json(v).expect("tx decodes")))
            .collect();
        let s = probe("wal.append", 300, id, |i| {
            wal.append(&records[i % records.len()]).expect("append")
        });
        m.set("wal.append_us", s.median(), "us");
        let s = probe("wal.append_batch", 60, id, |i| {
            let from = (i * 16) % records.len().saturating_sub(16).max(1);
            let end = (from + 16).min(records.len());
            wal.append_batch(&records[from..end]).expect("append batch")
        });
        m.set("wal.append_batch_us", s.median(), "us");
    }

    // ---- chain: submit and seal -------------------------------------------
    let mut mine_per_tx = Samples::default();
    let mut submit = Samples::default();
    for _ in 0..8 {
        let batch: Vec<Transaction> = (0..16)
            .map(|_| world::pay_tx(pick(rng), &pay, 1 + rng.below(4) as u64))
            .collect();
        let n = batch.len();
        let mut it = batch.into_iter();
        submit.extend(&probe("chain.submit", n, id, |_| {
            web3.submit_transaction(it.next().expect("16 txs"))
                .expect("submit")
        }));
        let s = probe("chain.mine", 1, id, |_| {
            web3.with_node(lsc_chain::LocalNode::try_mine_block_pipelined)
                .expect("mine")
        });
        mine_per_tx.push(s.median() / n as f64);
    }
    m.set("chain.submit_us", submit.median(), "us");
    m.set("chain.mine_us_per_tx", mine_per_tx.median(), "us");
}
