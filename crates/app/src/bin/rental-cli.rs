//! A command-line front end for the decentralised rental-agreement
//! application — the presentation tier as a REPL. Reads commands from
//! stdin (scriptable), prints the same dashboard screens as Figs. 7–11.
//!
//! ```text
//! cargo run -p lsc-app --bin rental-cli <<'EOF'
//! register landlady l@x pw 0
//! register tenant t@x pw 1
//! login landlady pw
//! upload base
//! deploy 0 1 10001-42MainSt 31536000
//! dashboard
//! login tenant pw
//! confirm <address>
//! pay <address>
//! dashboard
//! EOF
//! ```

#![forbid(unsafe_code)]

use lsc_abi::AbiValue;
use lsc_analyzer::{DeploymentVetting, Finding, Region, UpgradeVetting, VettingPolicy};
use lsc_app::{dashboard, RentalApp, SessionToken};
use lsc_chain::wal::{FaultPlan, Faults};
use lsc_chain::{ChainConfig, DeployGuard, LocalNode, UpgradeGuard};
use lsc_core::contracts;
use lsc_ipfs::IpfsNode;
use lsc_primitives::{ether, Address, U256};
use lsc_web3::Web3;
use std::io::{self, BufRead, Write};
use std::path::PathBuf;

struct Cli {
    app: RentalApp,
    web3: Web3,
    session: Option<SessionToken>,
    last_address: Option<Address>,
    data_dir: Option<PathBuf>,
    serve: Option<ServeOptions>,
}

/// Options for the `serve` subcommand: expose the node over JSON-RPC
/// instead of the REPL.
struct ServeOptions {
    addr: String,
    mining: lsc_rpc::MiningMode,
}

impl Cli {
    fn new() -> Result<Self, String> {
        // `--data-dir <path>` makes the chain durable: state-changing
        // intents go to a write-ahead log in that directory and a restart
        // on the same directory recovers the committed state exactly.
        //
        // `serve` switches from the REPL to a JSON-RPC server:
        //   rental-cli serve [--addr host:port] [--block-time-ms N]
        // Instant mining (Ganache style) unless --block-time-ms is given.
        let mut data_dir: Option<PathBuf> = None;
        let mut serve = false;
        let mut addr = "127.0.0.1:8545".to_string();
        let mut mining = lsc_rpc::MiningMode::Instant;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--data-dir" => {
                    data_dir = Some(PathBuf::from(args.next().ok_or("--data-dir needs a path")?));
                }
                "serve" => serve = true,
                "--addr" => {
                    addr = args.next().ok_or("--addr needs host:port")?;
                }
                "--block-time-ms" => {
                    let ms: u64 = args
                        .next()
                        .ok_or("--block-time-ms needs a number")?
                        .parse()
                        .map_err(|_| "--block-time-ms needs a number")?;
                    mining = lsc_rpc::MiningMode::Interval(std::time::Duration::from_millis(ms));
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        let serve = serve.then_some(ServeOptions { addr, mining });
        // LSC_MINING_WORKERS pins the batch-mining worker count (the
        // default sizes it from the machine's cores).
        let mining_workers = std::env::var("LSC_MINING_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok());
        // Last line of defence behind the manager's vetting gate: the
        // node itself refuses create transactions whose init code the
        // static verifier denies, no matter which tier submitted them.
        let deploy_guard = DeployGuard::new(|init_code| {
            lsc_analyzer::vet_deployment_cached(init_code)
                .enforce(&VettingPolicy::default())
                .map_err(|e| e.to_string())
        });
        // Same last line of defence for upgrades: a setNext/setPrev call
        // only executes if the successor's recovered storage layout is
        // compatible with the live predecessor's under the default policy.
        let upgrade_guard = UpgradeGuard::new(|old_runtime, new_runtime| {
            lsc_analyzer::vet_upgrade_runtime(old_runtime, new_runtime)
                .enforce(&VettingPolicy::default())
                .map_err(|e| e.to_string())
        });
        let config = ChainConfig {
            mining_workers,
            deploy_guard: Some(deploy_guard),
            upgrade_guard: Some(upgrade_guard),
            ..ChainConfig::default()
        };
        let node = match &data_dir {
            // LSC_FAULT arms the deterministic fault schedule (builds with
            // the `fault-injection` feature only; a no-op otherwise).
            Some(dir) => LocalNode::open(dir, config, 10, Faults::plan(FaultPlan::from_env()))
                .map_err(|e| e.to_string())?,
            None => LocalNode::with_config(config, 10),
        };
        let web3 = Web3::new(node);
        // Replays any app-tier events the node pulled out of its log; a
        // brand-new or in-memory node has none, so this is `new` then.
        let app = RentalApp::recover(web3.clone(), IpfsNode::new()).map_err(|e| e.to_string())?;
        Ok(Cli {
            app,
            web3,
            session: None,
            last_address: None,
            data_dir,
            serve,
        })
    }

    fn session(&self) -> Result<SessionToken, String> {
        self.session.ok_or_else(|| "log in first".to_string())
    }

    /// Resolve `<address>` or the literal `last` to an address.
    fn address(&self, token: &str) -> Result<Address, String> {
        if token == "last" {
            return self
                .last_address
                .ok_or_else(|| "no previous address".into());
        }
        token.parse().map_err(|_| format!("bad address {token}"))
    }

    fn dispatch(&mut self, line: &str) -> Result<String, String> {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            [] | ["#", ..] => Ok(String::new()),
            ["help"] => Ok(HELP.to_string()),
            ["accounts"] => Ok(self
                .web3
                .accounts()
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    format!(
                        "{i}: {a}  {} ETH",
                        dashboard::format_ether(self.web3.balance(*a))
                    )
                })
                .collect::<Vec<_>>()
                .join("\n")),
            ["register", name, email, password, account_index] => {
                let index: usize = account_index.parse().map_err(|_| "bad account index")?;
                let accounts = self.web3.accounts();
                let key = *accounts.get(index).ok_or("no such dev account")?;
                self.app
                    .register(name, email, password, key)
                    .map_err(|e| e.to_string())?;
                Ok(format!("registered {name} with account {key}"))
            }
            ["login", name, password] => {
                let token = self.app.login(name, password).map_err(|e| e.to_string())?;
                self.session = Some(token);
                Ok(format!("logged in as {name}"))
            }
            ["logout"] => {
                if let Some(token) = self.session.take() {
                    self.app.logout(token);
                }
                Ok("logged out".into())
            }
            ["upload", which] => {
                let session = self.session()?;
                let (name, artifact) = match *which {
                    "base" => ("Basic rental contract", contracts::compile_base_rental()),
                    "v2" => (
                        "Modified rental contract",
                        contracts::compile_rental_agreement(),
                    ),
                    "guarded" => (
                        "Guarded rental contract",
                        contracts::compile_guarded_rental(),
                    ),
                    other => {
                        return Err(format!("unknown contract kind `{other}` (base|v2|guarded)"))
                    }
                };
                let artifact = artifact.map_err(|e| e.to_string())?;
                let id = self
                    .app
                    .upload_contract(
                        session,
                        name,
                        artifact.bytecode.clone(),
                        &artifact.abi.to_json(),
                    )
                    .map_err(|e| e.to_string())?;
                Ok(format!("uploaded `{name}` as #{id}"))
            }
            ["vet", target] => {
                let vetting = if let Some(hex) = target.strip_prefix("0x") {
                    std::sync::Arc::new(lsc_analyzer::vet_deployment(&parse_hex_bytecode(hex)?))
                } else {
                    let session = self.session()?;
                    let upload: u64 = target.parse().map_err(|_| "bad upload id")?;
                    self.app
                        .vet_upload(session, upload)
                        .map_err(|e| e.to_string())?
                };
                Ok(render_vetting(&vetting))
            }
            ["vet", target, "--against", prev] => {
                let previous = self.address(prev)?;
                let vetting = if let Some(hex) = target.strip_prefix("0x") {
                    let bytes = parse_hex_bytecode(hex)?;
                    let old_runtime = self.web3.code(previous);
                    if old_runtime.is_empty() {
                        return Err(format!("no code on chain at predecessor {previous}"));
                    }
                    lsc_analyzer::vet_upgrade(&old_runtime, &bytes)
                } else {
                    let session = self.session()?;
                    let upload: u64 = target.parse().map_err(|_| "bad upload id")?;
                    self.app
                        .vet_upload_against(session, upload, previous)
                        .map_err(|e| e.to_string())?
                };
                Ok(render_upgrade_vetting(previous, &vetting))
            }
            ["deploy", upload, rent_eth, house, seconds] => {
                let session = self.session()?;
                let upload: u64 = upload.parse().map_err(|_| "bad upload id")?;
                let rent: u64 = rent_eth.parse().map_err(|_| "bad rent")?;
                let term: u64 = seconds.parse().map_err(|_| "bad term")?;
                let address = self
                    .app
                    .deploy_contract(
                        session,
                        upload,
                        &[
                            AbiValue::Uint(ether(rent)),
                            AbiValue::string(*house),
                            AbiValue::uint(term),
                        ],
                        U256::ZERO,
                    )
                    .map_err(|e| e.to_string())?;
                self.last_address = Some(address);
                Ok(format!("deployed at {address} (use `last` to refer to it)"))
            }
            ["deploy-v2", upload, rent_eth, deposit_eth, house, seconds] => {
                let session = self.session()?;
                let upload: u64 = upload.parse().map_err(|_| "bad upload id")?;
                let rent: u64 = rent_eth.parse().map_err(|_| "bad rent")?;
                let deposit: u64 = deposit_eth.parse().map_err(|_| "bad deposit")?;
                let term: u64 = seconds.parse().map_err(|_| "bad term")?;
                let address = self
                    .app
                    .deploy_contract(
                        session,
                        upload,
                        &[
                            AbiValue::Uint(ether(rent)),
                            AbiValue::Uint(ether(deposit)),
                            AbiValue::uint(term),
                            AbiValue::Uint(U256::ZERO),
                            AbiValue::Uint(ether(deposit) / U256::from_u64(4)),
                            AbiValue::string(*house),
                        ],
                        U256::ZERO,
                    )
                    .map_err(|e| e.to_string())?;
                self.last_address = Some(address);
                Ok(format!("deployed v2 at {address}"))
            }
            ["attach-doc", address, text @ ..] => {
                let session = self.session()?;
                let address = self.address(address)?;
                let body = format!("%PDF-1.4 {}", text.join(" "));
                self.app
                    .attach_document(session, address, body.as_bytes())
                    .map_err(|e| e.to_string())?;
                Ok("document linked".into())
            }
            ["view-doc", address] => {
                let session = self.session()?;
                let address = self.address(address)?;
                let pdf = self
                    .app
                    .view_document(session, address)
                    .map_err(|e| e.to_string())?;
                Ok(String::from_utf8_lossy(&pdf).into_owned())
            }
            ["confirm", address] => {
                let session = self.session()?;
                let address = self.address(address)?;
                self.app
                    .confirm_agreement(session, address)
                    .map_err(|e| e.to_string())?;
                Ok("agreement confirmed".into())
            }
            ["pay", address] => {
                let session = self.session()?;
                let address = self.address(address)?;
                self.app
                    .pay_rent(session, address)
                    .map_err(|e| e.to_string())?;
                Ok("rent paid".into())
            }
            ["queue-pay", address] => {
                let session = self.session()?;
                let address = self.address(address)?;
                self.app
                    .queue_rent_payment(session, address)
                    .map_err(|e| e.to_string())?;
                Ok(format!(
                    "rent queued ({} payment(s) pending)",
                    self.web3.pending_count()
                ))
            }
            ["rent-day"] => {
                let (block, errors) = self.app.run_rent_day();
                let mut out = format!(
                    "block #{} mined: {} payment(s)",
                    block.number,
                    block.tx_hashes.len()
                );
                for error in errors {
                    out.push_str(&format!("\ndropped: {error}"));
                }
                Ok(out)
            }
            ["terminate", address] => {
                let session = self.session()?;
                let address = self.address(address)?;
                self.app
                    .terminate(session, address)
                    .map_err(|e| e.to_string())?;
                Ok("contract terminated".into())
            }
            ["modify", address, upload, rent_eth, deposit_eth, house, seconds] => {
                let session = self.session()?;
                let address = self.address(address)?;
                let upload: u64 = upload.parse().map_err(|_| "bad upload id")?;
                let rent: u64 = rent_eth.parse().map_err(|_| "bad rent")?;
                let deposit: u64 = deposit_eth.parse().map_err(|_| "bad deposit")?;
                let term: u64 = seconds.parse().map_err(|_| "bad term")?;
                let new_address = self
                    .app
                    .modify_contract(
                        session,
                        address,
                        upload,
                        &[
                            AbiValue::Uint(ether(rent)),
                            AbiValue::Uint(ether(deposit)),
                            AbiValue::uint(term),
                            AbiValue::Uint(U256::ZERO),
                            AbiValue::Uint(ether(deposit) / U256::from_u64(4)),
                            AbiValue::string(*house),
                        ],
                        &[],
                    )
                    .map_err(|e| e.to_string())?;
                self.last_address = Some(new_address);
                Ok(format!("modified: new version at {new_address}"))
            }
            ["history", address] => {
                let session = self.session()?;
                let address = self.address(address)?;
                let chain = self
                    .app
                    .version_history(session, address)
                    .map_err(|e| e.to_string())?;
                Ok(chain
                    .iter()
                    .enumerate()
                    .map(|(i, a)| format!("v{}: {a}", i + 1))
                    .collect::<Vec<_>>()
                    .join("\n"))
            }
            ["audit", address] => {
                let address = self.address(address)?;
                let report = lsc_core::audit_chain(self.app.manager(), address)
                    .map_err(|e| e.to_string())?;
                Ok(report.render())
            }
            ["dashboard"] => {
                let session = self.session()?;
                let d = self.app.dashboard(session).map_err(|e| e.to_string())?;
                Ok(dashboard::render(&d))
            }
            ["warp", seconds] => {
                let seconds: u64 = seconds.parse().map_err(|_| "bad seconds")?;
                self.web3.increase_time(seconds);
                Ok(format!("chain clock advanced {seconds}s"))
            }
            ["status"] => {
                let (segment, poisoned) = self.web3.with_node(|node| {
                    (
                        node.wal_segment(),
                        node.poisoned_reason().map(str::to_string),
                    )
                });
                let mut out = format!(
                    "block height {} | {} pending tx(s) | chain time {}",
                    self.web3.block_number(),
                    self.web3.pending_count(),
                    self.web3.timestamp()
                );
                match (&self.data_dir, segment) {
                    (Some(dir), Some(segment)) => out.push_str(&format!(
                        "\ndurable: {} (wal segment {segment})",
                        dir.display()
                    )),
                    _ => out.push_str("\nin-memory (no --data-dir)"),
                }
                if let Some(reason) = poisoned {
                    out.push_str(&format!("\nPOISONED: {reason} — restart to recover"));
                }
                Ok(out)
            }
            ["proof", address, slot_tokens @ ..] => {
                let address = self.address(address)?;
                let slots = slot_tokens
                    .iter()
                    .map(|token| parse_slot(token))
                    .collect::<Result<Vec<U256>, String>>()?;
                let proof = self
                    .web3
                    .proof(address, &slots)
                    .map_err(|e| format!("state proof: {e}"))?;
                let head = self.web3.block_number();
                let trusted_root = self.web3.block(head).ok_or("no head block")?.state_root;
                let doc = lsc_web3::wire::proof_to_json(&proof);
                let mut out = format!("eth_getProof bundle (block #{head}):\n{}", doc.to_json());
                // Re-verify the bundle exactly as an offline auditor
                // would: nothing but the JSON and the header root.
                match lsc_web3::proof::verify_proof_response(&doc, trusted_root) {
                    Ok(verified) => {
                        out.push_str(&format!(
                            "\nverified offline against state root {trusted_root}\n  account: {}",
                            if verified.present {
                                format!(
                                    "present (balance {} wei, nonce {})",
                                    verified.balance, verified.nonce
                                )
                            } else {
                                "proven absent".to_string()
                            }
                        ));
                        for (slot, value) in &verified.slots {
                            out.push_str(&format!("\n  slot {slot}: {value:#x}"));
                        }
                    }
                    Err(e) => out.push_str(&format!("\nVERIFICATION FAILED: {e}")),
                }
                Ok(out)
            }
            ["compact"] => {
                let result = self.web3.with_node(lsc_chain::LocalNode::compact);
                match result {
                    Ok(wal_from) => Ok(format!(
                        "log compacted into a snapshot; wal continues at segment {wal_from}"
                    )),
                    Err(e) => Err(format!("compaction failed: {e}")),
                }
            }
            other => Err(format!(
                "unknown command {:?} (try `help`)",
                other.join(" ")
            )),
        }
    }
}

/// Parse a storage-slot index: decimal (`0`, `1`) or hex (`0x1f`).
fn parse_slot(token: &str) -> Result<U256, String> {
    let parsed = match token.strip_prefix("0x") {
        Some(hex) => U256::from_hex_str(hex),
        None => U256::from_decimal_str(token),
    };
    parsed.map_err(|_| format!("bad storage slot {token}"))
}

fn parse_hex_bytecode(hex: &str) -> Result<Vec<u8>, String> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(hex.get(i..i + 2).unwrap_or("zz"), 16))
        .collect::<Result<Vec<u8>, _>>()
        .map_err(|_| "bad hex bytecode".to_string())
}

/// Render findings grouped by (region, rule) with pc ranges: 16 template
/// combos firing the same lint at many pcs become one line each instead
/// of a page of per-pc repeats.
fn render_findings(out: &mut String, findings: &[(Region, &Finding)]) {
    if findings.is_empty() {
        out.push_str("findings: none\n");
        return;
    }
    out.push_str(&format!("findings: {}\n", findings.len()));
    let mut groups: Vec<((Region, lsc_analyzer::Rule), Vec<&Finding>)> = Vec::new();
    for (region, finding) in findings {
        match groups
            .iter_mut()
            .find(|((r, rule), _)| r == region && *rule == finding.rule)
        {
            Some((_, group)) => group.push(finding),
            None => groups.push(((*region, finding.rule), vec![finding])),
        }
    }
    for ((region, rule), group) in groups {
        let mut pcs: Vec<usize> = group.iter().map(|f| f.pc).collect();
        pcs.sort_unstable();
        pcs.dedup();
        let span = match pcs.as_slice() {
            [only] => format!("pc {only}"),
            [first, .., last] => format!("{} site(s), pc {first}-{last}", pcs.len()),
            [] => unreachable!("group is never empty"),
        };
        out.push_str(&format!(
            "  [{region}] {} ({}): {span} — {}\n",
            rule.name(),
            group[0].severity,
            group[0].message
        ));
    }
}

fn render_vetting(vetting: &DeploymentVetting) -> String {
    let mut out = String::from("STATIC BYTECODE VETTING\n");
    out.push_str(&format!(
        "init:    {} instr(s), {} block(s), gas floor {}\n",
        vetting.init.instr_count, vetting.init.block_count, vetting.init.gas_floor
    ));
    match (&vetting.runtime, &vetting.runtime_range) {
        (Some(rt), Some(range)) => out.push_str(&format!(
            "runtime: {} byte(s) at {}..{}, {} instr(s), gas floor {}\n",
            range.len(),
            range.start,
            range.end,
            rt.instr_count,
            rt.gas_floor
        )),
        _ => out.push_str("runtime: not recovered (no canonical deploy tail)\n"),
    }
    render_findings(&mut out, &vetting.findings());
    match vetting.enforce(&VettingPolicy::default()) {
        Ok(()) => out.push_str("verdict: deployable under the default policy"),
        Err(e) => out.push_str(&format!(
            "verdict: DENIED under the default policy ({} finding(s))",
            e.denied.len()
        )),
    }
    out
}

fn render_upgrade_vetting(previous: Address, vetting: &UpgradeVetting) -> String {
    let mut out = String::from("UPGRADE COMPATIBILITY VETTING\n");
    out.push_str(&format!(
        "predecessor: {previous}\n  layout: {}\n",
        vetting.old_layout.summary()
    ));
    match (&vetting.new_layout, &vetting.new_runtime_range) {
        (Some(layout), Some(range)) => out.push_str(&format!(
            "successor: runtime {} byte(s) at {}..{}\n  layout: {}\n",
            range.len(),
            range.start,
            range.end,
            layout.summary()
        )),
        (Some(layout), None) => out.push_str(&format!(
            "successor: runtime\n  layout: {}\n",
            layout.summary()
        )),
        _ => out.push_str("successor: runtime not recovered (no canonical deploy tail)\n"),
    }
    render_findings(&mut out, &vetting.findings());
    match vetting.enforce(&VettingPolicy::default()) {
        Ok(()) => out.push_str("verdict: upgrade-compatible under the default policy"),
        Err(e) => out.push_str(&format!(
            "verdict: DENIED under the default policy ({} finding(s))",
            e.denied.len()
        )),
    }
    out
}

const HELP: &str = "commands:
  accounts                                       list dev accounts
  register <name> <email> <pw> <account-index>   create a user
  login <name> <pw> | logout
  upload base|v2|guarded                         compile & upload a contract
  vet <upload-id|0xhex>                          static-verify bytecode
  vet <upload-id|0xhex> --against <address|last> diff storage layouts for an upgrade
  deploy <upload> <rent-eth> <house> <seconds>   deploy the base contract
  deploy-v2 <upload> <rent> <deposit> <house> <seconds>
  attach-doc <address|last> <text…>              link the legal PDF
  view-doc <address|last>
  confirm <address|last> | pay <…> | terminate <…>
  queue-pay <address|last>                       queue rent for the next block
  rent-day                                       mine every queued payment
  modify <address|last> <upload> <rent> <deposit> <house> <seconds>
  history <address|last> | audit <address|last>
  dashboard | warp <seconds> | help | quit
  status                                         chain height + durability state
  compact                                        fold the log into a snapshot
  proof <address|last> [slot…]                   eth_getProof bundle + offline check
run with `--data-dir <path>` for a durable chain that survives restarts
run `serve [--addr host:port] [--block-time-ms N]` to expose the node
over JSON-RPC (default 127.0.0.1:8545, instant mining) instead of the REPL";

fn main() {
    let mut cli = match Cli::new() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    if let Some(options) = &cli.serve {
        // `serve` mode: same node, JSON-RPC instead of the REPL. The
        // server owns a clone of the Web3 handle; reads come off MVCC
        // snapshots, writes go through the node mutex, and persistent
        // (JSON-lines) connections may `eth_subscribe`.
        let server = match lsc_rpc::RpcServer::bind(
            cli.web3.clone(),
            &options.addr,
            lsc_rpc::RpcConfig {
                mining: options.mining,
                ..lsc_rpc::RpcConfig::default()
            },
        ) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("error: cannot bind {}: {e}", options.addr);
                std::process::exit(2);
            }
        };
        println!(
            "serving JSON-RPC on http://{} ({} dev account(s), {}) — Ctrl-C to stop",
            server.local_addr(),
            cli.web3.accounts().len(),
            match options.mining {
                lsc_rpc::MiningMode::Instant => "instant mining".to_string(),
                lsc_rpc::MiningMode::Manual => "manual mining".to_string(),
                lsc_rpc::MiningMode::Interval(period) =>
                    format!("{} ms blocks", period.as_millis()),
            },
        );
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    let stdin = io::stdin();
    println!("legal-smart-contracts rental CLI — `help` for commands");
    if cli.data_dir.is_some() {
        if let Ok(status) = cli.dispatch("status") {
            println!("{status}");
        }
    }
    print!("> ");
    io::stdout().flush().ok();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        match cli.dispatch(line) {
            Ok(output) if output.is_empty() => {}
            Ok(output) => println!("{output}"),
            Err(message) => println!("error: {message}"),
        }
        print!("> ");
        io::stdout().flush().ok();
    }
    println!("bye");
}
