//! The rental world every workload starts from: funded accounts,
//! landlords holding confirmed `BaseRental` leases, and a history of
//! rent payments, all built through the repository's public API.

use crate::util::Rng;
use lsc_abi::{Abi, AbiValue};
use lsc_chain::{ChainConfig, Faults, LocalNode, Transaction};
use lsc_core::{contracts, ContractManager, VersionRecord, VersionState};
use lsc_ipfs::IpfsNode;
use lsc_primitives::{Address, H256, U256};
use lsc_solc::Artifact;
use lsc_web3::Web3;
use std::path::Path;

/// Gas limit the benchmark sets on every rent payment.
pub const PAY_GAS: u64 = 200_000;
/// Gas limit on lease deployments.
pub const DEPLOY_GAS: u64 = 3_000_000;
/// Storage slot of the `paidrents` array length in `BaseRental` (after
/// the two version-pointer slots of `Node`).
pub const PAIDRENTS_SLOT: u64 = 2;

/// How big a world to build.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub accounts: usize,
    pub landlords: usize,
    pub leases_per_landlord: usize,
    /// Rent payments mined into history before the load starts.
    pub history_receipts: usize,
}

impl Size {
    pub fn leases(&self) -> usize {
        self.landlords * self.leases_per_landlord
    }
}

/// One confirmed lease.
#[derive(Clone, Debug)]
pub struct Lease {
    pub address: Address,
    pub landlord: Address,
    pub tenant: Address,
    pub rent: U256,
}

pub struct Artifacts {
    pub base: Artifact,
    pub v2: Artifact,
}

impl Artifacts {
    pub fn compile() -> Artifacts {
        Artifacts {
            base: contracts::compile_base_rental().expect("BaseRental compiles"),
            v2: contracts::compile_rental_agreement().expect("RentalAgreement compiles"),
        }
    }
}

pub struct World {
    pub web3: Web3,
    pub manager: ContractManager,
    pub artifacts: Artifacts,
    pub upload_base: u64,
    pub upload_v2: u64,
    pub leases: Vec<Lease>,
    pub landlords: Vec<Address>,
    /// Hashes of the rent payments mined into history.
    pub history: Vec<H256>,
    pub size: Size,
}

/// Constructor arguments of a `BaseRental` lease.
pub fn base_args(rent: U256, house: &str) -> Vec<AbiValue> {
    vec![
        AbiValue::Uint(rent),
        AbiValue::string(house),
        AbiValue::uint(365 * 24 * 3600),
    ]
}

/// Constructor arguments of the amended `RentalAgreement`: rent,
/// deposit, term, discount, fine, house.
pub fn v2_args(rent: U256, house: &str) -> Vec<AbiValue> {
    vec![
        AbiValue::Uint(rent),
        AbiValue::Uint(rent * U256::from_u64(2)),
        AbiValue::uint(365 * 24 * 3600),
        AbiValue::Uint(U256::ZERO),
        AbiValue::Uint(rent / U256::from_u64(2)),
        AbiValue::string(house),
    ]
}

pub fn selector(abi: &Abi, name: &str) -> Vec<u8> {
    abi.function(name)
        .unwrap_or_else(|| panic!("ABI has no `{name}`"))
        .selector()
        .to_vec()
}

/// A rent payment transaction; the node resolves the nonce.
pub fn pay_tx(lease: &Lease, pay_selector: &[u8], gas_price_gwei: u64) -> Transaction {
    Transaction {
        from: lease.tenant,
        to: Some(lease.address),
        value: lease.rent,
        data: pay_selector.to_vec(),
        gas: PAY_GAS,
        gas_price: lsc_primitives::gwei(gas_price_gwei),
        nonce: None,
    }
}

/// The node the world lives on: durable in `dir`, or in memory.
pub fn open_node(dir: Option<&Path>, config: ChainConfig, accounts: usize) -> LocalNode {
    match dir {
        Some(dir) => LocalNode::open(dir, config, accounts, Faults::none()).expect("open node"),
        None => LocalNode::with_config(config, accounts),
    }
}

fn mine_batch(web3: &Web3, txs: Vec<Transaction>) -> Vec<H256> {
    let hashes = web3.submit_transactions(txs).expect("submit batch");
    let (_, errors) = web3.try_mine_block().expect("mine batch");
    assert!(errors.is_empty(), "setup batch dropped txs: {errors:?}");
    hashes
}

/// Build the world: `size.landlords` landlords each deploy
/// `size.leases_per_landlord` leases in batched blocks, tenants confirm
/// them, and rounds of rent payments fill the history. Landlords,
/// tenants and rents are drawn from `rng`.
pub fn build(node: LocalNode, artifacts: Artifacts, size: Size, rng: &mut Rng) -> World {
    let web3 = Web3::new(node);
    let manager = ContractManager::new(web3.clone(), IpfsNode::new());
    let upload_base = manager
        .upload_artifact("BaseRental", &artifacts.base)
        .expect("upload base");
    let upload_v2 = manager
        .upload_artifact("RentalAgreement", &artifacts.v2)
        .expect("upload v2");

    let mut people: Vec<Address> = web3.accounts().to_vec();
    rng.shuffle(&mut people);
    let landlords: Vec<Address> = people[..size.landlords].to_vec();
    let tenants = &people[size.landlords..size.landlords + size.leases()];

    let abi = &artifacts.base.abi;
    let mut deploys = Vec::with_capacity(size.leases());
    let mut terms = Vec::with_capacity(size.leases());
    for (i, tenant) in tenants.iter().enumerate() {
        let landlord = landlords[i % size.landlords];
        let rent = U256::from_u64(1_000_000_000_000_000 * (1 + rng.below(9) as u64));
        let house = format!("{:05}-{}", 10_000 + i, 1 + rng.below(200));
        let mut code = artifacts.base.bytecode.clone();
        code.extend_from_slice(
            &abi.encode_constructor(&base_args(rent, &house))
                .expect("constructor args"),
        );
        deploys.push(Transaction::deploy(landlord, code).with_gas(DEPLOY_GAS));
        terms.push((landlord, *tenant, rent));
    }
    let hashes = mine_batch(&web3, deploys);
    let snap = web3.read_snapshot();
    let mut leases = Vec::with_capacity(hashes.len());
    for (hash, (landlord, tenant, rent)) in hashes.iter().zip(terms) {
        let receipt = snap.receipt(*hash).expect("deploy receipt");
        assert_eq!(receipt.status, 1, "lease deployment reverted");
        let address = receipt.contract_address.expect("created address");
        manager
            .adopt_version(
                VersionRecord {
                    address,
                    version: 1,
                    name: "BaseRental".into(),
                    deployer: landlord,
                    block: receipt.block_number,
                    previous: None,
                    state: VersionState::Active,
                },
                upload_base,
            )
            .expect("adopt lease");
        leases.push(Lease {
            address,
            landlord,
            tenant,
            rent,
        });
    }

    let confirm = selector(abi, "confirmAgreement");
    mine_batch(
        &web3,
        leases
            .iter()
            .map(|l| Transaction::call(l.tenant, l.address, confirm.clone()).with_gas(PAY_GAS))
            .collect(),
    );

    let pay = selector(abi, "payRent");
    let mut history = Vec::with_capacity(size.history_receipts);
    let mut order: Vec<usize> = (0..leases.len()).collect();
    while history.len() < size.history_receipts {
        rng.shuffle(&mut order);
        let round = (size.history_receipts - history.len()).min(order.len());
        let txs = order[..round]
            .iter()
            .map(|&i| pay_tx(&leases[i], &pay, 1))
            .collect();
        history.extend(mine_batch(&web3, txs));
    }
    World {
        web3,
        manager,
        artifacts,
        upload_base,
        upload_v2,
        leases,
        landlords,
        history,
        size,
    }
}

/// `paidrents.length` of a lease, read straight from its storage.
pub fn paid_count(web3: &Web3, lease: Address) -> u64 {
    web3.storage_at(lease, U256::from_u64(PAIDRENTS_SLOT))
        .to_u64()
        .expect("array length fits u64")
}
