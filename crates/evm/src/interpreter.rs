//! The bytecode interpreter: executes call/create message frames against a
//! [`Host`], with full gas metering, nested calls, reverts and logs.

use crate::analysis::AnalyzedCode;
use crate::gas::{self, GasMeter, OutOfGas};
use crate::host::{Host, Log};
use crate::memory::Memory;
use crate::opcode::{self, op};
use crate::stack::{Stack, StackError};
use lsc_primitives::{keccak256, Address, H256, U256};
use std::sync::Arc;

/// Maximum call/create nesting depth.
pub const MAX_CALL_DEPTH: u32 = 1024;

/// Frames run on the caller's thread and hop to a fresh stack every
/// `FRAME_HOP` nesting levels instead of paying one dedicated thread per
/// transaction. Chosen so `FRAME_HOP` debug frames comfortably fit a
/// default 2 MiB thread stack.
const FRAME_HOP: u32 = 16;

/// Stack size of each hop thread (holds `FRAME_HOP` interpreter frames).
const FRAME_STACK_BYTES: usize = 8 << 20;

/// Frames whose memory grew beyond this are not returned to the pool.
const POOL_MEMORY_CAP: usize = 512 * 1024;

/// What kind of message frame to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// Ordinary external call: code and storage context both at `target`.
    Call,
    /// Execute `code_address`'s code in the caller's storage context,
    /// keeping `msg.sender`/`msg.value` of the parent (EIP-7 semantics).
    DelegateCall,
    /// Like delegatecall but with its own value transfer to self.
    CallCode,
    /// Read-only call: any state mutation halts the frame.
    StaticCall,
    /// Contract creation; address derived from caller nonce.
    Create,
    /// Salted creation (EIP-1014); address derived from the salt.
    Create2(H256),
}

/// A message to execute.
#[derive(Debug, Clone)]
pub struct Message {
    /// Frame kind.
    pub kind: CallKind,
    /// `msg.sender` inside the frame.
    pub caller: Address,
    /// Storage/balance context (callee for calls; ignored for creates).
    pub target: Address,
    /// Where the executed code lives (differs for delegate/callcode).
    pub code_address: Address,
    /// `msg.value` in wei.
    pub value: U256,
    /// Calldata (or init code for creates).
    pub data: Vec<u8>,
    /// Gas available to the frame.
    pub gas: u64,
    /// Static context inherited from a parent STATICCALL.
    pub is_static: bool,
    /// Nesting depth (top-level transaction = 0).
    pub depth: u32,
}

impl Message {
    /// Convenience constructor for a top-level call.
    pub fn call(caller: Address, target: Address, value: U256, data: Vec<u8>, gas: u64) -> Self {
        Message {
            kind: CallKind::Call,
            caller,
            target,
            code_address: target,
            value,
            data,
            gas,
            is_static: false,
            depth: 0,
        }
    }

    /// Convenience constructor for a top-level create.
    pub fn create(caller: Address, value: U256, init_code: Vec<u8>, gas: u64) -> Self {
        Message {
            kind: CallKind::Create,
            caller,
            target: Address::ZERO,
            code_address: Address::ZERO,
            value,
            data: init_code,
            gas,
            is_static: false,
            depth: 0,
        }
    }
}

/// Reasons a frame halted exceptionally (all gas is consumed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// Ran out of gas.
    OutOfGas,
    /// Stack underflow.
    StackUnderflow,
    /// Stack deeper than 1024.
    StackOverflow,
    /// Jump to a non-JUMPDEST target.
    InvalidJump,
    /// Undefined or explicitly invalid opcode.
    InvalidOpcode(u8),
    /// State mutation attempted inside a static frame.
    StaticViolation,
    /// Call depth exceeded 1024.
    CallDepth,
    /// Value transfer with insufficient balance.
    InsufficientBalance,
    /// Deployed code exceeds the EIP-170 size cap.
    CodeSizeLimit,
    /// CREATE target address already occupied.
    CreateCollision,
    /// RETURNDATACOPY past the end of the return buffer.
    ReturnDataOutOfBounds,
}

/// Result of executing one message frame.
#[derive(Debug, Clone)]
pub struct CallResult {
    /// True iff the frame ran to completion (STOP/RETURN/SELFDESTRUCT).
    pub success: bool,
    /// True iff the frame ended with REVERT (state rolled back, output kept,
    /// remaining gas returned).
    pub reverted: bool,
    /// Exceptional halt reason, if any.
    pub halt: Option<Halt>,
    /// Return or revert data.
    pub output: Vec<u8>,
    /// Gas remaining after execution (zero on halts).
    pub gas_left: u64,
    /// Gas refund earned (SSTORE clears, selfdestructs).
    pub gas_refund: u64,
    /// Address of the created contract (creates only).
    pub created: Option<Address>,
}

impl CallResult {
    fn halt(reason: Halt) -> Self {
        CallResult {
            success: false,
            reverted: false,
            halt: Some(reason),
            output: Vec::new(),
            gas_left: 0,
            gas_refund: 0,
            created: None,
        }
    }
}

/// Interpreter configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Cap on deployed code size (EIP-170). Disable by setting `usize::MAX`.
    pub max_code_size: usize,
    /// Count executed instructions (cheap; useful for benches/traces).
    pub count_steps: bool,
    /// Record a structured step trace (see [`TraceStep`]); capped at
    /// [`MAX_TRACE_STEPS`] to bound memory on runaway loops.
    pub trace: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_code_size: gas::MAX_CODE_SIZE,
            count_steps: false,
            trace: false,
        }
    }
}

/// Cap on recorded trace steps.
pub const MAX_TRACE_STEPS: usize = 250_000;

/// One executed instruction in a debug trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Call depth of the executing frame.
    pub depth: u32,
    /// Program counter within the frame's code.
    pub pc: usize,
    /// The opcode byte.
    pub opcode: u8,
    /// Gas remaining *before* executing the instruction.
    pub gas_remaining: u64,
    /// Operand-stack depth before the instruction.
    pub stack_depth: usize,
}

impl TraceStep {
    /// Mnemonic of the traced opcode.
    pub fn mnemonic(&self) -> &'static str {
        opcode::mnemonic(self.opcode)
    }
}

/// Reusable per-frame buffers (operand stack, memory, return data),
/// pooled on the [`Evm`] so nested frames stop reallocating them.
#[derive(Debug)]
struct FrameBufs {
    stack: Stack,
    memory: Memory,
    return_data: Vec<u8>,
}

impl Default for FrameBufs {
    fn default() -> Self {
        FrameBufs {
            stack: Stack::new(),
            memory: Memory::new(),
            return_data: Vec::new(),
        }
    }
}

impl FrameBufs {
    fn reset(&mut self) {
        self.stack.clear();
        self.memory.clear();
        self.return_data.clear();
    }
}

/// The EVM: executes messages against a host.
pub struct Evm<'h, H: Host> {
    host: &'h mut H,
    config: Config,
    /// Instructions executed across all frames (when `count_steps`).
    pub steps: u64,
    /// Structured step trace (when `Config::trace` is set).
    pub trace: Vec<TraceStep>,
    /// Frame-buffer pool: buffers released by completed frames, reused
    /// by the next frame at any depth.
    pool: Vec<FrameBufs>,
}

impl<'h, H: Host> Evm<'h, H> {
    /// Create an interpreter bound to `host`.
    pub fn new(host: &'h mut H) -> Self {
        Self::with_config(host, Config::default())
    }

    /// Create with explicit configuration.
    pub fn with_config(host: &'h mut H, config: Config) -> Self {
        Evm {
            host,
            config,
            steps: 0,
            trace: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Execute a message frame to completion.
    ///
    /// Frames run on the calling thread and hop to a fresh
    /// [`FRAME_STACK_BYTES`] thread every [`FRAME_HOP`] nesting levels, so
    /// the full 1024-frame call depth cannot overflow any native stack
    /// while typical shallow transactions pay no thread spawn at all.
    pub fn execute(&mut self, msg: Message) -> CallResult
    where
        H: Send,
    {
        if msg.depth > MAX_CALL_DEPTH {
            return CallResult::halt(Halt::CallDepth);
        }
        if msg.depth > 0 && msg.depth.is_multiple_of(FRAME_HOP) {
            return self.execute_on_fresh_stack(msg);
        }
        self.dispatch_frame(msg)
    }

    fn dispatch_frame(&mut self, msg: Message) -> CallResult
    where
        H: Send,
    {
        match msg.kind {
            CallKind::Create | CallKind::Create2(_) => self.execute_create(msg),
            _ => self.execute_call(msg),
        }
    }

    /// Continue execution of `msg` on a fresh thread stack; steps, trace
    /// and the buffer pool are handed over and merged back on return, so
    /// semantics are identical to plain recursion.
    fn execute_on_fresh_stack(&mut self, msg: Message) -> CallResult
    where
        H: Send,
    {
        let config = self.config.clone();
        let host = &mut *self.host;
        let pool = std::mem::take(&mut self.pool);
        let (result, steps, trace, pool) = std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("lsc-evm-frame".into())
                .stack_size(FRAME_STACK_BYTES)
                .spawn_scoped(scope, move || {
                    let mut evm = Evm::with_config(host, config);
                    evm.pool = pool;
                    let result = evm.dispatch_frame(msg);
                    (result, evm.steps, evm.trace, evm.pool)
                })
                .expect("spawn interpreter thread")
                .join()
                .expect("interpreter thread panicked")
        });
        self.steps += steps;
        let room = MAX_TRACE_STEPS.saturating_sub(self.trace.len());
        self.trace.extend(trace.into_iter().take(room));
        self.pool = pool;
        result
    }

    fn execute_call(&mut self, msg: Message) -> CallResult
    where
        H: Send,
    {
        let snapshot = self.host.snapshot();
        // Value moves from caller to target for plain calls; CALLCODE moves
        // value to self (a no-op transfer but the balance check applies).
        let transfer_ok = match msg.kind {
            CallKind::Call => self.host.transfer(msg.caller, msg.target, msg.value),
            CallKind::CallCode => self.host.balance(msg.caller) >= msg.value,
            _ => true,
        };
        if !transfer_ok {
            self.host.revert(snapshot);
            return CallResult::halt(Halt::InsufficientBalance);
        }
        let analysis = self.host.code_analysis(msg.code_address);
        if analysis.is_empty() {
            // Calling an EOA or empty account succeeds immediately.
            return CallResult {
                success: true,
                reverted: false,
                halt: None,
                output: Vec::new(),
                gas_left: msg.gas,
                gas_refund: 0,
                created: None,
            };
        }
        let result = self.run_frame(&msg, &analysis, msg.target);
        if !result.success {
            self.host.revert(snapshot);
        }
        result
    }

    fn execute_create(&mut self, mut msg: Message) -> CallResult
    where
        H: Send,
    {
        let nonce = self.host.inc_nonce(msg.caller);
        let created = match msg.kind {
            CallKind::Create2(salt) => {
                let mut salt_bytes = [0u8; 32];
                salt_bytes.copy_from_slice(salt.as_bytes());
                Address::create2(msg.caller, salt_bytes, &msg.data)
            }
            _ => Address::create(msg.caller, nonce),
        };
        // Collision check: an account with code or nonce is occupied.
        if !self.host.code_analysis(created).is_empty() || self.host.nonce(created) > 0 {
            return CallResult::halt(Halt::CreateCollision);
        }
        let snapshot = self.host.snapshot();
        self.host.create_account(created);
        self.host.inc_nonce(created); // EIP-161: created contracts start at nonce 1
        if !self.host.transfer(msg.caller, created, msg.value) {
            self.host.revert(snapshot);
            return CallResult::halt(Halt::InsufficientBalance);
        }
        // Init code runs once; analyze it directly without a host cache.
        let init_code = AnalyzedCode::analyze(Arc::new(std::mem::take(&mut msg.data)));
        let frame_msg = Message {
            target: created,
            code_address: created,
            data: Vec::new(),
            ..msg
        };
        let mut result = self.run_frame(&frame_msg, &init_code, created);
        if result.success {
            // The frame's return data is the runtime code to deploy.
            if result.output.len() > self.config.max_code_size {
                self.host.revert(snapshot);
                return CallResult::halt(Halt::CodeSizeLimit);
            }
            let deposit = gas::CODE_DEPOSIT_BYTE * result.output.len() as u64;
            if result.gas_left < deposit {
                self.host.revert(snapshot);
                return CallResult::halt(Halt::OutOfGas);
            }
            result.gas_left -= deposit;
            self.host
                .set_code(created, std::mem::take(&mut result.output));
            result.created = Some(created);
        } else {
            self.host.revert(snapshot);
        }
        result
    }

    /// Run the interpreter loop over `analysis` in the storage context
    /// `this`, checking frame buffers out of (and back into) the pool.
    fn run_frame(&mut self, msg: &Message, analysis: &AnalyzedCode, this: Address) -> CallResult
    where
        H: Send,
    {
        let mut bufs = self.pool.pop().unwrap_or_default();
        bufs.reset();
        let result = self.frame_loop(msg, analysis, this, &mut bufs);
        // Oversized memories are dropped rather than parked in the pool.
        if bufs.memory.capacity() <= POOL_MEMORY_CAP {
            self.pool.push(bufs);
        }
        result
    }

    /// The interpreter loop proper: runs one frame from `pc = 0` with a
    /// fresh gas meter.
    #[allow(clippy::too_many_lines)]
    fn frame_loop(
        &mut self,
        msg: &Message,
        analysis: &AnalyzedCode,
        this: Address,
        bufs: &mut FrameBufs,
    ) -> CallResult
    where
        H: Send,
    {
        let code = analysis.code();
        let mut pc = 0usize;
        let mut meter = GasMeter::new(msg.gas);
        let FrameBufs {
            stack,
            memory,
            return_data,
        } = bufs;

        macro_rules! halt {
            ($reason:expr) => {
                return CallResult::halt($reason)
            };
        }
        macro_rules! try_stack {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(StackError::Underflow) => halt!(Halt::StackUnderflow),
                    Err(StackError::Overflow) => halt!(Halt::StackOverflow),
                }
            };
        }
        macro_rules! try_gas {
            ($e:expr) => {
                if let Err(OutOfGas) = $e {
                    halt!(Halt::OutOfGas)
                }
            };
        }

        /// Charge for memory expansion to cover `[offset, offset+len)`.
        macro_rules! expand_memory {
            ($offset:expr, $len:expr) => {{
                let offset: usize = $offset;
                let len: usize = $len;
                if len > 0 {
                    let end = offset.saturating_add(len) as u64;
                    let new_words = gas::words(end);
                    let old_words = memory.words();
                    if new_words > old_words {
                        let cost = gas::memory_gas(new_words) - gas::memory_gas(old_words);
                        try_gas!(meter.charge(cost));
                    }
                    memory.expand(offset, len);
                }
            }};
        }
        /// Pop a U256 and convert to usize, halting on absurd sizes.
        macro_rules! pop_usize {
            () => {{
                let v = try_stack!(stack.pop());
                match v.to_usize() {
                    Some(u) if u <= u32::MAX as usize => u,
                    // Offsets beyond 4 GiB always exhaust gas via memory cost.
                    _ => halt!(Halt::OutOfGas),
                }
            }};
        }

        while pc < code.len() {
            let byte = code[pc];
            if self.config.count_steps {
                self.steps += 1;
            }
            if self.config.trace && self.trace.len() < MAX_TRACE_STEPS {
                self.trace.push(TraceStep {
                    depth: msg.depth,
                    pc,
                    opcode: byte,
                    gas_remaining: meter.remaining(),
                    stack_depth: stack.len(),
                });
            }
            match byte {
                op::STOP => {
                    return CallResult {
                        success: true,
                        reverted: false,
                        halt: None,
                        output: Vec::new(),
                        gas_left: meter.remaining(),
                        gas_refund: meter.refund(),
                        created: None,
                    };
                }
                op::ADD
                | op::SUB
                | op::LT
                | op::GT
                | op::SLT
                | op::SGT
                | op::EQ
                | op::AND
                | op::OR
                | op::XOR
                | op::SHL
                | op::SHR
                | op::SAR
                | op::BYTE => {
                    try_gas!(meter.charge(gas::VERYLOW));
                    let a = try_stack!(stack.pop());
                    let b = try_stack!(stack.pop());
                    let r = match byte {
                        op::ADD => a.wrapping_add(b),
                        op::SUB => a.wrapping_sub(b),
                        op::LT => U256::from(a < b),
                        op::GT => U256::from(a > b),
                        op::SLT => U256::from(a.slt(b)),
                        op::SGT => U256::from(a.sgt(b)),
                        op::EQ => U256::from(a == b),
                        op::AND => a & b,
                        op::OR => a | b,
                        op::XOR => a ^ b,
                        op::SHL => b << a,
                        op::SHR => b >> a,
                        op::SAR => b.sar(a),
                        op::BYTE => b.byte_be(a),
                        _ => unreachable!(),
                    };
                    try_stack!(stack.push(r));
                }
                op::MUL | op::DIV | op::SDIV | op::MOD | op::SMOD | op::SIGNEXTEND => {
                    try_gas!(meter.charge(gas::LOW));
                    let a = try_stack!(stack.pop());
                    let b = try_stack!(stack.pop());
                    let r = match byte {
                        op::MUL => a.wrapping_mul(b),
                        op::DIV => a.div_rem(b).0,
                        op::SDIV => a.sdiv(b),
                        op::MOD => a.div_rem(b).1,
                        op::SMOD => a.smod(b),
                        op::SIGNEXTEND => b.sign_extend(a),
                        _ => unreachable!(),
                    };
                    try_stack!(stack.push(r));
                }
                op::ADDMOD | op::MULMOD => {
                    try_gas!(meter.charge(gas::MID));
                    let a = try_stack!(stack.pop());
                    let b = try_stack!(stack.pop());
                    let m = try_stack!(stack.pop());
                    let r = if byte == op::ADDMOD {
                        a.add_mod(b, m)
                    } else {
                        a.mul_mod(b, m)
                    };
                    try_stack!(stack.push(r));
                }
                op::EXP => {
                    let a = try_stack!(stack.pop());
                    let e = try_stack!(stack.pop());
                    try_gas!(meter.charge(gas::exp_gas(e)));
                    try_stack!(stack.push(a.wrapping_pow(e)));
                }
                op::ISZERO | op::NOT => {
                    try_gas!(meter.charge(gas::VERYLOW));
                    let a = try_stack!(stack.pop());
                    let r = if byte == op::ISZERO {
                        U256::from(a.is_zero())
                    } else {
                        !a
                    };
                    try_stack!(stack.push(r));
                }
                op::KECCAK256 => {
                    let offset = pop_usize!();
                    let len = pop_usize!();
                    try_gas!(
                        meter.charge(gas::KECCAK256 + gas::KECCAK256_WORD * gas::words(len as u64))
                    );
                    expand_memory!(offset, len);
                    let hash = keccak256(memory.slice(offset, len));
                    try_stack!(stack.push(U256::from_be_bytes(hash)));
                }
                op::ADDRESS => {
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.push(this.to_u256()));
                }
                op::BALANCE => {
                    try_gas!(meter.charge(gas::BALANCE));
                    let a = Address::from_u256(try_stack!(stack.pop()));
                    try_stack!(stack.push(self.host.balance(a)));
                }
                op::SELFBALANCE => {
                    try_gas!(meter.charge(gas::LOW));
                    try_stack!(stack.push(self.host.balance(this)));
                }
                op::ORIGIN => {
                    // We do not thread the original EOA through frames; the
                    // top-level caller is a fine stand-in for this workspace.
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.push(msg.caller.to_u256()));
                }
                op::CALLER => {
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.push(msg.caller.to_u256()));
                }
                op::CALLVALUE => {
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.push(msg.value));
                }
                op::CALLDATALOAD => {
                    try_gas!(meter.charge(gas::VERYLOW));
                    let offset = try_stack!(stack.pop());
                    let mut buf = [0u8; 32];
                    if let Some(off) = offset.to_usize() {
                        for (i, b) in buf.iter_mut().enumerate() {
                            *b = msg.data.get(off + i).copied().unwrap_or(0);
                        }
                    }
                    try_stack!(stack.push(U256::from_be_bytes(buf)));
                }
                op::CALLDATASIZE => {
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.push(U256::from(msg.data.len())));
                }
                op::CALLDATACOPY | op::CODECOPY => {
                    let dst = pop_usize!();
                    let src = pop_usize!();
                    let len = pop_usize!();
                    try_gas!(meter.charge(gas::VERYLOW + gas::COPY_WORD * gas::words(len as u64)));
                    expand_memory!(dst, len);
                    if len > 0 {
                        let source: &[u8] = if byte == op::CALLDATACOPY {
                            &msg.data
                        } else {
                            code
                        };
                        let tail = source.get(src..).unwrap_or(&[]);
                        memory.store_slice_padded(dst, tail, len);
                    }
                }
                op::CODESIZE => {
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.push(U256::from(code.len())));
                }
                op::GASPRICE => {
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.push(self.host.gas_price()));
                }
                op::EXTCODESIZE => {
                    try_gas!(meter.charge(gas::EXTCODE));
                    let a = Address::from_u256(try_stack!(stack.pop()));
                    try_stack!(stack.push(U256::from(self.host.code_analysis(a).len())));
                }
                op::EXTCODECOPY => {
                    let a = Address::from_u256(try_stack!(stack.pop()));
                    let dst = pop_usize!();
                    let src = pop_usize!();
                    let len = pop_usize!();
                    try_gas!(meter.charge(gas::EXTCODE + gas::COPY_WORD * gas::words(len as u64)));
                    expand_memory!(dst, len);
                    if len > 0 {
                        let ext = self.host.code_analysis(a);
                        let tail = ext.code().get(src..).unwrap_or(&[]);
                        memory.store_slice_padded(dst, tail, len);
                    }
                }
                op::EXTCODEHASH => {
                    try_gas!(meter.charge(gas::BALANCE));
                    let a = Address::from_u256(try_stack!(stack.pop()));
                    try_stack!(stack.push(self.host.code_hash(a).to_u256()));
                }
                op::RETURNDATASIZE => {
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.push(U256::from(return_data.len())));
                }
                op::RETURNDATACOPY => {
                    let dst = pop_usize!();
                    let src = pop_usize!();
                    let len = pop_usize!();
                    try_gas!(meter.charge(gas::VERYLOW + gas::COPY_WORD * gas::words(len as u64)));
                    if src.saturating_add(len) > return_data.len() {
                        halt!(Halt::ReturnDataOutOfBounds);
                    }
                    expand_memory!(dst, len);
                    if len > 0 {
                        memory.store_slice_padded(dst, &return_data[src..src + len], len);
                    }
                }
                op::BLOCKHASH => {
                    try_gas!(meter.charge(gas::BLOCKHASH));
                    let n = try_stack!(stack.pop());
                    let h = n.to_u64().map_or(H256::ZERO, |n| self.host.blockhash(n));
                    try_stack!(stack.push(h.to_u256()));
                }
                op::COINBASE => {
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.push(self.host.block().coinbase.to_u256()));
                }
                op::TIMESTAMP => {
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.push(U256::from(self.host.block().timestamp)));
                }
                op::NUMBER => {
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.push(U256::from(self.host.block().number)));
                }
                op::DIFFICULTY => {
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.push(self.host.block().difficulty));
                }
                op::GASLIMIT => {
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.push(U256::from(self.host.block().gas_limit)));
                }
                op::CHAINID => {
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.push(U256::from(self.host.block().chain_id)));
                }
                op::POP => {
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.pop());
                }
                op::MLOAD => {
                    try_gas!(meter.charge(gas::VERYLOW));
                    let offset = pop_usize!();
                    expand_memory!(offset, 32);
                    try_stack!(stack.push(memory.load_word(offset)));
                }
                op::MSTORE => {
                    try_gas!(meter.charge(gas::VERYLOW));
                    let offset = pop_usize!();
                    let value = try_stack!(stack.pop());
                    expand_memory!(offset, 32);
                    memory.store_word(offset, value);
                }
                op::MSTORE8 => {
                    try_gas!(meter.charge(gas::VERYLOW));
                    let offset = pop_usize!();
                    let value = try_stack!(stack.pop());
                    expand_memory!(offset, 1);
                    memory.store_byte(offset, value.low_u64() as u8);
                }
                op::SLOAD => {
                    try_gas!(meter.charge(gas::SLOAD));
                    let key = try_stack!(stack.pop());
                    try_stack!(stack.push(self.host.sload(this, key)));
                }
                op::SSTORE => {
                    if msg.is_static {
                        halt!(Halt::StaticViolation);
                    }
                    let key = try_stack!(stack.pop());
                    let value = try_stack!(stack.pop());
                    let prev = self.host.sload(this, key);
                    let cost = if prev.is_zero() && !value.is_zero() {
                        gas::SSTORE_SET
                    } else {
                        gas::SSTORE_RESET
                    };
                    try_gas!(meter.charge(cost));
                    if !prev.is_zero() && value.is_zero() {
                        meter.add_refund(gas::SSTORE_CLEAR_REFUND);
                    }
                    self.host.sstore(this, key, value);
                }
                op::JUMP => {
                    try_gas!(meter.charge(gas::MID));
                    let dest = try_stack!(stack.pop());
                    match dest.to_usize() {
                        Some(d) if analysis.is_jumpdest(d) => {
                            pc = d;
                            continue;
                        }
                        _ => halt!(Halt::InvalidJump),
                    }
                }
                op::JUMPI => {
                    try_gas!(meter.charge(gas::HIGH));
                    let dest = try_stack!(stack.pop());
                    let cond = try_stack!(stack.pop());
                    if !cond.is_zero() {
                        match dest.to_usize() {
                            Some(d) if analysis.is_jumpdest(d) => {
                                pc = d;
                                continue;
                            }
                            _ => halt!(Halt::InvalidJump),
                        }
                    }
                }
                op::PC => {
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.push(U256::from(pc)));
                }
                op::MSIZE => {
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.push(U256::from(memory.len())));
                }
                op::GAS => {
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.push(U256::from(meter.remaining())));
                }
                op::JUMPDEST => {
                    try_gas!(meter.charge(gas::JUMPDEST));
                }
                op::PUSH0 => {
                    try_gas!(meter.charge(gas::BASE));
                    try_stack!(stack.push(U256::ZERO));
                }
                op::PUSH1..=op::PUSH32 => {
                    try_gas!(meter.charge(gas::VERYLOW));
                    let n = (byte - op::PUSH1 + 1) as usize;
                    let end = (pc + 1 + n).min(code.len());
                    let value = U256::from_be_slice(&code[pc + 1..end]);
                    // Truncated push at end of code zero-pads on the right.
                    let value = if end < pc + 1 + n {
                        value << (8 * (pc + 1 + n - end) as u32)
                    } else {
                        value
                    };
                    try_stack!(stack.push(value));
                    pc += 1 + n;
                    continue;
                }
                op::DUP1..=op::DUP16 => {
                    try_gas!(meter.charge(gas::VERYLOW));
                    try_stack!(stack.dup((byte - op::DUP1 + 1) as usize));
                }
                op::SWAP1..=op::SWAP16 => {
                    try_gas!(meter.charge(gas::VERYLOW));
                    try_stack!(stack.swap((byte - op::SWAP1 + 1) as usize));
                }
                op::LOG0..=op::LOG4 => {
                    if msg.is_static {
                        halt!(Halt::StaticViolation);
                    }
                    let n_topics = (byte - op::LOG0) as usize;
                    let offset = pop_usize!();
                    let len = pop_usize!();
                    try_gas!(meter.charge(
                        gas::LOG + gas::LOG_TOPIC * n_topics as u64 + gas::LOG_DATA * len as u64
                    ));
                    expand_memory!(offset, len);
                    let mut topics = Vec::with_capacity(n_topics);
                    for _ in 0..n_topics {
                        topics.push(H256::from_u256(try_stack!(stack.pop())));
                    }
                    let data = memory.to_vec(offset, len);
                    self.host.log(Log {
                        address: this,
                        topics,
                        data,
                    });
                }
                op::CREATE | op::CREATE2 => {
                    if msg.is_static {
                        halt!(Halt::StaticViolation);
                    }
                    let value = try_stack!(stack.pop());
                    let offset = pop_usize!();
                    let len = pop_usize!();
                    let salt = if byte == op::CREATE2 {
                        let s = try_stack!(stack.pop());
                        // CREATE2 pays to hash the init code.
                        try_gas!(meter.charge(gas::KECCAK256_WORD * gas::words(len as u64)));
                        Some(H256::from_u256(s))
                    } else {
                        None
                    };
                    try_gas!(meter.charge(gas::CREATE));
                    expand_memory!(offset, len);
                    let init_code = memory.to_vec(offset, len);
                    let child_gas = gas::max_call_gas(meter.remaining());
                    try_gas!(meter.charge(child_gas));
                    let kind = match salt {
                        Some(s) => CallKind::Create2(s),
                        None => CallKind::Create,
                    };
                    let child = Message {
                        kind,
                        caller: this,
                        target: Address::ZERO,
                        code_address: Address::ZERO,
                        value,
                        data: init_code,
                        gas: child_gas,
                        is_static: false,
                        depth: msg.depth + 1,
                    };
                    let result = self.execute(child);
                    meter.reclaim(result.gas_left);
                    if result.success {
                        meter.add_refund(result.gas_refund);
                        return_data.clear();
                        let addr = result.created.expect("successful create has address");
                        try_stack!(stack.push(addr.to_u256()));
                    } else {
                        *return_data = result.output;
                        try_stack!(stack.push(U256::ZERO));
                    }
                }
                op::CALL | op::CALLCODE | op::DELEGATECALL | op::STATICCALL => {
                    let gas_requested = try_stack!(stack.pop());
                    let to = Address::from_u256(try_stack!(stack.pop()));
                    let value = if byte == op::CALL || byte == op::CALLCODE {
                        try_stack!(stack.pop())
                    } else {
                        U256::ZERO
                    };
                    if byte == op::CALL && msg.is_static && !value.is_zero() {
                        halt!(Halt::StaticViolation);
                    }
                    let in_off = pop_usize!();
                    let in_len = pop_usize!();
                    let out_off = pop_usize!();
                    let out_len = pop_usize!();
                    let mut upfront = gas::CALL;
                    if !value.is_zero() {
                        upfront += gas::CALL_VALUE;
                        if byte == op::CALL && !self.host.exists(to) {
                            upfront += gas::NEW_ACCOUNT;
                        }
                    }
                    try_gas!(meter.charge(upfront));
                    expand_memory!(in_off, in_len);
                    expand_memory!(out_off, out_len);
                    let cap = gas::max_call_gas(meter.remaining());
                    let mut child_gas = match gas_requested.to_u64() {
                        Some(g) => (g).min(cap),
                        None => cap,
                    };
                    try_gas!(meter.charge(child_gas));
                    if !value.is_zero() {
                        child_gas += gas::CALL_STIPEND;
                    }
                    let data = memory.to_vec(in_off, in_len);
                    let child = match byte {
                        op::CALL => Message {
                            kind: CallKind::Call,
                            caller: this,
                            target: to,
                            code_address: to,
                            value,
                            data,
                            gas: child_gas,
                            is_static: msg.is_static,
                            depth: msg.depth + 1,
                        },
                        op::CALLCODE => Message {
                            kind: CallKind::CallCode,
                            caller: this,
                            target: this,
                            code_address: to,
                            value,
                            data,
                            gas: child_gas,
                            is_static: msg.is_static,
                            depth: msg.depth + 1,
                        },
                        op::DELEGATECALL => Message {
                            kind: CallKind::DelegateCall,
                            caller: msg.caller,
                            target: this,
                            code_address: to,
                            value: msg.value,
                            data,
                            gas: child_gas,
                            is_static: msg.is_static,
                            depth: msg.depth + 1,
                        },
                        _ => Message {
                            kind: CallKind::StaticCall,
                            caller: this,
                            target: to,
                            code_address: to,
                            value: U256::ZERO,
                            data,
                            gas: child_gas,
                            is_static: true,
                            depth: msg.depth + 1,
                        },
                    };
                    let mut result = self.execute(child);
                    // Unused child gas (beyond any stipend) returns to us.
                    meter.reclaim(result.gas_left.min(child_gas));
                    if result.success {
                        meter.add_refund(result.gas_refund);
                    }
                    *return_data = std::mem::take(&mut result.output);
                    let copy_len = out_len.min(return_data.len());
                    if copy_len > 0 {
                        memory.store_slice_padded(out_off, &return_data[..copy_len], copy_len);
                    }
                    try_stack!(stack.push(U256::from(result.success)));
                }
                op::RETURN | op::REVERT => {
                    let offset = pop_usize!();
                    let len = pop_usize!();
                    expand_memory!(offset, len);
                    let output = memory.to_vec(offset, len);
                    let success = byte == op::RETURN;
                    return CallResult {
                        success,
                        reverted: !success,
                        halt: None,
                        output,
                        gas_left: meter.remaining(),
                        gas_refund: if success { meter.refund() } else { 0 },
                        created: None,
                    };
                }
                op::SELFDESTRUCT => {
                    if msg.is_static {
                        halt!(Halt::StaticViolation);
                    }
                    try_gas!(meter.charge(gas::SELFDESTRUCT));
                    let beneficiary = Address::from_u256(try_stack!(stack.pop()));
                    self.host.selfdestruct(this, beneficiary);
                    meter.add_refund(gas::SELFDESTRUCT_REFUND);
                    return CallResult {
                        success: true,
                        reverted: false,
                        halt: None,
                        output: Vec::new(),
                        gas_left: meter.remaining(),
                        gas_refund: meter.refund(),
                        created: None,
                    };
                }
                other => halt!(Halt::InvalidOpcode(other)),
            }
            pc += 1;
        }
        // Fell off the end of the code: implicit STOP.
        CallResult {
            success: true,
            reverted: false,
            halt: None,
            output: Vec::new(),
            gas_left: meter.remaining(),
            gas_refund: meter.refund(),
            created: None,
        }
    }
}
