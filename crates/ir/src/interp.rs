//! A reference interpreter for the IR.
//!
//! The interpreter gives the IR an executable semantics so that every
//! out-of-SSA translation can be checked end-to-end: a function and its
//! translated form must produce identical outputs on identical inputs.
//!
//! Semantics notes:
//! * values are `i64` with wrapping arithmetic; shifts mask their amount;
//! * memory is a sparse word-addressed map, initially `default_mem`
//!   everywhere;
//! * `call` is a *deterministic pure function* of the callee name and the
//!   argument values (a hash mix) — enough to detect any misrouted value
//!   through ABI registers without modeling real callees;
//! * φs at a block entry evaluate in parallel with values flowing from
//!   the edge just taken; ψ takes the last satisfied guard, 0 otherwise.

use crate::function::Function;
use crate::ids::{Block, Var};
use crate::opcode::Opcode;
use std::collections::HashMap;

/// Why execution stopped abnormally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Trap {
    /// The step budget was exhausted (likely an infinite loop).
    OutOfFuel,
    /// A variable was read before any assignment.
    UndefinedVar(Var, String),
    /// Control reached a block without a terminator.
    MissingTerminator(Block),
    /// `input` requested more values than were supplied.
    NotEnoughInputs,
    /// A `spillld` read a stack slot no `spillst` has written (a
    /// register allocator dropped or misplaced a reload's store).
    UnwrittenSlot(i64),
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::OutOfFuel => write!(f, "out of fuel"),
            Trap::UndefinedVar(v, name) => write!(f, "read of undefined {v} (`{name}`)"),
            Trap::MissingTerminator(b) => write!(f, "block {b} has no terminator"),
            Trap::NotEnoughInputs => write!(f, "not enough input values"),
            Trap::UnwrittenSlot(s) => write!(f, "spill reload of unwritten stack slot {s}"),
        }
    }
}

impl std::error::Error for Trap {}

/// Result of a successful run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecResult {
    /// Values of the `ret` uses, in order.
    pub outputs: Vec<i64>,
    /// Instructions executed.
    pub steps: u64,
}

/// Deterministic model of an external call: a hash mix of the callee name
/// and arguments. Exposed so tests can predict call results.
pub fn call_model(callee: &str, args: &[i64]) -> i64 {
    let mut h: i64 = 0x517c_c1b7_2722_0a95u64 as i64;
    for b in callee.bytes() {
        h = (h ^ b as i64).wrapping_mul(0x0100_0000_01b3);
    }
    for &a in args {
        h = (h ^ a).wrapping_mul(0x0100_0000_01b3);
        h = h.rotate_left(13);
    }
    h
}

/// The variable environment: a dense value/defined-flag pair per
/// variable id. Variables are never created mid-run, so both frames are
/// sized once; reads and writes are direct indexing instead of the
/// hashing a `HashMap<Var, i64>` pays on every executed operand.
struct Env {
    vals: Vec<i64>,
    defined: Vec<bool>,
}

impl Env {
    fn new(n: usize) -> Env {
        Env {
            vals: vec![0; n],
            defined: vec![false; n],
        }
    }

    fn write(&mut self, v: Var, x: i64) {
        self.vals[v.index()] = x;
        self.defined[v.index()] = true;
    }
}

/// The spill frame: dense for the non-negative slot indices the spiller
/// produces, with a sparse spill-over for any negative slot a
/// hand-written test might use. `None`/absent means unwritten (a trap
/// on reload, unlike main memory's `default_mem`).
#[derive(Default)]
struct Frame {
    dense: Vec<Option<i64>>,
    sparse: HashMap<i64, i64>,
}

impl Frame {
    fn store(&mut self, slot: i64, v: i64) {
        match usize::try_from(slot) {
            Ok(s) => {
                if s >= self.dense.len() {
                    self.dense.resize(s + 1, None);
                }
                self.dense[s] = Some(v);
            }
            Err(_) => {
                self.sparse.insert(slot, v);
            }
        }
    }

    fn load(&self, slot: i64) -> Option<i64> {
        match usize::try_from(slot) {
            Ok(s) => self.dense.get(s).copied().flatten(),
            Err(_) => self.sparse.get(&slot).copied(),
        }
    }
}

/// Runs `f` on `inputs` with a step budget.
///
/// # Errors
/// Returns a [`Trap`] on undefined reads, missing terminators, fuel
/// exhaustion, or insufficient inputs.
pub fn run(f: &Function, inputs: &[i64], fuel: u64) -> Result<ExecResult, Trap> {
    let mut env = Env::new(f.num_vars());
    let mut mem: HashMap<i64, i64> = HashMap::new();
    // The spill frame is separate from `mem`: slots are indices, not
    // addresses, and reading an unwritten slot is a trap rather than a
    // `default_mem` value.
    let mut frame = Frame::default();
    let mut steps: u64 = 0;
    let mut block = f.entry;

    // Dedicated (special-class) registers such as SP have a well-defined
    // incoming value; every variable carrying such a register identity
    // starts with it. General-purpose register variables stay undefined
    // so misrouted values still trap.
    for v in f.vars() {
        if let Some(reg) = f.var(v).reg {
            if f.machine.reg_class(reg) == crate::machine::RegClass::Special {
                env.write(v, 0x0010_0000 + (reg.index() as i64) * 0x1_0000);
            }
        }
    }

    let read = |env: &Env, v: Var| -> Result<i64, Trap> {
        if env.defined[v.index()] {
            Ok(env.vals[v.index()])
        } else {
            Err(Trap::UndefinedVar(v, f.var(v).name.clone()))
        }
    };

    let mut updates: Vec<(Var, i64)> = Vec::new();
    loop {
        // Execute the block's instructions (φs were handled on edge entry;
        // at the entry block there are none).
        let mut next: Option<Block> = None;
        for &i in &f.block(block).insts {
            let inst = f.inst(i);
            if inst.is_phi() {
                continue; // evaluated on edge transfer
            }
            steps += 1;
            if steps > fuel {
                tossa_trace::count(tossa_trace::Counter::InterpSteps, steps);
                return Err(Trap::OutOfFuel);
            }
            let u = |idx: usize| read(&env, inst.uses[idx].var);
            match inst.opcode {
                Opcode::Input => {
                    if inputs.len() < inst.defs.len() {
                        return Err(Trap::NotEnoughInputs);
                    }
                    for (k, d) in inst.defs.iter().enumerate() {
                        env.write(d.var, inputs[k]);
                    }
                }
                Opcode::Mov => {
                    let v = u(0)?;
                    env.write(inst.defs[0].var, v);
                }
                Opcode::Make => {
                    env.write(inst.defs[0].var, inst.imm);
                }
                Opcode::More => {
                    let v = u(0)?;
                    env.write(inst.defs[0].var, (v << 16) | (inst.imm & 0xffff));
                }
                Opcode::Add => {
                    let v = u(0)?.wrapping_add(u(1)?);
                    env.write(inst.defs[0].var, v);
                }
                Opcode::Sub => {
                    let v = u(0)?.wrapping_sub(u(1)?);
                    env.write(inst.defs[0].var, v);
                }
                Opcode::Mul => {
                    let v = u(0)?.wrapping_mul(u(1)?);
                    env.write(inst.defs[0].var, v);
                }
                Opcode::And => {
                    let v = u(0)? & u(1)?;
                    env.write(inst.defs[0].var, v);
                }
                Opcode::Or => {
                    let v = u(0)? | u(1)?;
                    env.write(inst.defs[0].var, v);
                }
                Opcode::Xor => {
                    let v = u(0)? ^ u(1)?;
                    env.write(inst.defs[0].var, v);
                }
                Opcode::Shl => {
                    let v = u(0)?.wrapping_shl(u(1)? as u32 & 63);
                    env.write(inst.defs[0].var, v);
                }
                Opcode::Shr => {
                    let v = u(0)?.wrapping_shr(u(1)? as u32 & 63);
                    env.write(inst.defs[0].var, v);
                }
                Opcode::Neg => {
                    let v = u(0)?.wrapping_neg();
                    env.write(inst.defs[0].var, v);
                }
                Opcode::Not => {
                    let v = !u(0)?;
                    env.write(inst.defs[0].var, v);
                }
                Opcode::AddImm | Opcode::AutoAdd => {
                    let v = u(0)?.wrapping_add(inst.imm);
                    env.write(inst.defs[0].var, v);
                }
                Opcode::Load => {
                    let addr = u(0)?;
                    let v = mem.get(&addr).copied().unwrap_or_else(|| default_mem(addr));
                    env.write(inst.defs[0].var, v);
                }
                Opcode::Store => {
                    let addr = u(0)?;
                    let v = u(1)?;
                    mem.insert(addr, v);
                }
                Opcode::SpillStore => {
                    let v = u(0)?;
                    frame.store(inst.imm, v);
                }
                Opcode::SpillLoad => {
                    let v = frame.load(inst.imm).ok_or(Trap::UnwrittenSlot(inst.imm))?;
                    env.write(inst.defs[0].var, v);
                }
                Opcode::CmpEq => {
                    let v = (u(0)? == u(1)?) as i64;
                    env.write(inst.defs[0].var, v);
                }
                Opcode::CmpNe => {
                    let v = (u(0)? != u(1)?) as i64;
                    env.write(inst.defs[0].var, v);
                }
                Opcode::CmpLt => {
                    let v = (u(0)? < u(1)?) as i64;
                    env.write(inst.defs[0].var, v);
                }
                Opcode::CmpLe => {
                    let v = (u(0)? <= u(1)?) as i64;
                    env.write(inst.defs[0].var, v);
                }
                Opcode::Select | Opcode::PSel => {
                    let v = if u(0)? != 0 { u(1)? } else { u(2)? };
                    env.write(inst.defs[0].var, v);
                }
                Opcode::Call => {
                    let mut args = Vec::with_capacity(inst.uses.len());
                    for k in 0..inst.uses.len() {
                        args.push(u(k)?);
                    }
                    let callee = inst.callee.unwrap_or("");
                    let v = call_model(callee, &args);
                    if let Some(d) = inst.defs.first() {
                        env.write(d.var, v);
                    }
                }
                Opcode::Psi => {
                    let mut v = 0;
                    for pair in inst.uses.chunks(2) {
                        if read(&env, pair[0].var)? != 0 {
                            v = read(&env, pair[1].var)?;
                        }
                    }
                    env.write(inst.defs[0].var, v);
                }
                Opcode::Br => {
                    let c = u(0)?;
                    next = Some(if c != 0 {
                        inst.targets[0]
                    } else {
                        inst.targets[1]
                    });
                }
                Opcode::Jump => {
                    next = Some(inst.targets[0]);
                }
                Opcode::Ret => {
                    let mut outputs = Vec::with_capacity(inst.uses.len());
                    for k in 0..inst.uses.len() {
                        outputs.push(u(k)?);
                    }
                    tossa_trace::count(tossa_trace::Counter::InterpSteps, steps);
                    return Ok(ExecResult { outputs, steps });
                }
                Opcode::Phi => unreachable!("phis skipped above"),
            }
        }
        let Some(next_block) = next else {
            return Err(Trap::MissingTerminator(block));
        };
        // Edge transfer: evaluate the successor's φs in parallel. The
        // staging buffer (reads first, writes after) is reused across
        // iterations.
        updates.clear();
        for phi in f.phis(next_block) {
            let inst = f.inst(phi);
            let arg = inst.phi_arg_for(block).ok_or_else(|| {
                Trap::UndefinedVar(inst.defs[0].var, "phi missing pred".to_string())
            })?;
            updates.push((inst.defs[0].var, read(&env, arg.var)?));
            steps += 1;
            if steps > fuel {
                tossa_trace::count(tossa_trace::Counter::InterpSteps, steps);
                return Err(Trap::OutOfFuel);
            }
        }
        for &(d, v) in &updates {
            env.write(d, v);
        }
        block = next_block;
    }
}

/// Initial content of memory at `addr` — a fixed pseudo-random pattern so
/// loads of unwritten cells are deterministic but nontrivial.
pub fn default_mem(addr: i64) -> i64 {
    (addr ^ 0x5bd1_e995).wrapping_mul(0x2545_f491_4f6c_dd1d) >> 17
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::parse::parse_function;

    fn parse(text: &str) -> Function {
        parse_function(text, &Machine::dsp32()).unwrap()
    }

    #[test]
    fn arithmetic_and_inputs() {
        let f = parse(
            "func @t {
entry:
  %a, %b = input
  %s = add %a, %b
  %d = mul %s, %s
  ret %d
}",
        );
        let r = run(&f, &[3, 4], 100).unwrap();
        assert_eq!(r.outputs, vec![49]);
    }

    #[test]
    fn loop_with_phi() {
        // sum 0..n via φ
        let f = parse(
            "func @sum {
entry:
  %n = input
  %z = make 0
  jump head
head:
  %i = phi [entry: %z], [body: %i2]
  %acc = phi [entry: %z], [body: %acc2]
  %c = cmplt %i, %n
  br %c, body, exit
body:
  %i2 = addi %i, 1
  %acc2 = add %acc, %i
  jump head
exit:
  ret %acc
}",
        );
        assert!(f.validate().is_ok(), "{:?}", f.validate());
        let r = run(&f, &[5], 1000).unwrap();
        assert_eq!(r.outputs, vec![10]); // 0+1+2+3+4
    }

    #[test]
    fn phis_evaluate_in_parallel() {
        // swap via φs: (x, y) = (y, x) each iteration.
        let text = "
func @swap {
entry:
  %a, %b, %n = input
  jump head
head:
  %x = phi [entry: %a], [body: %y]
  %y = phi [entry: %b], [body: %x]
  %i = phi [entry: %n], [body: %i2]
  %i2 = addi %i, -1
  %z = make 0
  %c2 = cmplt %z, %i
  br %c2, body, exit
body:
  jump head
exit:
  ret %x, %y
}";
        let f = parse(text);
        // one iteration: n = 1 -> swapped once
        let r = run(&f, &[7, 9, 1], 1000).unwrap();
        assert_eq!(r.outputs, vec![9, 7]);
        // two iterations: back to original
        let r = run(&f, &[7, 9, 2], 1000).unwrap();
        assert_eq!(r.outputs, vec![7, 9]);
    }

    #[test]
    fn memory_and_calls_are_deterministic() {
        let f = parse(
            "func @m {
entry:
  %p = input
  %v = load %p
  %q = autoadd %p, 1
  %w = load %q
  %s = add %v, %w
  store %p, %s
  %v2 = load %p
  %r = call f(%v2, %s)
  ret %r
}",
        );
        let r1 = run(&f, &[100], 100).unwrap();
        let r2 = run(&f, &[100], 100).unwrap();
        assert_eq!(r1.outputs, r2.outputs);
        let expected = {
            let v = default_mem(100);
            let w = default_mem(101);
            call_model("f", &[v.wrapping_add(w), v.wrapping_add(w)])
        };
        assert_eq!(r1.outputs, vec![expected]);
    }

    #[test]
    fn fuel_limits_infinite_loops() {
        let text = "func @inf {\nentry:\n  jump entry\n}";
        let f = parse(text);
        assert_eq!(run(&f, &[], 50), Err(Trap::OutOfFuel));
    }

    #[test]
    fn undefined_read_traps() {
        let text = "func @u {\nentry:\n  %y = mov %x\n  ret %y\n}";
        let f = parse(text);
        match run(&f, &[], 50) {
            Err(Trap::UndefinedVar(_, name)) => assert_eq!(name, "x"),
            other => panic!("expected undefined var, got {other:?}"),
        }
    }

    #[test]
    fn spill_slots_roundtrip_and_trap_when_unwritten() {
        let text = "
func @sp {
entry:
  %a = input
  spillst %a, 3
  %b = spillld 3
  ret %b
}";
        let f = parse(text);
        assert!(f.validate().is_ok(), "{:?}", f.validate());
        assert_eq!(run(&f, &[42], 50).unwrap().outputs, vec![42]);
        let bad = "func @sp {\nentry:\n  %b = spillld 7\n  ret %b\n}";
        let f2 = parse(bad);
        assert_eq!(run(&f2, &[], 50), Err(Trap::UnwrittenSlot(7)));
    }

    #[test]
    fn psi_takes_last_satisfied_guard() {
        let text = "
func @psi {
entry:
  %p1, %a1, %p2, %a2 = input
  %x = psi %p1 ? %a1, %p2 ? %a2
  ret %x
}";
        let f = parse(text);
        assert_eq!(run(&f, &[1, 10, 1, 20], 50).unwrap().outputs, vec![20]);
        assert_eq!(run(&f, &[1, 10, 0, 20], 50).unwrap().outputs, vec![10]);
        assert_eq!(run(&f, &[0, 10, 0, 20], 50).unwrap().outputs, vec![0]);
    }
}
