//! Constraint collection passes (the paper's *collect* phase, split as in
//! §5: `pinningSP`, `pinningABI`, `pinningCSSA`) plus the `NaiveABI`
//! fallback that materializes constraints with local moves when pinning
//! is disabled.

use tossa_ir::ids::{Resource, Var};
use tossa_ir::instr::InstData;
use tossa_ir::machine::PhysReg;
use tossa_ir::print::{res_str, var_str};
use tossa_ir::{Function, Opcode};
use tossa_trace::provenance;

fn phys_resource(f: &mut Function, reg: PhysReg) -> Resource {
    let name = f.machine.reg_name(reg).to_string();
    f.resources.phys(reg, &name)
}

/// Records one pin decision on the provenance stream (no-op when
/// tracing is disabled).
fn record_pin(f: &Function, v: Var, r: Resource, cause: &'static str) {
    provenance::record(|| provenance::Kind::Pin {
        var: var_str(f, v),
        resource: res_str(f, r),
        cause: cause.into(),
    });
}

/// `pinningSP`: pins every SSA version of a dedicated register (`SP` by
/// default in the experiments) back to that register. The paper always
/// runs this pass: SP webs can neither be ignored nor split (§5).
///
/// A variable belongs to the web of register `reg` when its pre-SSA
/// origin carried that register identity, or when it carries it directly
/// (non-SSA input).
pub fn pinning_sp(f: &mut Function) -> usize {
    tossa_trace::span("pinning_sp", || {
        let sp = f.machine.abi.sp;
        let n = pin_register_web(f, sp);
        tossa_trace::count(tossa_trace::Counter::PinsSp, n as u64);
        n
    })
}

/// Pins the SSA web of one dedicated register. Returns the number of
/// variables pinned.
pub fn pin_register_web(f: &mut Function, reg: PhysReg) -> usize {
    let r = phys_resource(f, reg);
    let mut n = 0;
    for v in f.vars().collect::<Vec<_>>() {
        let data = f.var(v);
        let in_web =
            data.reg == Some(reg) || data.origin.is_some_and(|o| f.var(o).reg == Some(reg));
        if in_web && data.pin.is_none() {
            f.set_pin(v, Some(r));
            record_pin(f, v, r, "sp");
            n += 1;
        }
    }
    n
}

/// `pinningABI`: collects the remaining renaming constraints
/// (paper Fig. 1):
///
/// * `input` definitions are pinned to the ABI argument registers in
///   order (`S0: .input C↑R0, P↑P0`);
/// * `call` arguments are use-pinned to argument registers and the result
///   definition is pinned to the return register (`S3`);
/// * `ret` values are use-pinned to return registers (`S8`);
/// * two-operand instructions (`more`, `autoadd`, `psel`) tie their
///   definition and constrained use to one (virtual) resource
///   (`S1`, `S6`).
///
/// Returns the number of operands pinned.
pub fn pinning_abi(f: &mut Function) -> usize {
    tossa_trace::span("pinning_abi", || {
        // Hard-def conflicts materialize as moves; count them as ABI
        // copies so `copies_inserted` covers every mov the pipeline adds.
        let before = if tossa_trace::enabled() {
            f.all_insts().count()
        } else {
            0
        };
        let n = pinning_abi_inner(f);
        tossa_trace::count(tossa_trace::Counter::PinsAbi, n as u64);
        if tossa_trace::enabled() {
            let inserted = f.all_insts().count() - before;
            tossa_trace::count(tossa_trace::Counter::CopiesAbi, inserted as u64);
        }
        n
    })
}

fn pinning_abi_inner(f: &mut Function) -> usize {
    let arg_regs: Vec<PhysReg> = f.machine.abi.arg_regs.clone();
    let ptr_regs: Vec<PhysReg> = f.machine.abi.ptr_arg_regs.clone();
    let ret_reg = f.machine.abi.ret_reg;
    let mut n = 0;
    for (b, i) in f.all_insts().collect::<Vec<_>>() {
        let opcode = f.inst(i).opcode;
        match opcode {
            Opcode::Input => {
                // Scalar args take R0..R3, then pointer regs P0..P1.
                let order: Vec<PhysReg> = arg_regs.iter().chain(ptr_regs.iter()).copied().collect();
                let ndefs = f.inst(i).defs.len();
                for k in 0..ndefs {
                    let Some(&reg) = order.get(k) else { break };
                    n += pin_hard_def(f, b, i, k, reg, "abi:input");
                }
            }
            Opcode::Call => {
                let uses = f.inst(i).uses.to_vec();
                let ndefs = f.inst(i).defs.len();
                for (k, u) in uses.iter().enumerate() {
                    let Some(&reg) = arg_regs.get(k) else { break };
                    let r = phys_resource(f, reg);
                    f.set_operand_pin(i, ndefs + k, Some(r));
                    record_pin(f, u.var, r, "abi:call-arg");
                    n += 1;
                }
                if !f.inst(i).defs.is_empty() {
                    n += pin_hard_def(f, b, i, 0, ret_reg, "abi:call");
                }
            }
            Opcode::Ret => {
                let uses = f.inst(i).uses.to_vec();
                let ndefs = f.inst(i).defs.len();
                for (k, u) in uses.iter().enumerate() {
                    let Some(&reg) = arg_regs.get(k) else { break };
                    let r = phys_resource(f, reg);
                    f.set_operand_pin(i, ndefs + k, Some(r));
                    record_pin(f, u.var, r, "abi:ret");
                    n += 1;
                }
            }
            op if op.is_two_operand() => {
                n += pin_two_operand(f, i);
            }
            _ => {}
        }
    }
    n
}

/// Enforces a *hard* ABI definition constraint: the hardware writes
/// `reg`, unconditionally. If def `k` of `i` is unpinned it is pinned to
/// `reg`; if it is already pinned to another resource (e.g. a φ
/// congruence class from `pinningCSSA`), the instruction is rewritten to
/// define a fresh `reg`-pinned variable and a copy to the original is
/// inserted right after — hiding the constraint would under-count the
/// pipeline's ABI moves.
fn pin_hard_def(
    f: &mut Function,
    b: tossa_ir::Block,
    i: tossa_ir::Inst,
    k: usize,
    reg: PhysReg,
    site: &'static str,
) -> usize {
    let r = phys_resource(f, reg);
    let d = f.inst(i).defs[k].var;
    match f.var(d).pin {
        None => {
            f.set_pin(d, Some(r));
            record_pin(f, d, r, site);
            1
        }
        Some(existing) if existing == r => 0,
        Some(_) => {
            let fresh = f.new_var(format!("{}_abi", f.var(d).name));
            f.set_pin(fresh, Some(r));
            f.inst_mut(i).defs[k].var = fresh;
            record_pin(f, fresh, r, site);
            let pos = f
                .block_insts(b)
                .position(|x| x == i)
                .expect("instruction in block");
            f.insert_inst(b, pos + 1, InstData::mov(d, fresh));
            provenance::record(|| provenance::Kind::Copy {
                dst: var_str(f, d),
                src: var_str(f, fresh),
                cause: format!("pin-split:{site}:{}", res_str(f, r)),
            });
            1
        }
    }
}

/// Ties the definition and the constrained use of a two-operand
/// instruction to one resource, creating a virtual resource when neither
/// side is pinned yet (Fig. 1: `autoadd Q↑Q, P↑Q`).
fn pin_two_operand(f: &mut Function, i: tossa_ir::Inst) -> usize {
    let tied = f.inst(i).opcode.tied_use().expect("two-operand opcode");
    let def_var = f.inst(i).defs[0].var;
    let use_var = f.inst(i).uses[tied].var;
    let use_pin = f.inst(i).uses[tied].pin;
    // Resource choice: the def's existing pin wins (it may be an ABI
    // register), then an explicit operand pin, then the used variable's
    // own resource (this is what chains consecutive two-operand
    // instructions — e.g. a ψ-conventional psel chain — into a single
    // resource), then a fresh one.
    let r = match (f.var(def_var).pin, use_pin, f.var(use_var).pin) {
        (Some(r), _, _) => r,
        (None, Some(r), _) => r,
        (None, None, Some(r)) => r,
        (None, None, None) => {
            let name = f.var(def_var).name.clone();
            f.resources.new_virt(name)
        }
    };
    let mut n = 0;
    if f.var(def_var).pin != Some(r) {
        f.set_pin(def_var, Some(r));
        record_pin(f, def_var, r, "abi:two-operand");
        n += 1;
    }
    if f.inst(i).uses[tied].pin != Some(r) {
        let ndefs = f.inst(i).defs.len();
        f.set_operand_pin(i, ndefs + tied, Some(r));
        n += 1;
    }
    n
}

/// `pinningCSSA`: pins every φ-congruence class (the transitive closure
/// of φ def/arg relations) to one resource, turning the out-of-pinned-SSA
/// phase into an out-of-CSSA translation (§5). Correct only on
/// *conventional* SSA (e.g. after Sreedhar et al.'s conversion).
///
/// Returns the number of variables pinned.
pub fn pinning_cssa(f: &mut Function) -> usize {
    tossa_trace::span("pinning_cssa", || {
        let n = pinning_cssa_inner(f);
        tossa_trace::count(tossa_trace::Counter::PinsPhi, n as u64);
        n
    })
}

fn pinning_cssa_inner(f: &mut Function) -> usize {
    // Union-find over variables.
    let n = f.num_vars();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    for (_, i) in f.all_insts().collect::<Vec<_>>() {
        let inst = f.inst(i);
        if !inst.is_phi() {
            continue;
        }
        let d = inst.defs[0].var.index();
        for u in inst.uses {
            let (a, b) = (find(&mut parent, d), find(&mut parent, u.var.index()));
            if a != b {
                parent[a] = b;
            }
        }
    }
    // One resource per class that contains a φ, indexed by class root.
    let mut class_res: Vec<Option<Resource>> = vec![None; n];
    let mut pinned = 0;
    for (_, i) in f.all_insts().collect::<Vec<_>>() {
        if !f.inst(i).is_phi() {
            continue;
        }
        let members: Vec<Var> = {
            let inst = f.inst(i);
            std::iter::once(inst.defs[0].var)
                .chain(inst.uses.iter().map(|u| u.var))
                .collect()
        };
        let root = find(&mut parent, members[0].index());
        // Reuse any existing pin of the class (e.g. SP), else fresh.
        let r = match class_res[root] {
            Some(r) => r,
            None => {
                let existing = members.iter().find_map(|&v| f.var(v).pin);
                let r = existing.unwrap_or_else(|| {
                    let name = f.var(members[0]).name.clone();
                    f.resources.new_virt(name)
                });
                class_res[root] = Some(r);
                r
            }
        };
        for &v in &members {
            if f.var(v).pin.is_none() {
                f.set_pin(v, Some(r));
                record_pin(f, v, r, "cssa");
                pinned += 1;
            }
        }
    }
    pinned
}

/// `NaiveABI`: materializes renaming constraints with local move
/// instructions around constrained instructions, for pipelines that skip
/// `pinningABI` (§5). Runs on the *final* (non-SSA) code. Returns the
/// number of moves inserted.
///
/// Argument-staging copies for one instruction form a parallel copy
/// (sequentialized with a temporary on cycles): the destination register
/// of one copy may be the source of another, e.g. when a previous call's
/// result feeds the next call's second argument.
pub fn naive_abi(f: &mut Function) -> usize {
    tossa_trace::span("naive_abi", || {
        let moves = naive_abi_inner(f);
        tossa_trace::count(tossa_trace::Counter::CopiesAbi, moves as u64);
        moves
    })
}

fn naive_abi_inner(f: &mut Function) -> usize {
    let arg_regs: Vec<PhysReg> = f.machine.abi.arg_regs.clone();
    let ptr_regs: Vec<PhysReg> = f.machine.abi.ptr_arg_regs.clone();
    let ret_reg = f.machine.abi.ret_reg;
    // The variable standing for each register, indexed by register.
    let mut reg_vars: Vec<Option<Var>> = vec![None; f.machine.num_regs()];
    for v in f.vars() {
        if let Some(reg) = f.var(v).reg {
            reg_vars[reg.index()] = Some(v);
        }
    }
    let mut moves = 0;
    for b in f.blocks().collect::<Vec<_>>() {
        let mut pos = 0;
        while pos < f.block(b).insts.len() {
            let i = f.block(b).insts[pos];
            let opcode = f.inst(i).opcode;
            match opcode {
                Opcode::Input => {
                    let order: Vec<PhysReg> =
                        arg_regs.iter().chain(ptr_regs.iter()).copied().collect();
                    let defs = f.inst(i).defs.to_vec();
                    for (k, d) in defs.iter().enumerate() {
                        let Some(&reg) = order.get(k) else { break };
                        let rv = reg_var(f, &mut reg_vars, reg);
                        if rv == d.var {
                            continue;
                        }
                        f.inst_mut(i).defs[k].var = rv;
                        pos += 1;
                        f.insert_inst(b, pos, InstData::mov(d.var, rv));
                        moves += 1;
                    }
                }
                Opcode::Call => {
                    // Stage the arguments as one parallel copy.
                    let uses = f.inst(i).uses.to_vec();
                    let mut group: Vec<(Var, Var)> = Vec::new();
                    for (k, u) in uses.iter().enumerate() {
                        let Some(&reg) = arg_regs.get(k) else { break };
                        let rv = reg_var(f, &mut reg_vars, reg);
                        if rv != u.var {
                            group.push((rv, u.var));
                        }
                        f.inst_mut(i).uses[k].var = rv;
                    }
                    pos += insert_parallel(f, b, pos, &group, &mut moves);
                    let defs = f.inst(i).defs.to_vec();
                    if let Some(d) = defs.first() {
                        let rv = reg_var(f, &mut reg_vars, ret_reg);
                        if rv != d.var {
                            f.inst_mut(i).defs[0].var = rv;
                            pos += 1;
                            f.insert_inst(b, pos, InstData::mov(d.var, rv));
                            moves += 1;
                        }
                    }
                }
                Opcode::Ret => {
                    let uses = f.inst(i).uses.to_vec();
                    let mut group: Vec<(Var, Var)> = Vec::new();
                    for (k, u) in uses.iter().enumerate() {
                        let Some(&reg) = arg_regs.get(k) else { break };
                        let rv = reg_var(f, &mut reg_vars, reg);
                        if rv != u.var {
                            group.push((rv, u.var));
                        }
                        f.inst_mut(i).uses[k].var = rv;
                    }
                    pos += insert_parallel(f, b, pos, &group, &mut moves);
                }
                op if op.is_two_operand() => {
                    let tied = op.tied_use().expect("two-operand");
                    let d = f.inst(i).defs[0].var;
                    let u = f.inst(i).uses[tied].var;
                    if d != u {
                        // Any *other* use of the destination variable must
                        // be saved first: the in-place form overwrites it.
                        let nuses = f.inst(i).uses.len();
                        for j in 0..nuses {
                            if j != tied && f.inst(i).uses[j].var == d {
                                let tmp = f.new_var(format!("{}_sav", f.var(d).name));
                                f.insert_inst(b, pos, InstData::mov(tmp, d));
                                moves += 1;
                                pos += 1;
                                f.inst_mut(i).uses[j].var = tmp;
                            }
                        }
                        // def = mov use; def = op(..., def) — in-place form.
                        f.insert_inst(b, pos, InstData::mov(d, u));
                        moves += 1;
                        pos += 1;
                        f.inst_mut(i).uses[tied].var = d;
                    }
                }
                _ => {}
            }
            pos += 1;
        }
    }
    moves
}

/// Inserts the sequentialized form of a parallel copy before position
/// `at` in `b`; returns how many instructions were inserted.
fn insert_parallel(
    f: &mut Function,
    b: tossa_ir::Block,
    at: usize,
    group: &[(Var, Var)],
    moves: &mut usize,
) -> usize {
    if group.is_empty() {
        return 0;
    }
    let seq = tossa_ir::parallel_copy::sequentialize(group, || f.new_var("abiswap"));
    let mut inserted = 0;
    for (k, &(d, s)) in seq.iter().enumerate() {
        f.insert_inst(b, at + k, InstData::mov(d, s));
        inserted += 1;
    }
    *moves += inserted;
    seq.len()
}

fn reg_var(f: &mut Function, reg_vars: &mut [Option<Var>], reg: PhysReg) -> Var {
    if let Some(v) = reg_vars[reg.index()] {
        return v;
    }
    let name = f.machine.reg_name(reg).to_string();
    let v = f.new_var(name);
    f.var_mut(v).reg = Some(reg);
    reg_vars[reg.index()] = Some(v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::interp;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;
    use tossa_ssa::to_ssa;

    fn parse(text: &str) -> Function {
        let f = parse_function(text, &Machine::dsp32()).unwrap();
        f.validate().unwrap();
        f
    }

    #[test]
    fn pinning_abi_pins_inputs_calls_rets() {
        let mut f = parse(
            "func @abi {
entry:
  %a, %b = input
  %d = call g(%a, %b)
  ret %d
}",
        );
        let n = pinning_abi(&mut f);
        // 2 input defs + 2 call arg uses + 1 call def + 1 ret use.
        assert_eq!(n, 6);
        let r0 = f.resources.by_name("R0").unwrap();
        let a = f.vars().find(|&v| f.var(v).name == "a").unwrap();
        assert_eq!(f.var(a).pin, Some(r0));
    }

    #[test]
    fn two_operand_gets_common_resource() {
        let mut f = parse(
            "func @t {
entry:
  %p = input
  %q = autoadd %p, 1
  %l = make 161
  %k = more %l, 11258
  %s = add %q, %k
  ret %s
}",
        );
        pinning_abi(&mut f);
        let autoadd = f
            .all_insts()
            .find(|&(_, i)| f.inst(i).opcode == Opcode::AutoAdd)
            .map(|(_, i)| i)
            .unwrap();
        let q = f.inst(autoadd).defs[0].var;
        let pin = f.var(q).pin.expect("def pinned");
        assert_eq!(f.inst(autoadd).uses[0].pin, Some(pin));
        // p arrives in a register (ABI input pin), and the two-operand
        // constraint chains q onto p's resource: the whole pointer web
        // lives in that register.
        let pvar = f.vars().find(|&v| f.var(v).name == "p").unwrap();
        assert_eq!(f.var(pvar).pin, Some(pin));
        // The more-instruction's operands build a fresh virtual resource
        // (no prior pin on either side).
        let k = f.vars().find(|&v| f.var(v).name == "k").unwrap();
        let kpin = f.var(k).pin.expect("def pinned");
        assert!(
            f.resources.as_phys(kpin).is_none(),
            "fresh virtual resource"
        );
    }

    #[test]
    fn pinning_sp_pins_the_whole_web() {
        let mut f = parse(
            "func @sp {
entry:
  SP = addi SP, -16
  %x = load SP
  SP = addi SP, 16
  ret %x
}",
        );
        to_ssa(&mut f);
        let n = pinning_sp(&mut f);
        // Versions of SP: the two defs (the initial SP has reg identity
        // but no def — it keeps its identity).
        assert!(n >= 2, "pinned {n}");
        let spres = f.resources.by_name("SP").unwrap();
        let pinned: Vec<Var> = f.vars().filter(|&v| f.var(v).pin == Some(spres)).collect();
        assert_eq!(pinned.len(), n);
    }

    #[test]
    fn pinning_cssa_groups_phi_webs() {
        let mut f = parse(
            "func @c {
entry:
  %a = make 1
  %b = make 2
  %c = input
  br %c, l, r
l:
  jump m
r:
  jump m
m:
  %x = phi [l: %a], [r: %b]
  ret %x
}",
        );
        let n = pinning_cssa(&mut f);
        assert_eq!(n, 3);
        let x = f.vars().find(|&v| f.var(v).name == "x").unwrap();
        let a = f.vars().find(|&v| f.var(v).name == "a").unwrap();
        let b = f.vars().find(|&v| f.var(v).name == "b").unwrap();
        assert_eq!(f.var(x).pin, f.var(a).pin);
        assert_eq!(f.var(a).pin, f.var(b).pin);
        assert!(f.var(x).pin.is_some());
    }

    #[test]
    fn naive_abi_stages_arguments_in_parallel() {
        // The previous call's result (already in R0) becomes the SECOND
        // argument of the next call while a fresh value takes R0: the two
        // staging copies must not clobber each other.
        let mut f = parse(
            "func @chain {
entry:
  %a, %b = input
  %r1 = call f(%a, %b)
  %r2 = call g(%b, %r1)
  ret %r2
}",
        );
        let reference = interp::run(&f, &[3, 4], 1000).unwrap();
        naive_abi(&mut f);
        f.validate().unwrap();
        assert_eq!(
            interp::run(&f, &[3, 4], 1000).unwrap().outputs,
            reference.outputs
        );
    }

    #[test]
    fn naive_abi_swapped_args_need_a_temp() {
        // call f(b, a) with a in R0 and b in R1: pure swap.
        let mut f = parse(
            "func @swap {
entry:
  %a, %b = input
  %r0 = mov %a
  %r1 = mov %b
  %r = call f(%r1, %r0)
  ret %r
}",
        );
        // Bind a and b to the registers by running naive_abi on the input
        // first (inputs land in R0/R1 via def rewriting).
        let reference = interp::run(&f, &[3, 4], 1000).unwrap();
        naive_abi(&mut f);
        f.validate().unwrap();
        assert_eq!(
            interp::run(&f, &[3, 4], 1000).unwrap().outputs,
            reference.outputs
        );
    }

    #[test]
    fn naive_abi_psel_saves_conflicting_condition() {
        // After renaming, the psel's destination is also its condition:
        // the in-place rewrite must save the condition first.
        let mut f = parse(
            "func @pselc {
entry:
  %x, %a, %t = input
  %x = psel %x, %a, %t
  ret %x
}",
        );
        let reference_in = [[1i64, 10, 20], [0, 10, 20]];
        let refs: Vec<_> = reference_in
            .iter()
            .map(|ins| interp::run(&f, ins, 1000).unwrap().outputs)
            .collect();
        naive_abi(&mut f);
        f.validate().unwrap();
        for (ins, want) in reference_in.iter().zip(&refs) {
            assert_eq!(&interp::run(&f, ins, 1000).unwrap().outputs, want, "{f}");
        }
    }

    #[test]
    fn naive_abi_inserts_local_moves_and_preserves_semantics() {
        let mut f = parse(
            "func @n {
entry:
  %a, %b = input
  %d = call g(%b, %a)
  %q = autoadd %a, 4
  %s = add %d, %q
  ret %s
}",
        );
        let reference = interp::run(&f, &[3, 4], 100).unwrap();
        let moves = naive_abi(&mut f);
        // input: 2, call args: 2, call ret: 1, ret: 1, autoadd: 1.
        assert_eq!(moves, 7);
        f.validate().unwrap();
        assert_eq!(
            interp::run(&f, &[3, 4], 100).unwrap().outputs,
            reference.outputs
        );
        assert_eq!(f.count_moves(), moves);
    }
}
