//! ψ-SSA lowering (paper §5, \[13\]).
//!
//! The LAO's predicated code is represented with ψ instructions while in
//! SSA form. Before the out-of-SSA translation, each
//! `X = ψ(p1?a1, …, pn?an)` is lowered to a chain of predicated moves:
//!
//! ```text
//! t0 = make 0
//! t1 = psel p1, a1, t0
//! …
//! X  = psel pn, an, t(n-1)
//! ```
//!
//! Each `psel` carries a two-operand constraint tying its definition to
//! the "else" input — on hardware, a predicated move mutates its
//! destination in place. The constraint is what the paper means by
//! converting to "ψ-conventional" SSA: the collect phase pins the chain
//! to one resource, and the coalescer keeps it copy-free.

use tossa_ir::ids::{Block, Inst};
use tossa_ir::instr::{InstData, Operand};
use tossa_ir::{derived_name, Function, Opcode};

/// Lowers every ψ instruction in place. Returns the number of ψs lowered.
pub fn lower_psis(f: &mut Function) -> usize {
    let mut count = 0;
    for b in f.blocks().collect::<Vec<_>>() {
        while let Some((pos, psi)) = find_psi(f, b) {
            lower_one(f, b, pos, psi);
            count += 1;
        }
    }
    count
}

fn find_psi(f: &Function, b: Block) -> Option<(usize, Inst)> {
    f.block_insts(b)
        .enumerate()
        .find(|&(_, i)| f.inst(i).opcode.is_psi())
}

fn lower_one(f: &mut Function, b: Block, pos: usize, psi: Inst) {
    let inst = f.inst(psi);
    let def = inst.defs[0].var;
    let pairs: Vec<(Operand, Operand)> = inst.uses.chunks(2).map(|c| (c[0], c[1])).collect();
    f.remove_inst(b, psi);
    // t0 = make 0 (the "no guard satisfied" value).
    let mut cur = f.new_var("psi0");
    let mut at = pos;
    f.insert_inst(
        b,
        at,
        InstData::new(Opcode::Make)
            .with_defs(vec![cur.into()])
            .with_imm(0),
    );
    at += 1;
    for (k, (p, a)) in pairs.iter().enumerate() {
        let dst = if k + 1 == pairs.len() {
            def
        } else {
            f.new_var(derived_name(format_args!("psi{}", k + 1)))
        };
        f.insert_inst(
            b,
            at,
            InstData::new(Opcode::PSel)
                .with_defs(vec![dst.into()])
                .with_uses(vec![*p, *a, Operand::new(cur)]),
        );
        at += 1;
        cur = dst;
    }
}

/// Returns true if `f` still contains ψ instructions.
pub fn has_psis(f: &Function) -> bool {
    f.all_insts().any(|(_, i)| f.inst(i).opcode.is_psi())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_ssa;
    use tossa_ir::interp;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    #[test]
    fn lowering_preserves_semantics() {
        let text = "
func @psi {
entry:
  %p1, %a1, %p2, %a2 = input
  %x = psi %p1 ? %a1, %p2 ? %a2
  ret %x
}";
        let f = parse_function(text, &Machine::dsp32()).unwrap();
        let mut g = f.clone();
        assert_eq!(lower_psis(&mut g), 1);
        assert!(!has_psis(&g));
        g.validate().unwrap();
        verify_ssa(&g).unwrap();
        for ins in [
            [1, 10, 1, 20],
            [1, 10, 0, 20],
            [0, 10, 1, 20],
            [0, 10, 0, 20],
        ] {
            assert_eq!(
                interp::run(&f, &ins, 100).unwrap().outputs,
                interp::run(&g, &ins, 100).unwrap().outputs,
                "{ins:?}"
            );
        }
    }

    #[test]
    fn chain_is_tied() {
        let text = "
func @psi {
entry:
  %p1, %a1, %p2, %a2 = input
  %x = psi %p1 ? %a1, %p2 ? %a2
  ret %x
}";
        let mut f = parse_function(text, &Machine::dsp32()).unwrap();
        lower_psis(&mut f);
        let psels: Vec<_> = f
            .all_insts()
            .filter(|&(_, i)| f.inst(i).opcode == Opcode::PSel)
            .map(|(_, i)| i)
            .collect();
        assert_eq!(psels.len(), 2);
        // Each psel's tied use (index 2) is the previous link.
        assert_eq!(Opcode::PSel.tied_use(), Some(2));
        let first_def = f.inst(psels[0]).defs[0].var;
        assert_eq!(f.inst(psels[1]).uses[2].var, first_def);
    }

    #[test]
    fn lowers_multiple_psis() {
        let text = "
func @two {
entry:
  %p, %a, %b = input
  %x = psi %p ? %a, %p ? %b
  %y = psi %p ? %x, %p ? %a
  ret %y
}";
        let mut f = parse_function(text, &Machine::dsp32()).unwrap();
        assert_eq!(lower_psis(&mut f), 2);
        f.validate().unwrap();
        verify_ssa(&f).unwrap();
    }
}
