//! Instruction opcodes of the linear IR.
//!
//! The opcode set is a compact model of a DSP instruction set (see
//! [`crate::machine`]): scalar ALU operations, constant builders
//! (`make`/`more`, the ST120-style 16+16-bit immediate pair of paper
//! Fig. 1), memory accesses with pointer auto-modification (`autoadd`),
//! calls, predication (`select`), and the SSA pseudo-instructions `phi`
//! and `psi`.

use std::fmt;

/// An instruction opcode.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Opcode {
    /// Pseudo-instruction defining the function's live-in variables
    /// (paper's `.input`). Must be the first instruction of the entry
    /// block. Defs are pinned to ABI registers by the collect phase.
    Input,
    /// Register-to-register copy.
    Mov,
    /// Load a 16-bit-style immediate: `def = imm` (paper's `make`).
    Make,
    /// Two-operand immediate extension: `def = (use << 16) | imm`
    /// (paper's `more`); the def must reuse the resource of the use.
    More,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (amount masked to 0..63).
    Shl,
    /// Arithmetic right shift (amount masked to 0..63).
    Shr,
    /// Negation.
    Neg,
    /// Bitwise not.
    Not,
    /// Add immediate: `def = use + imm`.
    AddImm,
    /// Pointer auto-modification: `def = use + imm`, two-operand
    /// constrained (paper's `autoadd`, Fig. 1 statement `S1`).
    AutoAdd,
    /// Memory load: `def = mem[use]`.
    Load,
    /// Memory store: `mem[use0] = use1`.
    Store,
    /// Equality comparison producing 0/1.
    CmpEq,
    /// Inequality comparison producing 0/1.
    CmpNe,
    /// Signed less-than comparison producing 0/1.
    CmpLt,
    /// Signed less-or-equal comparison producing 0/1.
    CmpLe,
    /// Predicated selection: `def = use0 != 0 ? use1 : use2`.
    Select,
    /// Predicated move produced by ψ-SSA lowering: same semantics as
    /// `select`, but the definition is two-operand constrained to reuse
    /// the resource of `use2` (the "else" value): the hardware form is
    /// `def = use2; if (use0) def = use1` (paper §5, ψ-conventional SSA).
    PSel,
    /// Spill store: `stack[imm] = use0`. Written by the register
    /// allocator when a value's live range is evicted to the function's
    /// spill frame; `imm` is the stack-slot index.
    SpillStore,
    /// Spill reload: `def = stack[imm]`. The counterpart of
    /// [`Opcode::SpillStore`]; reading a slot no store has written is a
    /// trap ([`crate::interp::Trap::UnwrittenSlot`]).
    SpillLoad,
    /// Function call: `defs = callee(uses)`. Operands are pinned to ABI
    /// registers by the collect phase.
    Call,
    /// Conditional branch on `use0 != 0` to `targets[0]`, else
    /// `targets\[1\]`.
    Br,
    /// Unconditional jump to `targets[0]`.
    Jump,
    /// Function return (paper's `.output`); uses are the returned values,
    /// pinned to ABI registers by the collect phase.
    Ret,
    /// SSA φ pseudo-instruction: merges values at a confluence point.
    /// `uses[i]` flows in from `phi_preds[i]`.
    Phi,
    /// ψ-SSA pseudo-instruction for predicated code (paper §5, \[13\]):
    /// uses are `[p1, a1, p2, a2, ...]`; the value is the last `ai` whose
    /// guard `pi` is true, or 0 when none is.
    Psi,
}

impl Opcode {
    /// Whether this is the SSA φ pseudo-instruction.
    pub fn is_phi(self) -> bool {
        self == Opcode::Phi
    }

    /// Whether this is the ψ-SSA pseudo-instruction.
    pub fn is_psi(self) -> bool {
        self == Opcode::Psi
    }

    /// Whether this is a register-to-register copy.
    pub fn is_move(self) -> bool {
        self == Opcode::Mov
    }

    /// Whether this instruction ends a basic block.
    pub fn is_terminator(self) -> bool {
        matches!(self, Opcode::Br | Opcode::Jump | Opcode::Ret)
    }

    /// Whether the instruction has effects beyond its defs, so dead-code
    /// elimination must keep it even when the defs are unused.
    pub fn has_side_effects(self) -> bool {
        matches!(
            self,
            Opcode::Store
                | Opcode::SpillStore
                | Opcode::Call
                | Opcode::Ret
                | Opcode::Br
                | Opcode::Jump
                | Opcode::Input
        )
    }

    /// Whether this is a two-operand instruction whose definition is
    /// constrained to reuse the resource of one of its uses (paper §2.1).
    /// The constrained use is [`Opcode::tied_use`].
    pub fn is_two_operand(self) -> bool {
        matches!(self, Opcode::More | Opcode::AutoAdd | Opcode::PSel)
    }

    /// For two-operand instructions: the index of the use whose resource
    /// the definition must reuse.
    pub fn tied_use(self) -> Option<usize> {
        match self {
            Opcode::More | Opcode::AutoAdd => Some(0),
            Opcode::PSel => Some(2),
            _ => None,
        }
    }

    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Input => "input",
            Opcode::Mov => "mov",
            Opcode::Make => "make",
            Opcode::More => "more",
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Mul => "mul",
            Opcode::And => "and",
            Opcode::Or => "or",
            Opcode::Xor => "xor",
            Opcode::Shl => "shl",
            Opcode::Shr => "shr",
            Opcode::Neg => "neg",
            Opcode::Not => "not",
            Opcode::AddImm => "addi",
            Opcode::AutoAdd => "autoadd",
            Opcode::Load => "load",
            Opcode::Store => "store",
            Opcode::CmpEq => "cmpeq",
            Opcode::CmpNe => "cmpne",
            Opcode::CmpLt => "cmplt",
            Opcode::CmpLe => "cmple",
            Opcode::Select => "select",
            Opcode::PSel => "psel",
            Opcode::SpillStore => "spillst",
            Opcode::SpillLoad => "spillld",
            Opcode::Call => "call",
            Opcode::Br => "br",
            Opcode::Jump => "jump",
            Opcode::Ret => "ret",
            Opcode::Phi => "phi",
            Opcode::Psi => "psi",
        }
    }

    /// Parses a mnemonic back into an opcode.
    pub fn from_mnemonic(s: &str) -> Option<Opcode> {
        Some(match s {
            "input" => Opcode::Input,
            "mov" => Opcode::Mov,
            "make" => Opcode::Make,
            "more" => Opcode::More,
            "add" => Opcode::Add,
            "sub" => Opcode::Sub,
            "mul" => Opcode::Mul,
            "and" => Opcode::And,
            "or" => Opcode::Or,
            "xor" => Opcode::Xor,
            "shl" => Opcode::Shl,
            "shr" => Opcode::Shr,
            "neg" => Opcode::Neg,
            "not" => Opcode::Not,
            "addi" => Opcode::AddImm,
            "autoadd" => Opcode::AutoAdd,
            "load" => Opcode::Load,
            "store" => Opcode::Store,
            "cmpeq" => Opcode::CmpEq,
            "cmpne" => Opcode::CmpNe,
            "cmplt" => Opcode::CmpLt,
            "cmple" => Opcode::CmpLe,
            "select" => Opcode::Select,
            "psel" => Opcode::PSel,
            "spillst" => Opcode::SpillStore,
            "spillld" => Opcode::SpillLoad,
            "call" => Opcode::Call,
            "br" => Opcode::Br,
            "jump" => Opcode::Jump,
            "ret" => Opcode::Ret,
            "phi" => Opcode::Phi,
            "psi" => Opcode::Psi,
            _ => return None,
        })
    }

    /// All opcodes, for exhaustive table-driven tests.
    pub fn all() -> &'static [Opcode] {
        &[
            Opcode::Input,
            Opcode::Mov,
            Opcode::Make,
            Opcode::More,
            Opcode::Add,
            Opcode::Sub,
            Opcode::Mul,
            Opcode::And,
            Opcode::Or,
            Opcode::Xor,
            Opcode::Shl,
            Opcode::Shr,
            Opcode::Neg,
            Opcode::Not,
            Opcode::AddImm,
            Opcode::AutoAdd,
            Opcode::Load,
            Opcode::Store,
            Opcode::CmpEq,
            Opcode::CmpNe,
            Opcode::CmpLt,
            Opcode::CmpLe,
            Opcode::Select,
            Opcode::PSel,
            Opcode::SpillStore,
            Opcode::SpillLoad,
            Opcode::Call,
            Opcode::Br,
            Opcode::Jump,
            Opcode::Ret,
            Opcode::Phi,
            Opcode::Psi,
        ]
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonic_roundtrip() {
        for &op in Opcode::all() {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op), "{op:?}");
        }
        assert_eq!(Opcode::from_mnemonic("frobnicate"), None);
    }

    #[test]
    fn classification() {
        assert!(Opcode::Br.is_terminator());
        assert!(Opcode::Jump.is_terminator());
        assert!(Opcode::Ret.is_terminator());
        assert!(!Opcode::Add.is_terminator());
        assert!(Opcode::Mov.is_move());
        assert!(Opcode::More.is_two_operand());
        assert!(Opcode::AutoAdd.is_two_operand());
        assert!(!Opcode::AddImm.is_two_operand());
        assert!(Opcode::Store.has_side_effects());
        assert!(!Opcode::Load.has_side_effects());
        assert!(Opcode::SpillStore.has_side_effects());
        assert!(!Opcode::SpillLoad.has_side_effects());
        assert!(!Opcode::SpillStore.is_two_operand());
        assert!(Opcode::Phi.is_phi() && !Opcode::Phi.is_terminator());
    }
}
