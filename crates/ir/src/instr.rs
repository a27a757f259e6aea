//! Instructions and operands.
//!
//! Instruction payloads are stored flat: [`crate::function::Function`]
//! keeps one dense slot per instruction plus two shared pools (operands
//! and block references) indexed by `(start, len)` ranges. [`InstData`]
//! is the *build-time* form — a small struct of `Vec`s used by the
//! parser, the passes that insert code, and tests — which `push_inst`
//! flattens into the pools. Reading code receives an [`InstRef`] view
//! (slices into the pools), mutating code an [`InstMut`].

use crate::ids::{Block, Resource, Var};
use crate::opcode::Opcode;

/// A `(start, len)` range into one of the per-function flat pools.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PoolRange {
    /// First pool index covered.
    pub start: u32,
    /// Number of entries.
    pub len: u32,
}

impl PoolRange {
    /// The covered pool indices as a `usize` range.
    #[inline]
    pub fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A textual occurrence of a variable in an instruction (paper §2.1),
/// optionally pinned to a resource.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Operand {
    /// The variable.
    pub var: Var,
    /// Operand pinning `var↑pin`, if any.
    pub pin: Option<Resource>,
}

impl Operand {
    /// An unpinned operand.
    pub fn new(var: Var) -> Operand {
        Operand { var, pin: None }
    }

    /// An operand pinned to `res`.
    pub fn pinned(var: Var, res: Resource) -> Operand {
        Operand {
            var,
            pin: Some(res),
        }
    }
}

impl From<Var> for Operand {
    fn from(var: Var) -> Operand {
        Operand::new(var)
    }
}

/// One instruction of the linear IR.
///
/// The representation is deliberately uniform: all opcodes share the same
/// payload fields, with unused fields left empty. `Opcode`-specific
/// invariants are checked by [`crate::function::Function::validate`].
#[derive(Clone, PartialEq, Debug)]
pub struct InstData {
    /// The opcode.
    pub opcode: Opcode,
    /// Defined operands (most instructions define zero or one variable;
    /// `input` defines several).
    pub defs: Vec<Operand>,
    /// Used operands. For `phi`, `uses[i]` flows in from `phi_preds[i]`.
    /// For `psi`, uses are `[p1, a1, p2, a2, ...]`.
    pub uses: Vec<Operand>,
    /// Immediate payload (`make`, `more`, `addi`, `autoadd`).
    pub imm: i64,
    /// Callee name for `call`.
    pub callee: Option<String>,
    /// Branch targets: `[then, else]` for `br`, `[target]` for `jump`.
    pub targets: Vec<Block>,
    /// For `phi`: the predecessor block each use flows in from, parallel
    /// to `uses`.
    pub phi_preds: Vec<Block>,
}

impl InstData {
    /// Creates a bare instruction with the given opcode and no payload.
    pub fn new(opcode: Opcode) -> InstData {
        InstData {
            opcode,
            defs: Vec::new(),
            uses: Vec::new(),
            imm: 0,
            callee: None,
            targets: Vec::new(),
            phi_preds: Vec::new(),
        }
    }

    /// Builder-style: sets defs.
    pub fn with_defs(mut self, defs: Vec<Operand>) -> InstData {
        self.defs = defs;
        self
    }

    /// Builder-style: sets uses.
    pub fn with_uses(mut self, uses: Vec<Operand>) -> InstData {
        self.uses = uses;
        self
    }

    /// Builder-style: sets the immediate.
    pub fn with_imm(mut self, imm: i64) -> InstData {
        self.imm = imm;
        self
    }

    /// Builder-style: sets branch targets.
    pub fn with_targets(mut self, targets: Vec<Block>) -> InstData {
        self.targets = targets;
        self
    }

    /// A copy instruction `dst = src`.
    pub fn mov(dst: Var, src: Var) -> InstData {
        InstData::new(Opcode::Mov)
            .with_defs(vec![Operand::new(dst)])
            .with_uses(vec![Operand::new(src)])
    }

    /// A φ instruction `dst = φ(args...)` with explicit incoming blocks.
    pub fn phi(dst: Var, args: Vec<(Block, Var)>) -> InstData {
        let mut inst = InstData::new(Opcode::Phi).with_defs(vec![Operand::new(dst)]);
        for (block, var) in args {
            inst.phi_preds.push(block);
            inst.uses.push(Operand::new(var));
        }
        inst
    }

    /// Whether this is a φ instruction.
    pub fn is_phi(&self) -> bool {
        self.opcode.is_phi()
    }

    /// Whether this is a terminator.
    pub fn is_terminator(&self) -> bool {
        self.opcode.is_terminator()
    }

    /// Whether this is a `mov` whose source and destination are the same
    /// variable (a no-op that cleanup passes delete).
    pub fn is_self_move(&self) -> bool {
        self.opcode.is_move() && self.defs[0].var == self.uses[0].var
    }

    /// Iterates over all operands, defs first.
    pub fn operands(&self) -> impl Iterator<Item = &Operand> {
        self.defs.iter().chain(self.uses.iter())
    }

    /// Iterates mutably over all operands, defs first.
    pub fn operands_mut(&mut self) -> impl Iterator<Item = &mut Operand> {
        self.defs.iter_mut().chain(self.uses.iter_mut())
    }

    /// For a φ, returns the argument flowing in from `pred`, if any.
    pub fn phi_arg_for(&self, pred: Block) -> Option<Operand> {
        debug_assert!(self.is_phi());
        self.phi_preds
            .iter()
            .position(|&b| b == pred)
            .map(|i| self.uses[i])
    }
}

/// A read-only view of one instruction, borrowing slices out of the
/// function's flat pools. Field names mirror [`InstData`], so most code
/// is agnostic to which form it reads.
#[derive(Clone, Copy, Debug)]
pub struct InstRef<'a> {
    /// The opcode.
    pub opcode: Opcode,
    /// Immediate payload.
    pub imm: i64,
    /// Callee name for `call`.
    pub callee: Option<&'a str>,
    /// Defined operands.
    pub defs: &'a [Operand],
    /// Used operands.
    pub uses: &'a [Operand],
    /// Branch targets.
    pub targets: &'a [Block],
    /// For `phi`: incoming blocks, parallel to `uses`.
    pub phi_preds: &'a [Block],
}

impl<'a> InstRef<'a> {
    /// Whether this is a φ instruction.
    pub fn is_phi(&self) -> bool {
        self.opcode.is_phi()
    }

    /// Whether this is a terminator.
    pub fn is_terminator(&self) -> bool {
        self.opcode.is_terminator()
    }

    /// Whether this is a `mov` whose source and destination are the same
    /// variable.
    pub fn is_self_move(&self) -> bool {
        self.opcode.is_move() && self.defs[0].var == self.uses[0].var
    }

    /// Iterates over all operands, defs first.
    pub fn operands(&self) -> impl Iterator<Item = &'a Operand> {
        self.defs.iter().chain(self.uses.iter())
    }

    /// For a φ, returns the argument flowing in from `pred`, if any.
    pub fn phi_arg_for(&self, pred: Block) -> Option<Operand> {
        debug_assert!(self.is_phi());
        self.phi_preds
            .iter()
            .position(|&b| b == pred)
            .map(|i| self.uses[i])
    }
}

/// A mutable view of one instruction: in-place edits to operands, branch
/// targets, φ predecessors, and the immediate. Length-changing edits go
/// through [`crate::function::Function`] methods (`replace_inst`,
/// `phi_remove_arg`) instead.
#[derive(Debug)]
pub struct InstMut<'a> {
    /// The opcode (read-only; replace the instruction to change it).
    pub opcode: Opcode,
    /// Immediate payload.
    pub imm: &'a mut i64,
    /// Defined operands.
    pub defs: &'a mut [Operand],
    /// Used operands.
    pub uses: &'a mut [Operand],
    /// Branch targets.
    pub targets: &'a mut [Block],
    /// For `phi`: incoming blocks, parallel to `uses`.
    pub phi_preds: &'a mut [Block],
}

impl InstMut<'_> {
    /// Iterates mutably over all operands, defs first.
    pub fn operands_mut(&mut self) -> impl Iterator<Item = &mut Operand> {
        self.defs.iter_mut().chain(self.uses.iter_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mov_constructor() {
        let m = InstData::mov(Var::new(1), Var::new(2));
        assert!(m.opcode.is_move());
        assert_eq!(m.defs[0].var, Var::new(1));
        assert_eq!(m.uses[0].var, Var::new(2));
        assert!(!m.is_self_move());
        assert!(InstData::mov(Var::new(3), Var::new(3)).is_self_move());
    }

    #[test]
    fn phi_args_match_preds() {
        let phi = InstData::phi(
            Var::new(0),
            vec![(Block::new(1), Var::new(10)), (Block::new(2), Var::new(20))],
        );
        assert!(phi.is_phi());
        assert_eq!(phi.phi_arg_for(Block::new(2)).unwrap().var, Var::new(20));
        assert_eq!(phi.phi_arg_for(Block::new(9)), None);
    }

    #[test]
    fn operand_pinning() {
        let r = Resource::new(4);
        let op = Operand::pinned(Var::new(7), r);
        assert_eq!(op.pin, Some(r));
        let op2: Operand = Var::new(8).into();
        assert_eq!(op2.pin, None);
    }

    #[test]
    fn operands_iterate_defs_first() {
        let mut i = InstData::new(Opcode::Add)
            .with_defs(vec![Operand::new(Var::new(0))])
            .with_uses(vec![Operand::new(Var::new(1)), Operand::new(Var::new(2))]);
        let vars: Vec<Var> = i.operands().map(|o| o.var).collect();
        assert_eq!(vars, vec![Var::new(0), Var::new(1), Var::new(2)]);
        for op in i.operands_mut() {
            op.pin = Some(Resource::new(0));
        }
        assert!(i.operands().all(|o| o.pin.is_some()));
    }
}
