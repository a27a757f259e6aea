//! The function container: blocks, flat instruction arena, variables,
//! resources.
//!
//! Instruction payloads are stored SoA-style: one dense slot per
//! instruction (opcode, immediate, interned callee, pool ranges) plus two
//! shared pools — one of [`Operand`]s (defs then uses, contiguous per
//! instruction) and one of [`Block`] references (branch targets, or φ
//! predecessors). An instruction costs one 32-byte slot and zero
//! dedicated heap allocations; pool growth is amortized across the whole
//! function.

use crate::ids::{Block, EntityVec, Inst, Resource, Var};
use crate::instr::{InstData, InstMut, InstRef, Operand, PoolRange};
use crate::machine::{Machine, PhysReg};
use crate::opcode::Opcode;
use crate::resources::ResourceTable;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-variable metadata.
#[derive(Clone, Debug)]
pub struct VarData {
    /// Display name (unique names are not required; the printer
    /// disambiguates with the id). Shared: an SSA version, the same
    /// variable in a cloned function, and a resource named after the
    /// variable all hold one allocation.
    pub name: Arc<str>,
    /// *Variable pinning* (paper §2.1): the resource the variable's unique
    /// definition is pinned to, if any. Only meaningful while in SSA form.
    pub pin: Option<Resource>,
    /// After the out-of-SSA translation, variables that carry a physical
    /// register identity record it here; such a variable *is* that
    /// machine register in the final code.
    pub reg: Option<PhysReg>,
    /// For variables produced by SSA renaming: the pre-SSA variable this
    /// version was renamed from. Constraint collection uses it to find
    /// versions of dedicated registers (paper §2.2, the SP web).
    pub origin: Option<Var>,
}

/// Formats a derived display name (`x_c`, `pcopy3`, `v.r`) straight into
/// its shared allocation: the text is written to a stack buffer and
/// copied once into the `Arc`, so the name costs one allocation, not a
/// `String` plus its copy. Call it as
/// `derived_name(format_args!("{}_c", f.var(x).name))`.
pub fn derived_name(args: fmt::Arguments<'_>) -> Arc<str> {
    struct StackBuf {
        bytes: [u8; 64],
        len: usize,
    }
    impl fmt::Write for StackBuf {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            let end = self.len + s.len();
            let dst = self.bytes.get_mut(self.len..end).ok_or(fmt::Error)?;
            dst.copy_from_slice(s.as_bytes());
            self.len = end;
            Ok(())
        }
    }
    let mut buf = StackBuf {
        bytes: [0; 64],
        len: 0,
    };
    match fmt::write(&mut buf, args) {
        // Whole `str`s were appended, so the prefix is valid UTF-8.
        Ok(()) => Arc::from(std::str::from_utf8(&buf.bytes[..buf.len]).expect("UTF-8")),
        // Longer than the buffer: a rare name pays for the detour.
        Err(_) => Arc::from(fmt::format(args)),
    }
}

/// Per-block metadata: a label and the ordered instruction list.
#[derive(Clone, Debug)]
pub struct BlockData {
    /// Display label.
    pub name: Arc<str>,
    /// Ordered instructions; φs first, terminator last.
    pub insts: Vec<Inst>,
}

/// An error found by [`Function::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ValidateError {
    /// Human-readable description of the violated invariant.
    pub message: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ValidateError {}

/// Sentinel for "no callee" in [`InstSlot::callee`].
const NO_CALLEE: u32 = u32::MAX;

/// The flat per-instruction slot. Operands live in the function's
/// operand pool at `ops` (the first `ndefs` entries are defs, the rest
/// uses); branch targets or φ predecessors live in the block pool at
/// `blocks` (which of the two they are is determined by the opcode).
#[derive(Clone, Copy, Debug)]
struct InstSlot {
    opcode: Opcode,
    ndefs: u16,
    /// Index into the interned callee-name table, or [`NO_CALLEE`].
    callee: u32,
    imm: i64,
    ops: PoolRange,
    blocks: PoolRange,
}

/// The edit stamp behind [`Function::edit_stamp`]: an identity no other
/// function shares, and a count of `&mut` accesses.
#[derive(Debug)]
struct EditStamp {
    id: u64,
    count: u64,
}

impl EditStamp {
    fn fresh() -> EditStamp {
        // Relaxed: ids need only be distinct, which any atomic RMW
        // guarantees; they publish no other data.
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        EditStamp {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            count: 0,
        }
    }
}

/// A clone is a different program to anyone holding the original's
/// stamp, so it starts a fresh identity.
impl Clone for EditStamp {
    fn clone(&self) -> EditStamp {
        EditStamp::fresh()
    }
}

/// A function of the linear IR.
///
/// Instructions live in a flat arena ([`Inst`] ids index dense slots);
/// each block holds an ordered list of instruction ids. Removing an
/// instruction from a block leaves its arena slot in place (ids are never
/// reused); replacing an instruction's payload appends fresh pool ranges
/// and abandons the old ones.
#[derive(Clone, Debug)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Entry block. Never written after construction.
    pub entry: Block,
    /// The machine this function targets. Never written after
    /// construction.
    pub machine: Machine,
    /// Renaming resources of this function. Pinning interns resources
    /// here; neither the analyses nor the interpreter read them.
    pub resources: ResourceTable,
    stamp: EditStamp,
    blocks: EntityVec<Block, BlockData>,
    insts: EntityVec<Inst, InstSlot>,
    vars: EntityVec<Var, VarData>,
    /// Shared operand pool: per instruction, defs then uses, contiguous.
    op_pool: Vec<Operand>,
    /// Shared block-reference pool: branch targets or φ predecessors.
    block_pool: Vec<Block>,
    /// Interned callee names (few distinct callees per function).
    callees: Vec<String>,
}

impl Function {
    /// Creates an empty function with a single empty entry block.
    pub fn new(name: impl Into<String>, machine: Machine) -> Function {
        let mut blocks = EntityVec::new();
        let entry = blocks.push(BlockData {
            name: Arc::from("entry"),
            insts: Vec::new(),
        });
        Function {
            name: name.into(),
            entry,
            machine,
            resources: ResourceTable::new(),
            stamp: EditStamp::fresh(),
            blocks,
            insts: EntityVec::new(),
            vars: EntityVec::new(),
            op_pool: Vec::new(),
            block_pool: Vec::new(),
            callees: Vec::new(),
        }
    }

    /// The edit stamp: `(identity, count)`. The identity is fresh on
    /// [`Function::new`] and on `clone`; the count moves on every `&mut
    /// self` method except the pin setters [`Function::set_pin`] and
    /// [`Function::set_operand_pin`]. An unchanged stamp therefore means
    /// this very function has seen no edit but pin writes, and pins are
    /// read by neither the analyses nor the interpreter. Facts derived
    /// from those inputs (the analysis cache's staleness fingerprint,
    /// the checked pipeline's verification) stay valid while it holds.
    /// The public fields are outside the stamp: `entry` and `machine`
    /// are never written after construction, `resources` only grows as
    /// pins are interned, and `name` is a label.
    pub fn edit_stamp(&self) -> (u64, u64) {
        (self.stamp.id, self.stamp.count)
    }

    #[inline]
    fn edited(&mut self) {
        self.stamp.count += 1;
    }

    /// Pins the definition of `v` to `pin` (or unpins it), leaving the
    /// edit stamp alone: pins are no analysis or interpreter input.
    pub fn set_pin(&mut self, v: Var, pin: Option<Resource>) {
        self.vars[v].pin = pin;
    }

    /// Pins operand `pos` of `i` (counted among defs then uses) to `pin`
    /// (or unpins it), leaving the edit stamp alone.
    ///
    /// # Panics
    /// Panics if `pos` is out of range.
    pub fn set_operand_pin(&mut self, i: Inst, pos: usize, pin: Option<Resource>) {
        let ops = self.insts[i].ops;
        assert!(pos < ops.len as usize, "operand index out of range");
        self.op_pool[ops.start as usize + pos].pin = pin;
    }

    // ---- variables ------------------------------------------------------

    /// Creates a fresh variable with the given display name.
    pub fn new_var(&mut self, name: impl Into<Arc<str>>) -> Var {
        self.edited();
        self.vars.push(VarData {
            name: name.into(),
            pin: None,
            reg: None,
            origin: None,
        })
    }

    /// Creates a fresh variable that is an SSA version of `origin`
    /// (shares its display name).
    pub fn new_var_version(&mut self, origin: Var) -> Var {
        self.edited();
        let name = Arc::clone(&self.vars[origin].name);
        let root = self.vars[origin].origin.unwrap_or(origin);
        self.vars.push(VarData {
            name,
            pin: None,
            reg: None,
            origin: Some(root),
        })
    }

    /// Number of variables ever created.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Variable metadata.
    pub fn var(&self, v: Var) -> &VarData {
        &self.vars[v]
    }

    /// Mutable variable metadata.
    pub fn var_mut(&mut self, v: Var) -> &mut VarData {
        self.edited();
        &mut self.vars[v]
    }

    /// Iterates over all variables.
    pub fn vars(&self) -> impl Iterator<Item = Var> + use<> {
        let n = self.vars.len();
        (0..n).map(Var::new)
    }

    // ---- blocks ---------------------------------------------------------

    /// Creates a new empty block.
    pub fn add_block(&mut self, name: impl Into<Arc<str>>) -> Block {
        self.edited();
        self.blocks.push(BlockData {
            name: name.into(),
            insts: Vec::new(),
        })
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Block metadata.
    pub fn block(&self, b: Block) -> &BlockData {
        &self.blocks[b]
    }

    /// Mutable block metadata.
    pub fn block_mut(&mut self, b: Block) -> &mut BlockData {
        self.edited();
        &mut self.blocks[b]
    }

    /// Iterates over all blocks in creation order.
    pub fn blocks(&self) -> impl Iterator<Item = Block> + use<> {
        let n = self.blocks.len();
        (0..n).map(Block::new)
    }

    // ---- instructions ---------------------------------------------------

    /// Flattens a build-time [`InstData`] into the pools.
    fn flatten(&mut self, data: InstData) -> InstSlot {
        debug_assert!(
            data.targets.is_empty() || data.phi_preds.is_empty(),
            "no opcode carries both branch targets and phi preds"
        );
        let ops = PoolRange {
            start: u32::try_from(self.op_pool.len()).expect("operand pool overflow"),
            len: (data.defs.len() + data.uses.len()) as u32,
        };
        self.op_pool.extend_from_slice(&data.defs);
        self.op_pool.extend_from_slice(&data.uses);
        let blocks = PoolRange {
            start: u32::try_from(self.block_pool.len()).expect("block pool overflow"),
            len: (data.targets.len() + data.phi_preds.len()) as u32,
        };
        self.block_pool.extend_from_slice(&data.targets);
        self.block_pool.extend_from_slice(&data.phi_preds);
        let callee = match data.callee {
            None => NO_CALLEE,
            Some(name) => self.intern_callee(name),
        };
        InstSlot {
            opcode: data.opcode,
            ndefs: data.defs.len() as u16,
            callee,
            imm: data.imm,
            ops,
            blocks,
        }
    }

    fn intern_callee(&mut self, name: String) -> u32 {
        match self.callees.iter().position(|c| *c == name) {
            Some(i) => i as u32,
            None => {
                self.callees.push(name);
                (self.callees.len() - 1) as u32
            }
        }
    }

    /// Number of instructions ever allocated in the arena, removed ones
    /// included: the length of a dense side table indexed by [`Inst`].
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// Appends an instruction to a block and returns its id.
    pub fn push_inst(&mut self, block: Block, data: InstData) -> Inst {
        self.edited();
        let slot = self.flatten(data);
        let id = self.insts.push(slot);
        self.blocks[block].insts.push(id);
        id
    }

    /// Inserts an instruction into `block` at position `index`.
    ///
    /// # Panics
    /// Panics if `index > block.insts.len()`.
    pub fn insert_inst(&mut self, block: Block, index: usize, data: InstData) -> Inst {
        self.edited();
        let slot = self.flatten(data);
        let id = self.insts.push(slot);
        self.blocks[block].insts.insert(index, id);
        id
    }

    /// Allocates an instruction in the arena without placing it in a block.
    pub fn alloc_inst(&mut self, data: InstData) -> Inst {
        self.edited();
        let slot = self.flatten(data);
        self.insts.push(slot)
    }

    /// Replaces the payload of `i` in place (fresh pool ranges are
    /// appended; the old ones are abandoned).
    pub fn replace_inst(&mut self, i: Inst, data: InstData) {
        self.edited();
        let slot = self.flatten(data);
        self.insts[i] = slot;
    }

    /// A read-only view of the instruction's payload.
    #[inline]
    pub fn inst(&self, i: Inst) -> InstRef<'_> {
        let s = &self.insts[i];
        let ops = &self.op_pool[s.ops.range()];
        let (defs, uses) = ops.split_at(s.ndefs as usize);
        let blocks = &self.block_pool[s.blocks.range()];
        let (targets, phi_preds) = if s.opcode.is_phi() {
            (&[][..], blocks)
        } else {
            (blocks, &[][..])
        };
        InstRef {
            opcode: s.opcode,
            imm: s.imm,
            callee: if s.callee == NO_CALLEE {
                None
            } else {
                Some(self.callees[s.callee as usize].as_str())
            },
            defs,
            uses,
            targets,
            phi_preds,
        }
    }

    /// A mutable view for in-place payload edits.
    #[inline]
    pub fn inst_mut(&mut self, i: Inst) -> InstMut<'_> {
        self.edited();
        let s = &mut self.insts[i];
        let ops = &mut self.op_pool[s.ops.range()];
        let (defs, uses) = ops.split_at_mut(s.ndefs as usize);
        let blocks = &mut self.block_pool[s.blocks.range()];
        let (targets, phi_preds) = if s.opcode.is_phi() {
            (&mut [][..], blocks)
        } else {
            (blocks, &mut [][..])
        };
        InstMut {
            opcode: s.opcode,
            imm: &mut s.imm,
            defs,
            uses,
            targets,
            phi_preds,
        }
    }

    /// The opcode of `i` (cheaper than materializing a full view).
    #[inline]
    pub fn opcode(&self, i: Inst) -> Opcode {
        self.insts[i].opcode
    }

    /// The defined operands of `i`.
    #[inline]
    pub fn defs(&self, i: Inst) -> &[Operand] {
        let s = &self.insts[i];
        &self.op_pool[s.ops.start as usize..s.ops.start as usize + s.ndefs as usize]
    }

    /// The used operands of `i`.
    #[inline]
    pub fn uses(&self, i: Inst) -> &[Operand] {
        let s = &self.insts[i];
        &self.op_pool[s.ops.start as usize + s.ndefs as usize..s.ops.range().end]
    }

    /// Removes φ argument `k` (use and predecessor) of the φ `i`,
    /// shrinking in place.
    ///
    /// # Panics
    /// Panics if `i` is not a φ or `k` is out of range.
    pub fn phi_remove_arg(&mut self, i: Inst, k: usize) {
        self.edited();
        let s = &mut self.insts[i];
        assert!(s.opcode.is_phi(), "phi_remove_arg on non-phi");
        let nuses = s.ops.len as usize - s.ndefs as usize;
        assert!(k < nuses, "phi arg index out of range");
        let use_start = s.ops.start as usize + s.ndefs as usize;
        self.op_pool
            .copy_within(use_start + k + 1..use_start + nuses, use_start + k);
        s.ops.len -= 1;
        let pred_start = s.blocks.start as usize;
        let npreds = s.blocks.len as usize;
        self.block_pool
            .copy_within(pred_start + k + 1..pred_start + npreds, pred_start + k);
        s.blocks.len -= 1;
    }

    /// Iterates over the instruction ids of a block.
    pub fn block_insts(&self, b: Block) -> impl Iterator<Item = Inst> + '_ {
        self.blocks[b].insts.iter().copied()
    }

    /// Iterates over `(block, inst)` for the whole function, in block
    /// creation order and intra-block order.
    pub fn all_insts(&self) -> impl Iterator<Item = (Block, Inst)> + '_ {
        self.blocks()
            .flat_map(move |b| self.block_insts(b).map(move |i| (b, i)))
    }

    /// The φ instructions at the head of `b`.
    pub fn phis(&self, b: Block) -> impl Iterator<Item = Inst> + '_ {
        self.block_insts(b)
            .take_while(|&i| self.insts[i].opcode.is_phi())
    }

    /// Index of the first non-φ instruction of `b` (== number of φs).
    pub fn first_non_phi(&self, b: Block) -> usize {
        self.blocks[b]
            .insts
            .iter()
            .take_while(|&&i| self.insts[i].opcode.is_phi())
            .count()
    }

    /// The terminator of `b`, if the block is non-empty and properly
    /// terminated.
    pub fn terminator(&self, b: Block) -> Option<Inst> {
        let last = *self.blocks[b].insts.last()?;
        self.insts[last].opcode.is_terminator().then_some(last)
    }

    /// Successor blocks of `b` according to its terminator. Empty for
    /// `ret` or unterminated blocks.
    pub fn succs(&self, b: Block) -> &[Block] {
        match self.terminator(b) {
            Some(t) => &self.block_pool[self.insts[t].blocks.range()],
            None => &[],
        }
    }

    /// Removes `inst` from `block`'s instruction list (the arena slot
    /// remains allocated). Returns true if it was present.
    pub fn remove_inst(&mut self, block: Block, inst: Inst) -> bool {
        self.edited();
        let list = &mut self.blocks[block].insts;
        match list.iter().position(|&i| i == inst) {
            Some(pos) => {
                list.remove(pos);
                true
            }
            None => false,
        }
    }

    // ---- whole-function edits --------------------------------------------

    /// Rewrites every operand variable through `map`.
    pub fn rewrite_vars(&mut self, mut map: impl FnMut(Var) -> Var) {
        self.edited();
        for b in 0..self.blocks.len() {
            for k in 0..self.blocks[Block::new(b)].insts.len() {
                let i = self.blocks[Block::new(b)].insts[k];
                let r = self.insts[i].ops.range();
                for op in &mut self.op_pool[r] {
                    op.var = map(op.var);
                }
            }
        }
    }

    /// Counts the `mov` instructions currently in the function, ignoring
    /// self-moves (the metric of the paper's Tables 2–4).
    pub fn count_moves(&self) -> usize {
        self.all_insts()
            .filter(|&(_, i)| {
                let s = &self.insts[i];
                s.opcode.is_move() && {
                    let ops = &self.op_pool[s.ops.range()];
                    ops[0].var != ops[1].var
                }
            })
            .count()
    }

    // ---- validation -----------------------------------------------------

    /// Checks structural invariants: every reachable block ends in a
    /// terminator, φs lead their block, branch targets are in range,
    /// per-opcode def/use arities hold, and φ argument counts match their
    /// predecessor lists.
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ValidateError> {
        let err = |message: String| Err(ValidateError { message });
        for b in self.blocks() {
            let data = &self.blocks[b];
            if data.insts.is_empty() {
                return err(format!("block {b} is empty"));
            }
            let last = *data.insts.last().expect("non-empty");
            if !self.insts[last].opcode.is_terminator() {
                return err(format!("block {b} does not end in a terminator"));
            }
            let mut seen_non_phi = false;
            for (pos, &i) in data.insts.iter().enumerate() {
                let inst = self.inst(i);
                if inst.is_terminator() && pos + 1 != data.insts.len() {
                    return err(format!("terminator {i} of {b} is not last"));
                }
                if inst.is_phi() {
                    if seen_non_phi {
                        return err(format!("phi {i} of {b} after a non-phi"));
                    }
                } else {
                    seen_non_phi = true;
                }
                for t in inst.targets {
                    if t.index() >= self.blocks.len() {
                        return err(format!("{i} targets out-of-range block {t}"));
                    }
                }
                for op in inst.operands() {
                    if op.var.index() >= self.vars.len() {
                        return err(format!("{i} references out-of-range var {}", op.var));
                    }
                }
                self.check_arity(b, i)?;
            }
        }
        // φ argument lists must match the actual predecessors.
        let mut preds: EntityVec<Block, Vec<Block>> =
            EntityVec::filled(self.blocks.len(), Vec::new());
        for b in self.blocks() {
            for &s in self.succs(b) {
                preds[s].push(b);
            }
        }
        for b in self.blocks() {
            for i in self.phis(b) {
                let inst = self.inst(i);
                let mut got: Vec<Block> = inst.phi_preds.to_vec();
                let mut want = preds[b].clone();
                got.sort();
                want.sort();
                want.dedup();
                if got != want {
                    return err(format!(
                        "phi {i} of {b} has preds {got:?} but block has preds {want:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    fn check_arity(&self, b: Block, i: Inst) -> Result<(), ValidateError> {
        let inst = self.inst(i);
        let (defs, uses) = (inst.defs.len(), inst.uses.len());
        let bad = |what: &str| {
            Err(ValidateError {
                message: format!(
                    "{} {i} in {b}: bad {what} arity ({defs} defs, {uses} uses)",
                    inst.opcode
                ),
            })
        };
        match inst.opcode {
            Opcode::Input => {
                if uses != 0 {
                    return bad("use");
                }
            }
            Opcode::Mov
            | Opcode::More
            | Opcode::AddImm
            | Opcode::AutoAdd
            | Opcode::Load
            | Opcode::Neg
            | Opcode::Not => {
                if defs != 1 || uses != 1 {
                    return bad("def/use");
                }
            }
            Opcode::Make => {
                if defs != 1 || uses != 0 {
                    return bad("def/use");
                }
            }
            Opcode::Add
            | Opcode::Sub
            | Opcode::Mul
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::Shl
            | Opcode::Shr
            | Opcode::CmpEq
            | Opcode::CmpNe
            | Opcode::CmpLt
            | Opcode::CmpLe => {
                if defs != 1 || uses != 2 {
                    return bad("def/use");
                }
            }
            Opcode::Select | Opcode::PSel => {
                if defs != 1 || uses != 3 {
                    return bad("def/use");
                }
            }
            Opcode::Store => {
                if defs != 0 || uses != 2 {
                    return bad("def/use");
                }
            }
            Opcode::SpillStore => {
                if defs != 0 || uses != 1 {
                    return bad("def/use");
                }
            }
            Opcode::SpillLoad => {
                if defs != 1 || uses != 0 {
                    return bad("def/use");
                }
            }
            Opcode::Call => {
                if defs > 1 {
                    return bad("def");
                }
                if inst.callee.is_none() {
                    return Err(ValidateError {
                        message: format!("call {i} has no callee"),
                    });
                }
            }
            Opcode::Br => {
                if defs != 0 || uses != 1 || inst.targets.len() != 2 {
                    return bad("def/use/target");
                }
            }
            Opcode::Jump => {
                if defs != 0 || uses != 0 || inst.targets.len() != 1 {
                    return bad("def/use/target");
                }
            }
            Opcode::Ret => {
                if defs != 0 {
                    return bad("def");
                }
            }
            Opcode::Phi => {
                if defs != 1 || uses == 0 || uses != inst.phi_preds.len() {
                    return bad("def/use/pred");
                }
            }
            Opcode::Psi => {
                if defs != 1 || uses < 2 || uses % 2 != 0 {
                    return bad("def/use");
                }
            }
        }
        Ok(())
    }
}

/// Convenience: pins the definition of `v` to the interned resource of a
/// physical register.
pub fn pin_var_to_reg(f: &mut Function, v: Var, reg: PhysReg) -> Resource {
    let r = f.resources.phys(reg, f.machine.reg_name(reg));
    f.set_pin(v, Some(r));
    r
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.var)?;
        if let Some(r) = self.pin {
            write!(f, "!{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Var;

    fn tiny() -> Function {
        let mut f = Function::new("t", Machine::dsp32());
        let a = f.new_var("a");
        let b = f.new_var("b");
        f.push_inst(
            f.entry,
            InstData::new(Opcode::Make)
                .with_defs(vec![a.into()])
                .with_imm(1),
        );
        f.push_inst(f.entry, InstData::mov(b, a));
        f.push_inst(
            f.entry,
            InstData::new(Opcode::Ret).with_uses(vec![b.into()]),
        );
        f
    }

    #[test]
    fn build_and_validate() {
        let f = tiny();
        assert!(f.validate().is_ok());
        assert_eq!(f.count_moves(), 1);
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.block_insts(f.entry).count(), 3);
    }

    #[test]
    fn self_moves_not_counted() {
        let mut f = tiny();
        let a = Var::new(0);
        f.insert_inst(f.entry, 2, InstData::mov(a, a));
        assert_eq!(f.count_moves(), 1);
    }

    #[test]
    fn validate_rejects_missing_terminator() {
        let mut f = Function::new("t", Machine::dsp32());
        let a = f.new_var("a");
        f.push_inst(
            f.entry,
            InstData::new(Opcode::Make).with_defs(vec![a.into()]),
        );
        let e = f.validate().unwrap_err();
        assert!(e.message.contains("terminator"), "{e}");
    }

    #[test]
    fn validate_rejects_misplaced_phi() {
        let mut f = tiny();
        let c = f.new_var("c");
        let entry = f.entry;
        f.insert_inst(entry, 1, InstData::phi(c, vec![(entry, Var::new(0))]));
        assert!(f.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let mut f = Function::new("t", Machine::dsp32());
        let a = f.new_var("a");
        f.push_inst(
            f.entry,
            InstData::new(Opcode::Add)
                .with_defs(vec![a.into()])
                .with_uses(vec![a.into()]),
        );
        f.push_inst(f.entry, InstData::new(Opcode::Ret));
        assert!(f.validate().is_err());
    }

    #[test]
    fn phi_preds_checked_against_cfg() {
        let mut f = Function::new("t", Machine::dsp32());
        let a = f.new_var("a");
        let x = f.new_var("x");
        let merge = f.add_block("merge");
        f.push_inst(
            f.entry,
            InstData::new(Opcode::Make)
                .with_defs(vec![a.into()])
                .with_imm(3),
        );
        f.push_inst(
            f.entry,
            InstData::new(Opcode::Jump).with_targets(vec![merge]),
        );
        // φ claims a pred that is not an actual predecessor.
        let bogus = f.add_block("bogus");
        f.push_inst(bogus, InstData::new(Opcode::Ret));
        f.push_inst(merge, InstData::phi(x, vec![(bogus, a)]));
        f.push_inst(merge, InstData::new(Opcode::Ret).with_uses(vec![x.into()]));
        assert!(f.validate().is_err());
    }

    #[test]
    fn pinning_helpers() {
        let mut f = tiny();
        let v = Var::new(0);
        let reg = f.machine.abi.ret_reg;
        let r = pin_var_to_reg(&mut f, v, reg);
        assert_eq!(f.var(v).pin, Some(r));
        assert_eq!(f.resources.as_phys(r), Some(f.machine.abi.ret_reg));
        let inst = f.block_insts(f.entry).nth(1).unwrap();
        f.set_operand_pin(inst, 1, Some(r)); // the use of the mov
        assert_eq!(f.inst(inst).uses[0].pin, Some(r));
    }

    /// Runs `edit` and asserts it moved the count but kept the identity.
    fn moves_stamp(f: &mut Function, what: &str, edit: impl FnOnce(&mut Function)) {
        let before = f.edit_stamp();
        edit(f);
        let after = f.edit_stamp();
        assert_eq!(after.0, before.0, "{what} changed the identity");
        assert_ne!(after.1, before.1, "{what} did not move the edit stamp");
    }

    #[test]
    fn every_mut_method_moves_the_edit_stamp() {
        let mut f = tiny();
        let entry = f.entry;
        let a = Var::new(0);
        let first = f.block_insts(entry).next().unwrap();
        let make = |v: Var| {
            InstData::new(Opcode::Make)
                .with_defs(vec![v.into()])
                .with_imm(7)
        };
        moves_stamp(&mut f, "new_var", |f| {
            f.new_var("c");
        });
        moves_stamp(&mut f, "new_var_version", |f| {
            f.new_var_version(a);
        });
        moves_stamp(&mut f, "var_mut", |f| {
            f.var_mut(a);
        });
        let mut l = entry;
        moves_stamp(&mut f, "add_block", |f| l = f.add_block("l"));
        moves_stamp(&mut f, "block_mut", |f| {
            f.block_mut(entry);
        });
        moves_stamp(&mut f, "push_inst", |f| {
            f.push_inst(l, InstData::new(Opcode::Ret));
        });
        moves_stamp(&mut f, "insert_inst", |f| {
            f.insert_inst(entry, 0, make(a));
        });
        moves_stamp(&mut f, "alloc_inst", |f| {
            f.alloc_inst(make(a));
        });
        moves_stamp(&mut f, "replace_inst", |f| f.replace_inst(first, make(a)));
        moves_stamp(&mut f, "inst_mut", |f| {
            f.inst_mut(first);
        });
        moves_stamp(&mut f, "rewrite_vars", |f| f.rewrite_vars(|v| v));
        moves_stamp(&mut f, "remove_inst", |f| {
            f.remove_inst(entry, first);
        });
        let x = f.new_var("x");
        let m = f.add_block("m");
        let phi = f.push_inst(m, InstData::phi(x, vec![(entry, a), (l, a)]));
        moves_stamp(&mut f, "phi_remove_arg", |f| f.phi_remove_arg(phi, 0));
    }

    #[test]
    fn pin_writes_and_reads_keep_the_edit_stamp() {
        let mut f = tiny();
        let a = Var::new(0);
        let mov = f.block_insts(f.entry).nth(1).unwrap();
        let before = f.edit_stamp();
        let r = f.resources.new_virt("r");
        f.set_pin(a, Some(r));
        f.set_operand_pin(mov, 1, Some(r));
        f.set_operand_pin(mov, 0, Some(r));
        let reg = f.machine.abi.ret_reg;
        pin_var_to_reg(&mut f, a, reg);
        assert_eq!(f.inst(mov).defs[0].pin, Some(r));
        assert_eq!(f.inst(mov).uses[0].pin, Some(r));
        f.validate().unwrap();
        let _ = (f.count_moves(), f.to_string());
        let _ = (
            f.var(a),
            f.inst(mov),
            f.succs(f.entry),
            f.first_non_phi(f.entry),
        );
        assert_eq!(f.edit_stamp(), before);
        f.set_pin(a, None);
        assert_eq!(f.var(a).pin, None);
        assert_eq!(f.edit_stamp(), before);
    }

    #[test]
    fn clones_get_a_fresh_identity() {
        let f = tiny();
        let g = f.clone();
        let h = f.clone();
        assert_ne!(g.edit_stamp().0, f.edit_stamp().0);
        assert_ne!(h.edit_stamp().0, g.edit_stamp().0);
        assert_ne!(
            Function::new("t", Machine::dsp32()).edit_stamp().0,
            f.edit_stamp().0
        );
    }

    #[test]
    fn versions_and_clones_share_the_name_allocation() {
        let mut f = tiny();
        let a = Var::new(0);
        let v1 = f.new_var_version(a);
        let v2 = f.new_var_version(v1);
        assert!(Arc::ptr_eq(&f.var(v1).name, &f.var(a).name));
        assert!(Arc::ptr_eq(&f.var(v2).name, &f.var(a).name));
        assert_eq!(f.var(v2).origin, Some(a));
        let g = f.clone();
        for v in f.vars() {
            assert!(Arc::ptr_eq(&g.var(v).name, &f.var(v).name), "{v}");
        }
        for b in f.blocks() {
            assert!(Arc::ptr_eq(&g.block(b).name, &f.block(b).name), "{b}");
        }
    }

    #[test]
    fn derived_names_format_like_format() {
        let x: Arc<str> = "x".into();
        assert_eq!(&*derived_name(format_args!("{x}_c")), "x_c");
        assert_eq!(&*derived_name(format_args!("pcopy{}", 12)), "pcopy12");
        // Past the stack buffer the name still comes out whole.
        let long = "n".repeat(100);
        assert_eq!(
            &*derived_name(format_args!("{long}.r")),
            format!("{long}.r")
        );
    }

    #[test]
    fn replace_inst_swaps_payload() {
        let mut f = tiny();
        let first = f.block_insts(f.entry).next().unwrap();
        let c = f.new_var("c");
        f.replace_inst(
            first,
            InstData::new(Opcode::Make)
                .with_defs(vec![c.into()])
                .with_imm(9),
        );
        let view = f.inst(first);
        assert_eq!(view.imm, 9);
        assert_eq!(view.defs[0].var, c);
    }

    #[test]
    fn phi_remove_arg_shrinks_in_place() {
        let mut f = Function::new("t", Machine::dsp32());
        let a = f.new_var("a");
        let b = f.new_var("b");
        let x = f.new_var("x");
        let l = f.add_block("l");
        let r = f.add_block("r");
        let m = f.add_block("m");
        let phi = f.push_inst(m, InstData::phi(x, vec![(l, a), (r, b)]));
        f.phi_remove_arg(phi, 0);
        let view = f.inst(phi);
        assert_eq!(view.uses.len(), 1);
        assert_eq!(view.uses[0].var, b);
        assert_eq!(view.phi_preds, &[r]);
    }

    #[test]
    fn callees_are_interned() {
        let mut f = Function::new("t", Machine::dsp32());
        let a = f.new_var("a");
        let b = f.new_var("b");
        let mut call = InstData::new(Opcode::Call).with_defs(vec![a.into()]);
        call.callee = Some("helper".into());
        f.push_inst(f.entry, call);
        let mut call2 = InstData::new(Opcode::Call).with_defs(vec![b.into()]);
        call2.callee = Some("helper".into());
        f.push_inst(f.entry, call2);
        assert_eq!(f.callees.len(), 1);
        let i0 = f.block_insts(f.entry).next().unwrap();
        assert_eq!(f.inst(i0).callee, Some("helper"));
    }
}
