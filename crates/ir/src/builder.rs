//! Ergonomic function construction.
//!
//! [`FunctionBuilder`] keeps a current insertion block and offers one
//! method per opcode, creating result variables on the fly:
//!
//! ```
//! use tossa_ir::builder::FunctionBuilder;
//! use tossa_ir::machine::Machine;
//!
//! let mut fb = FunctionBuilder::new("axpy", Machine::dsp32());
//! let (a, x) = {
//!     let ins = fb.inputs(&["a", "x"]);
//!     (ins[0], ins[1])
//! };
//! let y = fb.mul("y", a, x);
//! let z = fb.addi("z", y, 1);
//! fb.ret(&[z]);
//! let f = fb.finish();
//! assert!(f.validate().is_ok());
//! ```

use crate::function::Function;
use crate::ids::{Block, Inst, Var};
use crate::instr::{InstData, Operand};
use crate::machine::Machine;
use crate::opcode::Opcode;

/// Incremental builder for a [`Function`].
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    current: Block,
}

impl FunctionBuilder {
    /// Starts a new function positioned at its entry block.
    pub fn new(name: impl Into<String>, machine: Machine) -> FunctionBuilder {
        let func = Function::new(name, machine);
        let current = func.entry;
        FunctionBuilder { func, current }
    }

    /// Finishes construction, returning the function.
    pub fn finish(self) -> Function {
        self.func
    }

    /// Read-only access to the function under construction.
    pub fn func(&self) -> &Function {
        &self.func
    }

    /// Mutable access to the function under construction (for pinning).
    pub fn func_mut(&mut self) -> &mut Function {
        &mut self.func
    }

    /// Creates a new block.
    pub fn block(&mut self, name: impl Into<String>) -> Block {
        self.func.add_block(name)
    }

    /// Moves the insertion point to `b`.
    pub fn switch_to(&mut self, b: Block) {
        self.current = b;
    }

    /// The current insertion block.
    pub fn current(&self) -> Block {
        self.current
    }

    /// Creates a fresh named variable without defining it.
    pub fn var(&mut self, name: &str) -> Var {
        self.func.new_var(name)
    }

    fn emit(&mut self, data: InstData) -> Inst {
        self.func.push_inst(self.current, data)
    }

    fn unary(&mut self, op: Opcode, name: &str, a: Var) -> Var {
        let d = self.func.new_var(name);
        self.emit(
            InstData::new(op)
                .with_defs(vec![d.into()])
                .with_uses(vec![a.into()]),
        );
        d
    }

    fn binary(&mut self, op: Opcode, name: &str, a: Var, b: Var) -> Var {
        let d = self.func.new_var(name);
        self.emit(
            InstData::new(op)
                .with_defs(vec![d.into()])
                .with_uses(vec![a.into(), b.into()]),
        );
        d
    }

    /// Emits the `input` pseudo-instruction defining the live-in
    /// variables, in ABI argument order.
    pub fn inputs(&mut self, names: &[&str]) -> Vec<Var> {
        let vars: Vec<Var> = names.iter().map(|n| self.func.new_var(*n)).collect();
        let defs: Vec<Operand> = vars.iter().map(|&v| v.into()).collect();
        self.emit(InstData::new(Opcode::Input).with_defs(defs));
        vars
    }

    /// `name = make imm`.
    pub fn make(&mut self, name: &str, imm: i64) -> Var {
        let d = self.func.new_var(name);
        self.emit(
            InstData::new(Opcode::Make)
                .with_defs(vec![d.into()])
                .with_imm(imm),
        );
        d
    }

    /// `name = more a, imm` (two-operand constant extension).
    pub fn more(&mut self, name: &str, a: Var, imm: i64) -> Var {
        let d = self.func.new_var(name);
        self.emit(
            InstData::new(Opcode::More)
                .with_defs(vec![d.into()])
                .with_uses(vec![a.into()])
                .with_imm(imm),
        );
        d
    }

    /// `name = mov a`.
    pub fn mov(&mut self, name: &str, a: Var) -> Var {
        let d = self.func.new_var(name);
        self.emit(InstData::mov(d, a));
        d
    }

    /// `name = add a, b`.
    pub fn add(&mut self, name: &str, a: Var, b: Var) -> Var {
        self.binary(Opcode::Add, name, a, b)
    }

    /// `name = sub a, b`.
    pub fn sub(&mut self, name: &str, a: Var, b: Var) -> Var {
        self.binary(Opcode::Sub, name, a, b)
    }

    /// `name = mul a, b`.
    pub fn mul(&mut self, name: &str, a: Var, b: Var) -> Var {
        self.binary(Opcode::Mul, name, a, b)
    }

    /// `name = and a, b`.
    pub fn and(&mut self, name: &str, a: Var, b: Var) -> Var {
        self.binary(Opcode::And, name, a, b)
    }

    /// `name = or a, b`.
    pub fn or(&mut self, name: &str, a: Var, b: Var) -> Var {
        self.binary(Opcode::Or, name, a, b)
    }

    /// `name = xor a, b`.
    pub fn xor(&mut self, name: &str, a: Var, b: Var) -> Var {
        self.binary(Opcode::Xor, name, a, b)
    }

    /// `name = shl a, b`.
    pub fn shl(&mut self, name: &str, a: Var, b: Var) -> Var {
        self.binary(Opcode::Shl, name, a, b)
    }

    /// `name = shr a, b`.
    pub fn shr(&mut self, name: &str, a: Var, b: Var) -> Var {
        self.binary(Opcode::Shr, name, a, b)
    }

    /// `name = neg a`.
    pub fn neg(&mut self, name: &str, a: Var) -> Var {
        self.unary(Opcode::Neg, name, a)
    }

    /// `name = not a`.
    pub fn not(&mut self, name: &str, a: Var) -> Var {
        self.unary(Opcode::Not, name, a)
    }

    /// `name = addi a, imm`.
    pub fn addi(&mut self, name: &str, a: Var, imm: i64) -> Var {
        let d = self.func.new_var(name);
        self.emit(
            InstData::new(Opcode::AddImm)
                .with_defs(vec![d.into()])
                .with_uses(vec![a.into()])
                .with_imm(imm),
        );
        d
    }

    /// `name = autoadd p, imm` (two-operand pointer auto-modification).
    pub fn autoadd(&mut self, name: &str, p: Var, imm: i64) -> Var {
        let d = self.func.new_var(name);
        self.emit(
            InstData::new(Opcode::AutoAdd)
                .with_defs(vec![d.into()])
                .with_uses(vec![p.into()])
                .with_imm(imm),
        );
        d
    }

    /// `name = load p`.
    pub fn load(&mut self, name: &str, p: Var) -> Var {
        self.unary(Opcode::Load, name, p)
    }

    /// `store p, v`.
    pub fn store(&mut self, p: Var, v: Var) {
        self.emit(InstData::new(Opcode::Store).with_uses(vec![p.into(), v.into()]));
    }

    /// `name = cmpeq a, b`.
    pub fn cmpeq(&mut self, name: &str, a: Var, b: Var) -> Var {
        self.binary(Opcode::CmpEq, name, a, b)
    }

    /// `name = cmpne a, b`.
    pub fn cmpne(&mut self, name: &str, a: Var, b: Var) -> Var {
        self.binary(Opcode::CmpNe, name, a, b)
    }

    /// `name = cmplt a, b`.
    pub fn cmplt(&mut self, name: &str, a: Var, b: Var) -> Var {
        self.binary(Opcode::CmpLt, name, a, b)
    }

    /// `name = cmple a, b`.
    pub fn cmple(&mut self, name: &str, a: Var, b: Var) -> Var {
        self.binary(Opcode::CmpLe, name, a, b)
    }

    /// `name = select c, a, b`.
    pub fn select(&mut self, name: &str, c: Var, a: Var, b: Var) -> Var {
        let d = self.func.new_var(name);
        self.emit(
            InstData::new(Opcode::Select)
                .with_defs(vec![d.into()])
                .with_uses(vec![c.into(), a.into(), b.into()]),
        );
        d
    }

    /// `name = call callee(args...)`.
    pub fn call(&mut self, name: &str, callee: &str, args: &[Var]) -> Var {
        let d = self.func.new_var(name);
        let mut inst = InstData::new(Opcode::Call)
            .with_defs(vec![d.into()])
            .with_uses(args.iter().map(|&a| a.into()).collect());
        inst.callee = Some(callee.to_string());
        self.emit(inst);
        d
    }

    /// `br c, then_block, else_block`.
    pub fn br(&mut self, c: Var, then_block: Block, else_block: Block) {
        self.emit(
            InstData::new(Opcode::Br)
                .with_uses(vec![c.into()])
                .with_targets(vec![then_block, else_block]),
        );
    }

    /// `jump target`.
    pub fn jump(&mut self, target: Block) {
        self.emit(InstData::new(Opcode::Jump).with_targets(vec![target]));
    }

    /// `ret values...`.
    pub fn ret(&mut self, values: &[Var]) {
        self.emit(InstData::new(Opcode::Ret).with_uses(values.iter().map(|&v| v.into()).collect()));
    }

    /// `name = φ(args...)`; args pair incoming blocks with values.
    pub fn phi(&mut self, name: &str, args: &[(Block, Var)]) -> Var {
        let d = self.func.new_var(name);
        let inst = InstData::phi(d, args.to_vec());
        // φs must lead their block: insert after existing φs.
        let pos = self.func.first_non_phi(self.current);
        self.func.insert_inst(self.current, pos, inst);
        d
    }

    /// `name = ψ(p1?a1, p2?a2, ...)`.
    pub fn psi(&mut self, name: &str, guarded: &[(Var, Var)]) -> Var {
        let d = self.func.new_var(name);
        let mut uses = Vec::with_capacity(guarded.len() * 2);
        for &(p, a) in guarded {
            uses.push(p.into());
            uses.push(a.into());
        }
        self.emit(
            InstData::new(Opcode::Psi)
                .with_defs(vec![d.into()])
                .with_uses(uses),
        );
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_loop() {
        let mut fb = FunctionBuilder::new("count", Machine::dsp32());
        let n = fb.inputs(&["n"])[0];
        let zero = fb.make("zero", 0);
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.jump(head);

        fb.switch_to(head);
        let i = fb.var("i");
        let c = fb.cmplt("c", i, n);
        fb.br(c, body, exit);

        fb.switch_to(body);
        let i2 = fb.addi("i2", i, 1);
        fb.jump(head);

        // Now that i2 exists, place the φ — phi() inserts at block head.
        fb.switch_to(head);
        let entry = fb.func().entry;
        let iphi = fb.phi("i", &[(entry, zero), (body, i2)]);
        fb.func_mut()
            .rewrite_vars(|v| if v == i { iphi } else { v });

        fb.switch_to(exit);
        fb.ret(&[iphi]);
        let f = fb.finish();
        assert!(f.validate().is_ok(), "{:?}", f.validate());
        assert_eq!(f.phis(head).count(), 1);
    }

    #[test]
    fn straightline_ops() {
        let mut fb = FunctionBuilder::new("ops", Machine::dsp32());
        let ins = fb.inputs(&["a", "b"]);
        let (a, b) = (ins[0], ins[1]);
        let s = fb.add("s", a, b);
        let d = fb.sub("d", s, b);
        let m = fb.mul("m", d, d);
        let k = fb.make("k", 10);
        let x = fb.xor("x", m, k);
        let sl = fb.shl("sl", x, k);
        let c = fb.cmple("c", sl, a);
        let sel = fb.select("sel", c, sl, a);
        let r = fb.call("r", "helper", &[sel]);
        fb.ret(&[r]);
        let f = fb.finish();
        assert!(f.validate().is_ok(), "{:?}", f.validate());
        assert_eq!(f.block_insts(f.entry).count(), 11);
    }

    #[test]
    fn phi_goes_before_non_phis() {
        let mut fb = FunctionBuilder::new("p", Machine::dsp32());
        let a = fb.make("a", 1);
        let merge = fb.block("m");
        fb.jump(merge);
        fb.switch_to(merge);
        fb.ret(&[a]);
        let entry = fb.func().entry;
        fb.phi("x", &[(entry, a)]);
        let f = fb.finish();
        let first = f.block_insts(merge).next().unwrap();
        assert!(f.inst(first).is_phi());
    }
}
