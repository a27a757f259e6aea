//! Machine model: physical registers and ABI conventions.
//!
//! The paper targets the STMicroelectronics ST120 DSP. That machine is
//! proprietary, so this crate models a fictional but faithful stand-in,
//! `DSP32`, exposing the same *classes* of renaming constraints the paper
//! exercises:
//!
//! * ABI function parameter passing rules (arguments in `R0..R3`, pointer
//!   arguments in `P0..P1`, result in `R0`) — paper Fig. 1, statements
//!   `S0`, `S3`, `S8`;
//! * a dedicated stack pointer `SP` that must keep its identity across the
//!   out-of-SSA translation — paper §2.2, Fig. 2;
//! * two-operand instructions (`more`, `autoadd`) whose definition must
//!   reuse the resource of their first use — paper Fig. 1, statements
//!   `S1`, `S6`.
//!
//! The out-of-SSA algorithms only observe the machine through pinnings, so
//! any machine inducing the same pinning patterns exercises the same code
//! paths (see DESIGN.md §3).

use std::fmt;

/// A physical register, identified by a small index into the machine's
/// register file description.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysReg(pub u8);

impl PhysReg {
    /// Dense index of the register.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Register class of a physical register.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegClass {
    /// General purpose data register (`R0`–`R15`).
    Gpr,
    /// Pointer/address register (`P0`–`P3`).
    Ptr,
    /// Special dedicated register (`SP`, `LR`).
    Special,
}

/// Description of one physical register.
#[derive(Clone, Copy, Debug)]
pub struct RegInfo {
    /// Assembly name, e.g. `"R0"`.
    pub name: &'static str,
    /// Register class.
    pub class: RegClass,
}

/// ABI calling convention of the machine.
#[derive(Clone, Copy, Debug)]
pub struct Abi {
    /// Registers carrying scalar arguments, in order.
    pub arg_regs: &'static [PhysReg],
    /// Registers carrying pointer arguments, in order.
    pub ptr_arg_regs: &'static [PhysReg],
    /// Register carrying the (single) scalar return value.
    pub ret_reg: PhysReg,
    /// The dedicated stack pointer.
    pub sp: PhysReg,
}

/// A machine description: a handle over static register and ABI tables,
/// so copying one (a [`crate::Function`] clone, a parsed function)
/// allocates nothing.
#[derive(Clone, Copy, Debug)]
pub struct Machine {
    regs: &'static [RegInfo],
    /// The machine's calling convention.
    pub abi: Abi,
    /// The allocatable registers (every non-`Special` one), general
    /// purpose first.
    gpr_first: &'static [PhysReg],
    /// The same registers, pointer registers first.
    ptr_first: &'static [PhysReg],
}

const fn reg(name: &'static str, class: RegClass) -> RegInfo {
    RegInfo { name, class }
}

const fn r(i: u8) -> PhysReg {
    PhysReg(i)
}

static DSP32_REGS: [RegInfo; 22] = [
    reg("R0", RegClass::Gpr),
    reg("R1", RegClass::Gpr),
    reg("R2", RegClass::Gpr),
    reg("R3", RegClass::Gpr),
    reg("R4", RegClass::Gpr),
    reg("R5", RegClass::Gpr),
    reg("R6", RegClass::Gpr),
    reg("R7", RegClass::Gpr),
    reg("R8", RegClass::Gpr),
    reg("R9", RegClass::Gpr),
    reg("R10", RegClass::Gpr),
    reg("R11", RegClass::Gpr),
    reg("R12", RegClass::Gpr),
    reg("R13", RegClass::Gpr),
    reg("R14", RegClass::Gpr),
    reg("R15", RegClass::Gpr),
    reg("P0", RegClass::Ptr),
    reg("P1", RegClass::Ptr),
    reg("P2", RegClass::Ptr),
    reg("P3", RegClass::Ptr),
    reg("SP", RegClass::Special),
    reg("LR", RegClass::Special),
];

static DSP32_ARG_REGS: [PhysReg; 4] = [r(0), r(1), r(2), r(3)];
static DSP32_PTR_ARG_REGS: [PhysReg; 2] = [r(16), r(17)];

// The allocatable registers (every non-`Special` one) in the two
// preference orders of `Machine::allocation_order`.
#[rustfmt::skip]
static DSP32_GPR_FIRST: [PhysReg; 20] = [
    r(0), r(1), r(2), r(3), r(4), r(5), r(6), r(7),
    r(8), r(9), r(10), r(11), r(12), r(13), r(14), r(15),
    r(16), r(17), r(18), r(19),
];
#[rustfmt::skip]
static DSP32_PTR_FIRST: [PhysReg; 20] = [
    r(16), r(17), r(18), r(19),
    r(0), r(1), r(2), r(3), r(4), r(5), r(6), r(7),
    r(8), r(9), r(10), r(11), r(12), r(13), r(14), r(15),
];

impl Machine {
    /// The fictional `DSP32` machine used throughout this repository:
    /// sixteen GPRs `R0..R15`, four pointer registers `P0..P3`, and the
    /// dedicated registers `SP` and `LR`.
    pub const fn dsp32() -> Machine {
        Machine {
            regs: &DSP32_REGS,
            abi: Abi {
                arg_regs: &DSP32_ARG_REGS,
                ptr_arg_regs: &DSP32_PTR_ARG_REGS,
                ret_reg: r(0),
                sp: r(20),
            },
            gpr_first: &DSP32_GPR_FIRST,
            ptr_first: &DSP32_PTR_FIRST,
        }
    }

    /// Number of physical registers.
    pub fn num_regs(&self) -> usize {
        self.regs.len()
    }

    /// Assembly name of a register.
    ///
    /// # Panics
    /// Panics if `reg` is out of range for this machine.
    pub fn reg_name(&self, reg: PhysReg) -> &'static str {
        self.regs[reg.index()].name
    }

    /// Register class of a register.
    ///
    /// # Panics
    /// Panics if `reg` is out of range for this machine.
    pub fn reg_class(&self, reg: PhysReg) -> RegClass {
        self.regs[reg.index()].class
    }

    /// Looks a register up by assembly name (case-insensitive).
    pub fn reg_by_name(&self, name: &str) -> Option<PhysReg> {
        self.regs
            .iter()
            .position(|r| r.name.eq_ignore_ascii_case(name))
            .map(|i| PhysReg(i as u8))
    }

    /// Iterates over all physical registers.
    pub fn regs(&self) -> impl Iterator<Item = PhysReg> + use<> {
        (0..self.regs.len()).map(|i| PhysReg(i as u8))
    }

    /// The registers an unpinned variable may be assigned to, in
    /// preference order: general purpose first, or pointer registers
    /// first when `ptr_first`. `Special`-class registers are reserved
    /// for precoloring and never appear.
    pub fn allocation_order(&self, ptr_first: bool) -> &'static [PhysReg] {
        if ptr_first {
            self.ptr_first
        } else {
            self.gpr_first
        }
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::dsp32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsp32_register_file() {
        let m = Machine::dsp32();
        assert_eq!(m.num_regs(), 22);
        assert_eq!(m.reg_name(PhysReg(0)), "R0");
        assert_eq!(m.reg_name(PhysReg(16)), "P0");
        assert_eq!(m.reg_name(m.abi.sp), "SP");
        assert_eq!(m.reg_class(m.abi.sp), RegClass::Special);
        assert_eq!(m.reg_class(PhysReg(17)), RegClass::Ptr);
    }

    #[test]
    fn reg_lookup_by_name() {
        let m = Machine::dsp32();
        assert_eq!(m.reg_by_name("R3"), Some(PhysReg(3)));
        assert_eq!(m.reg_by_name("sp"), Some(m.abi.sp));
        assert_eq!(m.reg_by_name("Z9"), None);
    }

    #[test]
    fn abi_registers_are_distinct() {
        let m = Machine::dsp32();
        let mut all = m.abi.arg_regs.to_vec();
        all.extend(m.abi.ptr_arg_regs);
        all.push(m.abi.sp);
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n);
        assert!(m.abi.arg_regs.contains(&m.abi.ret_reg));
    }

    /// The two allocation orders are the non-`Special` registers in
    /// index order, one class ahead of the other.
    #[test]
    fn allocation_orders_follow_the_register_classes() {
        let m = Machine::dsp32();
        let of = |class| m.regs().filter(move |&r| m.reg_class(r) == class);
        let gpr_first: Vec<PhysReg> = of(RegClass::Gpr).chain(of(RegClass::Ptr)).collect();
        let ptr_first: Vec<PhysReg> = of(RegClass::Ptr).chain(of(RegClass::Gpr)).collect();
        assert_eq!(m.allocation_order(false), gpr_first.as_slice());
        assert_eq!(m.allocation_order(true), ptr_first.as_slice());
    }
}
