//! # tossa-ir — machine-level linear IR
//!
//! The intermediate representation underlying the whole `tossa` workspace:
//! a machine-level linear IR in the spirit of the STMicroelectronics LAI
//! language used by the paper *Optimizing Translation Out of SSA Using
//! Renaming Constraints* (Rastello, de Ferrière, Guillon — CGO 2004).
//!
//! The crate provides:
//!
//! * typed entity ids and dense maps ([`ids`]);
//! * a machine model with ABI renaming constraints ([`machine`]);
//! * instructions, φ/ψ pseudo-instructions, and operand/variable
//!   *pinning* to renaming resources ([`instr`], [`resources`]);
//! * the [`function::Function`] container with a structural validator;
//! * a printer ([`print`](mod@print)) and parser ([`parse`]);
//! * CFG utilities including critical-edge splitting ([`cfg`](mod@cfg));
//! * parallel-copy sequentialization ([`parallel_copy`]);
//! * a reference interpreter ([`interp`]) used to check every out-of-SSA
//!   translation end-to-end.
//!
//! ## Example
//!
//! ```
//! use tossa_ir::machine::Machine;
//! use tossa_ir::{interp, parse::parse_function};
//!
//! let text = "func @double {\nentry:\n  %x = input\n  %y = add %x, %x\n  ret %y\n}";
//! let f = parse_function(text, &Machine::dsp32())?;
//! f.validate()?;
//! assert_eq!(interp::run(&f, &[21], 100)?.outputs, vec![42]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod cfg;
pub mod function;
pub mod ids;
pub mod instr;
pub mod interp;
pub mod machine;
pub mod opcode;
pub mod parallel_copy;
pub mod parse;
pub mod print;
pub mod resources;
pub mod rng;

pub use function::Function;
pub use ids::{Block, Inst, Resource, Var};
pub use instr::{InstData, Operand};
pub use machine::{Machine, PhysReg};
pub use opcode::Opcode;
