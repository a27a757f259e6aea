//! Textual printing of functions (LAI-style assembly).
//!
//! The format round-trips through [`crate::parse`]:
//!
//! ```text
//! func @euclid {
//! bb0:
//!   %a.0!R0, %b.1!R1 = input
//!   jump bb1
//! bb1:
//!   %x.2 = phi [bb0: %a.0], [bb2: %y.3]
//!   ...
//!   br %c.5, bb2, bb3
//! }
//! ```
//!
//! Variables print as `%name.index`; a variable carrying a physical
//! register identity prints as the bare register name (`R0`). Pins print
//! as `!R0` (physical) or `!$name.index` (virtual resource). A pin shown
//! on a def position is the *variable pinning* of the defined variable.

use crate::function::Function;
use crate::ids::{Block, Inst, Resource, Var};
use crate::opcode::Opcode;
use std::fmt;
use std::fmt::Write as _;

fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() {
        s.push('v');
    }
    s
}

/// Prints a variable reference.
pub fn var_str(f: &Function, v: Var) -> String {
    let data = f.var(v);
    if let Some(reg) = data.reg {
        return f.machine.reg_name(reg).to_string();
    }
    format!("%{}.{}", sanitize(&data.name), v.index())
}

/// Prints a resource reference.
pub fn res_str(f: &Function, r: Resource) -> String {
    match f.resources.as_phys(r) {
        Some(reg) => f.machine.reg_name(reg).to_string(),
        None => format!("${}.{}", sanitize(f.resources.name(r)), r.index()),
    }
}

fn operand_str(f: &Function, var: Var, pin: Option<Resource>) -> String {
    match pin {
        Some(r) => format!("{}!{}", var_str(f, var), res_str(f, r)),
        None => var_str(f, var),
    }
}

fn block_str(b: Block) -> String {
    format!("bb{}", b.index())
}

/// Prints one instruction (without trailing newline).
pub fn inst_str(f: &Function, i: Inst) -> String {
    let inst = f.inst(i);
    let mut s = String::new();
    // Def list. Def pins are variable pinnings.
    if !inst.defs.is_empty() {
        let defs: Vec<String> = inst
            .defs
            .iter()
            .map(|o| operand_str(f, o.var, f.var(o.var).pin))
            .collect();
        let _ = write!(s, "{} = ", defs.join(", "));
    }
    let _ = write!(s, "{}", inst.opcode);
    let use_str = |o: &crate::instr::Operand| operand_str(f, o.var, o.pin);
    match inst.opcode {
        Opcode::Phi => {
            let args: Vec<String> = inst
                .uses
                .iter()
                .zip(inst.phi_preds)
                .map(|(o, &b)| format!("[{}: {}]", block_str(b), use_str(o)))
                .collect();
            let _ = write!(s, " {}", args.join(", "));
        }
        Opcode::Psi => {
            let args: Vec<String> = inst
                .uses
                .chunks(2)
                .map(|c| format!("{} ? {}", use_str(&c[0]), use_str(&c[1])))
                .collect();
            let _ = write!(s, " {}", args.join(", "));
        }
        Opcode::Call => {
            let args: Vec<String> = inst.uses.iter().map(use_str).collect();
            let _ = write!(s, " {}({})", inst.callee.unwrap_or("?"), args.join(", "));
        }
        Opcode::Br => {
            let _ = write!(
                s,
                " {}, {}, {}",
                use_str(&inst.uses[0]),
                block_str(inst.targets[0]),
                block_str(inst.targets[1])
            );
        }
        Opcode::Jump => {
            let _ = write!(s, " {}", block_str(inst.targets[0]));
        }
        _ => {
            let mut parts: Vec<String> = inst.uses.iter().map(use_str).collect();
            match inst.opcode {
                Opcode::Make
                | Opcode::More
                | Opcode::AddImm
                | Opcode::AutoAdd
                | Opcode::SpillStore
                | Opcode::SpillLoad => {
                    parts.push(format!("{}", inst.imm));
                }
                _ => {}
            }
            if !parts.is_empty() {
                let _ = write!(s, " {}", parts.join(", "));
            }
        }
    }
    s
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "func @{} {{", sanitize(&self.name))?;
        for b in self.blocks() {
            let data = self.block(b);
            write!(f, "bb{}:", b.index())?;
            if !data.name.is_empty() && data.name != format!("bb{}", b.index()) {
                write!(f, "  ; {}", data.name)?;
            }
            writeln!(f)?;
            for i in self.block_insts(b) {
                writeln!(f, "  {}", inst_str(self, i))?;
            }
        }
        writeln!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::{inst_str, var_str};
    use crate::function::pin_var_to_reg;
    use crate::machine::Machine;
    use crate::parse::parse_function;
    use crate::{Function, Var};

    fn parse(text: &str) -> Function {
        parse_function(text, &Machine::dsp32()).unwrap()
    }

    #[test]
    fn var_and_inst_str_helpers() {
        let mut f = parse("func @h {\nentry:\n  %a = make 2\n  ret %a\n}");
        let a = Var::new(0);
        f.var_mut(a).name = "a value".into(); // name is sanitized
        assert_eq!(var_str(&f, a), "%a_value.0");
        let first = f.block_insts(f.entry).next().unwrap();
        assert_eq!(inst_str(&f, first), "%a_value.0 = make 2");
    }

    #[test]
    fn prints_straightline() {
        let f = parse("func @t {\nentry:\n  %a, %b = input\n  %s = add %a, %b\n  ret %s\n}");
        let text = f.to_string();
        assert!(text.contains("func @t {"), "{text}");
        assert!(text.contains("%a.0, %b.1 = input"), "{text}");
        assert!(text.contains("%s.2 = add %a.0, %b.1"), "{text}");
        assert!(text.contains("ret %s.2"), "{text}");
    }

    #[test]
    fn prints_pins_and_phis() {
        let mut f = parse(
            "func @t {\nentry:\n  %a = make 5\n  jump m\nm:\n  %x = phi [entry: %a]\n  ret %a\n}",
        );
        let reg = f.machine.abi.ret_reg;
        pin_var_to_reg(&mut f, Var::new(1), reg);
        let text = f.to_string();
        assert!(text.contains("%x.1!R0 = phi [bb0: %a.0]"), "{text}");
    }

    #[test]
    fn reg_identity_prints_as_register() {
        let mut f = parse("func @t {\nentry:\n  %a = make 1\n  ret %a\n}");
        f.var_mut(Var::new(0)).reg = Some(f.machine.abi.ret_reg);
        let text = f.to_string();
        assert!(text.contains("R0 = make 1"), "{text}");
        assert!(text.contains("ret R0"), "{text}");
    }

    #[test]
    fn prints_calls_and_imm_ops() {
        let f = parse(
            "func @t {
entry:
  %a = make 161
  %k = more %a, 11258
  %p = input
  %q = autoadd %p, 4
  %r = call f(%k, %q)
  ret %r
}",
        );
        let text = f.to_string();
        assert!(text.contains("%k.1 = more %a.0, 11258"), "{text}");
        assert!(text.contains("%q.3 = autoadd %p.2, 4"), "{text}");
        assert!(text.contains("%r.4 = call f(%k.1, %q.3)"), "{text}");
    }
}
