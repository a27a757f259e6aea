//! Parser for the textual IR format produced by [`crate::print`].
//!
//! Grammar (informal; `;` starts a comment, whitespace is free):
//!
//! ```text
//! function := "func" "@" ident "{" block+ "}"
//! block    := label ":" inst*
//! inst     := [operands "="] mnemonic payload
//! operand  := "%" name ["!" pin] | regname ["!" pin]
//! pin      := regname | "$" name
//! ```
//!
//! Variable tokens are identified by their full name text (`%x.3` and
//! `%x.4` are distinct variables); block labels likewise. The first block
//! is the entry. A pin written on a def position becomes the *variable
//! pinning* of the defined variable.

use crate::function::Function;
use crate::ids::{Block, Resource, Var};
use crate::instr::{InstData, Operand};
use crate::machine::Machine;
use crate::opcode::Opcode;
use std::collections::HashMap;
use std::fmt;

/// A parse failure, with a 1-based line number, the column of the
/// offending token (0 when unknown), and the token text itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Line on which the error was detected.
    pub line: usize,
    /// 1-based column of the offending token within the line; 0 when the
    /// error is not attributable to a single token.
    pub col: usize,
    /// The offending token, when one exists.
    pub token: String,
    /// Description of the problem.
    pub message: String,
}

impl ParseError {
    fn at(line: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            line,
            col: 0,
            token: String::new(),
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col > 0 {
            write!(f, "line {}:{}: {}", self.line, self.col, self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    func: Function,
    vars: HashMap<String, Var>,
    blocks: HashMap<String, Block>,
    virt_res: HashMap<String, Resource>,
    machine: &'a Machine,
    line: usize,
    line_text: String,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError::at(self.line, message))
    }

    /// An error attributed to `token`, with its column located in the
    /// current source line.
    fn err_tok<T>(&self, token: &str, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line,
            col: if token.is_empty() {
                0
            } else {
                self.line_text.find(token).map_or(0, |p| p + 1)
            },
            token: token.to_string(),
            message: message.into(),
        })
    }

    fn var_for(&mut self, token: &str) -> Var {
        if let Some(&v) = self.vars.get(token) {
            return v;
        }
        // Strip a trailing ".N" printer suffix for the display name.
        let display = match token.rsplit_once('.') {
            Some((base, idx)) if idx.chars().all(|c| c.is_ascii_digit()) && !base.is_empty() => {
                base
            }
            _ => token,
        };
        let v = self.func.new_var(display);
        self.vars.insert(token.to_string(), v);
        v
    }

    fn resource_for(&mut self, token: &str) -> Result<Resource, ParseError> {
        if let Some(virt) = token.strip_prefix('$') {
            if let Some(&r) = self.virt_res.get(virt) {
                return Ok(r);
            }
            let display = match virt.rsplit_once('.') {
                Some((base, idx))
                    if idx.chars().all(|c| c.is_ascii_digit()) && !base.is_empty() =>
                {
                    base
                }
                _ => virt,
            };
            let r = self.func.resources.new_virt(display);
            self.virt_res.insert(virt.to_string(), r);
            Ok(r)
        } else if let Some(reg) = self.machine.reg_by_name(token) {
            let name = self.machine.reg_name(reg).to_string();
            Ok(self.func.resources.phys(reg, &name))
        } else {
            self.err_tok(token, format!("unknown resource `{token}`"))
        }
    }

    /// Parses `%x.3!R0` / `R0` / `%v!$a` into (var, pin).
    fn operand(&mut self, token: &str) -> Result<Operand, ParseError> {
        let (base, pin) = match token.split_once('!') {
            Some((b, p)) => (b, Some(p)),
            None => (token, None),
        };
        let var = if let Some(name) = base.strip_prefix('%') {
            self.var_for(name)
        } else if let Some(reg) = self.machine.reg_by_name(base) {
            // A bare register name denotes the unique variable carrying
            // that register identity.
            let key = format!("!reg:{base}");
            let v = match self.vars.get(&key) {
                Some(&v) => v,
                None => {
                    let v = self.func.new_var(base);
                    self.func.var_mut(v).reg = Some(reg);
                    self.vars.insert(key, v);
                    v
                }
            };
            v
        } else {
            return self.err_tok(base, format!("expected operand, found `{base}`"));
        };
        let pin = match pin {
            Some(p) => Some(self.resource_for(p)?),
            None => None,
        };
        Ok(Operand { var, pin })
    }

    fn block_ref(&mut self, token: &str) -> Result<Block, ParseError> {
        match self.blocks.get(token) {
            Some(&b) => Ok(b),
            None => self.err_tok(token, format!("unknown block label `{token}`")),
        }
    }

    fn imm(&self, token: &str) -> Result<i64, ParseError> {
        let t = token.trim();
        let (neg, t) = match t.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, t),
        };
        let v = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
            i64::from_str_radix(hex, 16)
        } else {
            t.parse::<i64>()
        };
        match v {
            Ok(v) => Ok(if neg { -v } else { v }),
            Err(_) => self.err_tok(token, format!("bad immediate `{token}`")),
        }
    }

    fn parse_inst(&mut self, text: &str, current: Block) -> Result<(), ParseError> {
        // Split "defs = rest" (careful: `=` only appears as that separator).
        let (defs_text, rest) = match text.split_once('=') {
            Some((d, r)) => (Some(d.trim()), r.trim()),
            None => (None, text.trim()),
        };
        let (mnemonic, tail) = match rest.split_once(char::is_whitespace) {
            Some((m, t)) => (m.trim(), t.trim()),
            None => (rest, ""),
        };
        let opcode = match Opcode::from_mnemonic(mnemonic) {
            Some(op) => op,
            None => return self.err_tok(mnemonic, format!("unknown mnemonic `{mnemonic}`")),
        };
        let mut inst = InstData::new(opcode);

        if let Some(defs_text) = defs_text {
            for tok in split_commas(defs_text) {
                let op = self.operand(&tok)?;
                if let Some(pin) = op.pin {
                    // Def pin = variable pinning.
                    self.func.set_pin(op.var, Some(pin));
                }
                inst.defs.push(Operand::new(op.var));
            }
        }

        match opcode {
            Opcode::Phi => {
                // [bb: %v], [bb: %v] ...
                for part in split_commas(tail) {
                    let part = part.trim();
                    let Some(inner) = part.strip_prefix('[').and_then(|p| p.strip_suffix(']'))
                    else {
                        return self.err_tok(part, format!("bad phi arg `{part}`"));
                    };
                    let (label, val) = match inner.split_once(':') {
                        Some((l, v)) => (l.trim(), v.trim()),
                        None => return self.err_tok(part, format!("bad phi arg `{part}`")),
                    };
                    let b = self.block_ref(label)?;
                    let op = self.operand(val)?;
                    inst.phi_preds.push(b);
                    inst.uses.push(op);
                }
            }
            Opcode::Psi => {
                for part in split_commas(tail) {
                    let (p, a) = match part.split_once('?') {
                        Some((p, a)) => (p.trim(), a.trim()),
                        None => return self.err_tok(&part, format!("bad psi arg `{part}`")),
                    };
                    let p = self.operand(p)?;
                    let a = self.operand(a)?;
                    inst.uses.push(p);
                    inst.uses.push(a);
                }
            }
            Opcode::Call => {
                let (callee, args) = match tail.split_once('(') {
                    Some((c, a)) => (c.trim(), a.trim().strip_suffix(')').unwrap_or(a.trim())),
                    None => return self.err_tok(tail, format!("bad call syntax `{tail}`")),
                };
                inst.callee = Some(callee.to_string());
                for tok in split_commas(args) {
                    if tok.trim().is_empty() {
                        continue;
                    }
                    let op = self.operand(&tok)?;
                    inst.uses.push(op);
                }
            }
            Opcode::Br => {
                let parts: Vec<String> = split_commas(tail);
                if parts.len() != 3 {
                    return self.err_tok(
                        mnemonic,
                        format!(
                            "br needs `cond, then, else`, found {} operands",
                            parts.len()
                        ),
                    );
                }
                inst.uses.push(self.operand(&parts[0])?);
                let t0 = self.block_ref(&parts[1])?;
                let t1 = self.block_ref(&parts[2])?;
                inst.targets = vec![t0, t1];
            }
            Opcode::Jump => {
                inst.targets = vec![self.block_ref(tail.trim())?];
            }
            Opcode::Make | Opcode::SpillLoad => {
                inst.imm = self.imm(tail)?;
            }
            Opcode::More | Opcode::AddImm | Opcode::AutoAdd | Opcode::SpillStore => {
                let parts: Vec<String> = split_commas(tail);
                if parts.len() != 2 {
                    return self.err_tok(
                        mnemonic,
                        format!(
                            "{mnemonic} needs `use, imm`, found {} operands",
                            parts.len()
                        ),
                    );
                }
                inst.uses.push(self.operand(&parts[0])?);
                inst.imm = self.imm(&parts[1])?;
            }
            _ => {
                for tok in split_commas(tail) {
                    if tok.trim().is_empty() {
                        continue;
                    }
                    inst.uses.push(self.operand(&tok)?);
                }
            }
        }
        self.func.push_inst(current, inst);
        Ok(())
    }
}

fn split_commas(s: &str) -> Vec<String> {
    if s.trim().is_empty() {
        return Vec::new();
    }
    s.split(',').map(|p| p.trim().to_string()).collect()
}

fn strip_comment(line: &str) -> &str {
    match line.find(';') {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Parses one function from text.
///
/// # Errors
/// Returns a [`ParseError`] with the offending line on malformed input.
/// The parsed function is *not* validated; call
/// [`Function::validate`] if structural invariants matter.
pub fn parse_function(text: &str, machine: &Machine) -> Result<Function, ParseError> {
    // Pass 1: function name and block labels (for forward references).
    let mut name = None;
    let mut labels: Vec<String> = Vec::new();
    for raw in text.lines() {
        let line = strip_comment(raw).trim();
        if line.is_empty() || line == "}" {
            continue;
        }
        if let Some(rest) = line.strip_prefix("func") {
            let rest = rest.trim().trim_end_matches('{').trim();
            name = Some(rest.trim_start_matches('@').to_string());
            continue;
        }
        if let Some(label) = line.strip_suffix(':') {
            if !label.contains(char::is_whitespace) {
                labels.push(label.to_string());
            }
        }
    }
    let name = name.ok_or_else(|| ParseError::at(1, "missing `func @name {`"))?;

    let mut p = Parser {
        func: Function::new(name, machine.clone()),
        vars: HashMap::new(),
        blocks: HashMap::new(),
        virt_res: HashMap::new(),
        machine,
        line: 0,
        line_text: String::new(),
    };
    // Map labels to blocks; first label is the entry.
    for (i, label) in labels.iter().enumerate() {
        let b = if i == 0 {
            p.func.block_mut(p.func.entry).name = label.clone();
            p.func.entry
        } else {
            p.func.add_block(label.clone())
        };
        if p.blocks.insert(label.clone(), b).is_some() {
            return Err(ParseError::at(1, format!("duplicate label `{label}`")));
        }
    }
    if labels.is_empty() {
        return Err(ParseError::at(1, "function has no blocks"));
    }

    // Pass 2: instructions.
    let mut current: Option<Block> = None;
    for (lineno, raw) in text.lines().enumerate() {
        p.line = lineno + 1;
        let line = strip_comment(raw).trim();
        p.line_text = raw.to_string();
        if line.is_empty() || line == "}" || line.starts_with("func") {
            continue;
        }
        if let Some(label) = line.strip_suffix(':') {
            if let Some(&b) = p.blocks.get(label) {
                current = Some(b);
                continue;
            }
        }
        let Some(cur) = current else {
            return p.err("instruction before first block label");
        };
        p.parse_inst(line, cur)?;
    }
    Ok(p.func)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dsp() -> Machine {
        Machine::dsp32()
    }

    #[test]
    fn parses_straightline() {
        let f = parse_function(
            "func @t {\nentry:\n  %a, %b = input\n  %s = add %a, %b\n  ret %s\n}",
            &dsp(),
        )
        .unwrap();
        assert!(f.validate().is_ok(), "{:?}", f.validate());
        assert_eq!(f.name, "t");
        assert_eq!(f.num_vars(), 3);
        assert_eq!(f.block_insts(f.entry).count(), 3);
    }

    #[test]
    fn parses_loop_with_phi_and_forward_refs() {
        let text = "
func @count {
entry:
  %n = input
  %z = make 0
  jump head
head:
  %i = phi [entry: %z], [body: %i2]
  %c = cmplt %i, %n
  br %c, body, exit
body:
  %i2 = addi %i, 1
  jump head
exit:
  ret %i
}";
        let f = parse_function(text, &dsp()).unwrap();
        assert!(f.validate().is_ok(), "{:?}", f.validate());
        assert_eq!(f.num_blocks(), 4);
    }

    #[test]
    fn parses_pins() {
        let text = "
func @abi {
entry:
  %c!R0, %p!P0 = input
  %q!$q = autoadd %p!$q, 1
  %d!R0 = call f(%c!R0, %q!R1)
  ret %d!R0
}";
        let f = parse_function(text, &dsp()).unwrap();
        assert!(f.validate().is_ok());
        // %c pinned (as variable pinning) to R0.
        let c = Var::new(0);
        let pin = f.var(c).pin.unwrap();
        assert_eq!(f.resources.as_phys(pin), Some(f.machine.abi.ret_reg));
        // %q's def and the use of %p share one virtual resource.
        let q = Var::new(2);
        let qpin = f.var(q).pin.unwrap();
        assert!(f.resources.as_phys(qpin).is_none());
        let autoadd = f.block_insts(f.entry).nth(1).unwrap();
        assert_eq!(f.inst(autoadd).uses[0].pin, Some(qpin));
    }

    #[test]
    fn parses_bare_registers_as_reg_vars() {
        let text = "func @m {\nentry:\n  R0 = make 1\n  %x = mov R0\n  ret %x\n}";
        let f = parse_function(text, &dsp()).unwrap();
        let r0var = Var::new(0);
        assert_eq!(f.var(r0var).reg, Some(f.machine.abi.ret_reg));
        // Same register token maps to the same variable.
        let movi = f.block_insts(f.entry).nth(1).unwrap();
        assert_eq!(f.inst(movi).uses[0].var, r0var);
    }

    #[test]
    fn roundtrips_printed_output() {
        let text = "
func @rt {
entry:
  %a, %p = input
  %k = make 0x00A1
  %k2 = more %k, 0x2BFA
  %v = load %p
  %s = select %k, %v, %a
  store %p, %s
  br %s, left, right
left:
  %r1 = call f(%s)
  jump merge
right:
  jump merge
merge:
  %m = phi [left: %r1], [right: %a]
  %ps = psi %a ? %m, %k ? %v
  ret %m
}";
        let f1 = parse_function(text, &dsp()).unwrap();
        assert!(f1.validate().is_ok(), "{:?}", f1.validate());
        let printed = f1.to_string();
        let f2 = parse_function(&printed, &dsp()).unwrap();
        assert!(f2.validate().is_ok(), "{:?}\n{printed}", f2.validate());
        assert_eq!(f1.num_blocks(), f2.num_blocks());
        assert_eq!(f1.num_vars(), f2.num_vars());
        // Printing is idempotent from the second generation on (block
        // label comments are normalized away by the first round-trip).
        let printed2 = f2.to_string();
        let f3 = parse_function(&printed2, &dsp()).unwrap();
        assert_eq!(f3.to_string(), printed2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "func @e {\nentry:\n  %a = frob %b\n  ret\n}";
        let e = parse_function(text, &dsp()).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("frob"), "{e}");
        let e2 = parse_function("func @e {\nentry:\n  jump nowhere\n}", &dsp()).unwrap_err();
        assert!(e2.message.contains("nowhere"));
    }

    #[test]
    fn unknown_opcode_names_the_token_and_column() {
        let e =
            parse_function("func @e {\nentry:\n  %a = frobnicate %b, %c\n}", &dsp()).unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.token, "frobnicate");
        assert_eq!(e.col, 8, "{e}");
        assert!(e.to_string().contains("3:8"), "{e}");
    }

    #[test]
    fn arity_mismatch_is_a_parse_error() {
        // br with two operands instead of `cond, then, else`.
        let e = parse_function("func @e {\nentry:\n  %c = input\n  br %c, entry\n}", &dsp())
            .unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("cond, then, else"), "{e}");
        assert!(e.message.contains("2 operands"), "{e}");
        // addi with a missing immediate.
        let e2 = parse_function(
            "func @e {\nentry:\n  %a = input\n  %b = addi %a\n  ret\n}",
            &dsp(),
        )
        .unwrap_err();
        assert_eq!(e2.line, 4);
        assert!(e2.message.contains("use, imm"), "{e2}");
    }

    #[test]
    fn undefined_label_names_the_token() {
        let e = parse_function(
            "func @e {\nentry:\n  %c = input\n  br %c, entry, missing\n}",
            &dsp(),
        )
        .unwrap_err();
        assert_eq!(e.line, 4);
        assert_eq!(e.token, "missing");
        assert!(e.col > 0, "{e}");
        assert!(e.message.contains("unknown block label"), "{e}");
    }

    #[test]
    fn bad_immediate_and_operand_tokens_attributed() {
        let e =
            parse_function("func @e {\nentry:\n  %a = make 0xZZ\n  ret\n}", &dsp()).unwrap_err();
        assert_eq!(e.token, "0xZZ");
        let e2 =
            parse_function("func @e {\nentry:\n  %a = add ???, %b\n  ret\n}", &dsp()).unwrap_err();
        assert_eq!(e2.token, "???");
        assert!(e2.message.contains("expected operand"), "{e2}");
    }

    #[test]
    fn rejects_instruction_outside_block() {
        let e = parse_function("func @e {\n  ret\n}", &dsp()).unwrap_err();
        assert!(e.message.contains("no blocks") || e.message.contains("before first block"));
    }

    use crate::ids::Var;
}
