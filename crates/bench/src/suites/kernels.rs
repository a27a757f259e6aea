//! Hand-written DSP/algorithmic kernels — the substitute for the paper's
//! `VALcc1`/`VALcc2` suites ("about 40 small functions with some basic
//! digital signal processing kernels, integer Discrete Cosine Transform,
//! sorting, searching, and string searching algorithms", §5).
//!
//! Each kernel is written once in LAI-style text (multiple-assignment,
//! pre-SSA). The `VALcc1` suite is the kernels as written; `VALcc2` runs
//! the same kernels through a *temp-heavy* rewriting that models a second
//! compiler emitting lower-quality code (every ALU operand is first
//! copied into a fresh temporary), as the paper compares the same C
//! sources compiled by two different ST120 compilers.

use crate::suites::BenchFunction;
use tossa_ir::instr::InstData;
use tossa_ir::machine::Machine;
use tossa_ir::parse::parse_function;
use tossa_ir::{derived_name, Function, Opcode};

/// One kernel: name, LAI text, and sample input sets for equivalence
/// checking.
struct Kernel {
    text: &'static str,
    inputs: &'static [&'static [i64]],
}

const KERNELS: &[Kernel] = &[
    // FIR filter with pointer auto-modification (two-operand autoadd).
    Kernel {
        text: "
func @fir {
entry:
  %x, %h, %n = input
  %acc = make 0
  %i = make 0
  jump head
head:
  %c = cmplt %i, %n
  br %c, body, exit
body:
  %xv = load %x
  %hv = load %h
  %x = autoadd %x, 1
  %h = autoadd %h, 1
  %p = mul %xv, %hv
  %acc = add %acc, %p
  %i = addi %i, 1
  jump head
exit:
  ret %acc
}",
        inputs: &[&[1000, 2000, 0], &[1000, 2000, 4], &[5000, 6000, 8]],
    },
    // IIR biquad-ish with feedback shuffle (φ-cycle after SSA).
    Kernel {
        text: "
func @iir {
entry:
  %x, %n = input
  %k3 = make 3
  %k5 = make 5
  %k2 = make 2
  %y1 = make 0
  %y2 = make 0
  %out = make 0
  %i = make 0
  jump head
head:
  %c = cmplt %i, %n
  br %c, body, exit
body:
  %xv = load %x
  %x = autoadd %x, 1
  %t1 = mul %y1, %k3
  %t2 = mul %y2, %k5
  %s = add %t1, %t2
  %yv = add %xv, %s
  %yv = shr %yv, %k2
  %y2 = mov %y1
  %y1 = mov %yv
  %out = add %out, %yv
  %i = addi %i, 1
  jump head
exit:
  ret %out
}",
        inputs: &[&[100, 0], &[100, 3], &[777, 7]],
    },
    // Plain dot product (pointer arithmetic with addi).
    Kernel {
        text: "
func @dot {
entry:
  %a, %b, %n = input
  %acc = make 0
  %i = make 0
  jump head
head:
  %c = cmplt %i, %n
  br %c, body, exit
body:
  %pa = add %a, %i
  %pb = add %b, %i
  %va = load %pa
  %vb = load %pb
  %p = mul %va, %vb
  %acc = add %acc, %p
  %i = addi %i, 1
  jump head
exit:
  ret %acc
}",
        inputs: &[&[10, 20, 0], &[10, 20, 5], &[300, 400, 9]],
    },
    // saxpy with stores; returns a checksum read back from memory.
    Kernel {
        text: "
func @saxpy {
entry:
  %alpha, %x, %y, %n = input
  %i = make 0
  jump head
head:
  %c = cmplt %i, %n
  br %c, body, exit
body:
  %px = add %x, %i
  %py = add %y, %i
  %vx = load %px
  %vy = load %py
  %ax = mul %alpha, %vx
  %s = add %ax, %vy
  store %py, %s
  %i = addi %i, 1
  jump head
exit:
  %sum = make 0
  %j = make 0
  jump chead
chead:
  %cc = cmplt %j, %n
  br %cc, cbody, done
cbody:
  %pj = add %y, %j
  %vj = load %pj
  %sum = add %sum, %vj
  %j = addi %j, 1
  jump chead
done:
  ret %sum
}",
        inputs: &[&[3, 50, 80, 0], &[3, 50, 80, 4], &[-2, 500, 800, 7]],
    },
    // Branchy maximum (control-dependent φ).
    Kernel {
        text: "
func @vmax {
entry:
  %a, %n = input
  %best = load %a
  %i = make 1
  jump head
head:
  %c = cmplt %i, %n
  br %c, body, exit
body:
  %p = add %a, %i
  %v = load %p
  %gt = cmplt %best, %v
  br %gt, take, skip
take:
  %best = mov %v
  jump latch
skip:
  jump latch
latch:
  %i = addi %i, 1
  jump head
exit:
  ret %best
}",
        inputs: &[&[42, 1], &[42, 5], &[9000, 8]],
    },
    // Absolute sum with sign branch and negate.
    Kernel {
        text: "
func @abssum {
entry:
  %a, %n = input
  %zero = make 0
  %acc = make 0
  %i = make 0
  jump head
head:
  %c = cmplt %i, %n
  br %c, body, exit
body:
  %p = add %a, %i
  %v = load %p
  %neg = cmplt %v, %zero
  br %neg, flip, keep
flip:
  %v = neg %v
  jump accum
keep:
  jump accum
accum:
  %acc = add %acc, %v
  %i = addi %i, 1
  jump head
exit:
  ret %acc
}",
        inputs: &[&[11, 0], &[11, 4], &[-300, 6]],
    },
    // 4-point integer DCT-ish butterfly: straightline, uses make/more
    // constant building (two-operand more).
    Kernel {
        text: "
func @idct4 {
entry:
  %p = input
  %x0 = load %p
  %p1 = addi %p, 1
  %x1 = load %p1
  %p2 = addi %p, 2
  %x2 = load %p2
  %p3 = addi %p, 3
  %x3 = load %p3
  %w = make 0x00A1
  %w = more %w, 0x2BFA
  %s0 = add %x0, %x2
  %d0 = sub %x0, %x2
  %s1 = add %x1, %x3
  %d1 = sub %x1, %x3
  %m0 = mul %s1, %w
  %m1 = mul %d1, %w
  %y0 = add %s0, %m0
  %y1 = add %d0, %m1
  %y2 = sub %d0, %m1
  %y3 = sub %s0, %m0
  store %p, %y0
  store %p1, %y1
  store %p2, %y2
  store %p3, %y3
  %t0 = add %y0, %y1
  %t1 = add %y2, %y3
  %r = add %t0, %t1
  ret %r
}",
        inputs: &[&[64], &[1024]],
    },
    // Bubble sort over a small scratch region, returns the sorted sum of
    // min/max sentinels.
    Kernel {
        text: "
func @bubble {
entry:
  %a, %n = input
  %one = make 1
  %i = make 0
  jump ohead
ohead:
  %lim = sub %n, %one
  %oc = cmplt %i, %lim
  br %oc, oinit, done
oinit:
  %j = make 0
  jump ihead
ihead:
  %jlim = sub %lim, %i
  %ic = cmplt %j, %jlim
  br %ic, ibody, olatch
ibody:
  %pj = add %a, %j
  %pj1 = addi %pj, 1
  %v0 = load %pj
  %v1 = load %pj1
  %sw = cmplt %v1, %v0
  br %sw, doswap, iskip
doswap:
  store %pj, %v1
  store %pj1, %v0
  jump ilatch
iskip:
  jump ilatch
ilatch:
  %j = addi %j, 1
  jump ihead
olatch:
  %i = addi %i, 1
  jump ohead
done:
  %lo = load %a
  %plast = add %a, %lim
  %hi = load %plast
  %r = sub %hi, %lo
  ret %r
}",
        inputs: &[&[100, 2], &[100, 5], &[2048, 6]],
    },
    // Binary search over a monotone function of the address.
    Kernel {
        text: "
func @bsearch {
entry:
  %base, %n, %key = input
  %one = make 1
  %lo = make 0
  %hi = mov %n
  jump head
head:
  %c = cmplt %lo, %hi
  br %c, body, exit
body:
  %sum = add %lo, %hi
  %mid = shr %sum, %one
  %p = add %base, %mid
  %v = load %p
  %lt = cmplt %v, %key
  br %lt, right, left
right:
  %lo = addi %mid, 1
  jump head
left:
  %hi = mov %mid
  jump head
exit:
  ret %lo
}",
        inputs: &[&[4000, 8, 0], &[4000, 8, 99999], &[4000, 16, 12345]],
    },
    // Naive string search: count occurrences of a 3-element pattern.
    Kernel {
        text: "
func @strsearch {
entry:
  %s, %n, %pat = input
  %m = make 3
  %count = make 0
  %i = make 0
  jump ohead
ohead:
  %lim = sub %n, %m
  %oc = cmple %i, %lim
  br %oc, oinit, done
oinit:
  %j = make 0
  jump ihead
ihead:
  %ic = cmplt %j, %m
  br %ic, ibody, matched
ibody:
  %si = add %s, %i
  %sij = add %si, %j
  %pj = add %pat, %j
  %sv = load %sij
  %pv = load %pj
  %eq = cmpeq %sv, %pv
  br %eq, ilatch, olatch
ilatch:
  %j = addi %j, 1
  jump ihead
matched:
  %count = addi %count, 1
  jump olatch
olatch:
  %i = addi %i, 1
  jump ohead
done:
  ret %count
}",
        inputs: &[&[100, 6, 100], &[100, 10, 103], &[5000, 12, 5001]],
    },
    // CRC-like bit loop: shifts, xors, predicated with select.
    Kernel {
        text: "
func @crc {
entry:
  %data, %n = input
  %poly = make 0x1D
  %one = make 1
  %acc = make 0
  %i = make 0
  jump ohead
ohead:
  %oc = cmplt %i, %n
  br %oc, obody, done
obody:
  %p = add %data, %i
  %v = load %p
  %acc = xor %acc, %v
  %b = make 0
  jump bhead
bhead:
  %eight = make 8
  %bc = cmplt %b, %eight
  br %bc, bbody, olatch
bbody:
  %low = and %acc, %one
  %shifted = shr %acc, %one
  %x = xor %shifted, %poly
  %acc = select %low, %x, %shifted
  %b = addi %b, 1
  jump bhead
olatch:
  %i = addi %i, 1
  jump ohead
done:
  ret %acc
}",
        inputs: &[&[9000, 0], &[9000, 2], &[9000, 5]],
    },
    // Iterative Fibonacci (the classic φ swap chain).
    Kernel {
        text: "
func @fib {
entry:
  %n = input
  %a = make 0
  %b = make 1
  %i = make 0
  jump head
head:
  %c = cmplt %i, %n
  br %c, body, exit
body:
  %t = add %a, %b
  %a = mov %b
  %b = mov %t
  %i = addi %i, 1
  jump head
exit:
  ret %a
}",
        inputs: &[&[0], &[1], &[10], &[20]],
    },
    // Subtraction-based GCD (data-dependent swap).
    Kernel {
        text: "
func @gcd {
entry:
  %a, %b = input
  jump head
head:
  %ne = cmpne %a, %b
  br %ne, body, exit
body:
  %agtb = cmplt %b, %a
  br %agtb, suba, subb
suba:
  %a = sub %a, %b
  jump head
subb:
  %b = sub %b, %a
  jump head
exit:
  ret %a
}",
        inputs: &[&[12, 18], &[35, 14], &[7, 7], &[1, 9]],
    },
    // Horner polynomial evaluation.
    Kernel {
        text: "
func @horner {
entry:
  %coef, %deg, %x = input
  %acc = make 0
  %i = make 0
  jump head
head:
  %c = cmple %i, %deg
  br %c, body, exit
body:
  %p = add %coef, %i
  %cv = load %p
  %m = mul %acc, %x
  %acc = add %m, %cv
  %i = addi %i, 1
  jump head
exit:
  ret %acc
}",
        inputs: &[&[600, 0, 3], &[600, 3, 2], &[600, 5, -1]],
    },
    // Call-heavy loop: one ABI-constrained call per element.
    Kernel {
        text: "
func @mapcall {
entry:
  %a, %n = input
  %acc = make 0
  %i = make 0
  jump head
head:
  %c = cmplt %i, %n
  br %c, body, exit
body:
  %p = add %a, %i
  %v = load %p
  %r = call transform(%v, %acc)
  %acc = add %acc, %r
  %i = addi %i, 1
  jump head
exit:
  %f = call finish(%acc)
  ret %f
}",
        inputs: &[&[70, 0], &[70, 3], &[70, 6]],
    },
    // Clipping loop using selects (predication-friendly).
    Kernel {
        text: "
func @clip {
entry:
  %a, %n, %lo, %hi = input
  %acc = make 0
  %i = make 0
  jump head
head:
  %c = cmplt %i, %n
  br %c, body, exit
body:
  %p = add %a, %i
  %v = load %p
  %below = cmplt %v, %lo
  %v = select %below, %lo, %v
  %above = cmplt %hi, %v
  %v = select %above, %hi, %v
  store %p, %v
  %acc = add %acc, %v
  %i = addi %i, 1
  jump head
exit:
  ret %acc
}",
        inputs: &[&[333, 0, -10, 10], &[333, 5, -100, 100], &[333, 8, 0, 1]],
    },
    // Count elements matching a key (bounded scan).
    Kernel {
        text: "
func @countmatch {
entry:
  %a, %n, %key = input
  %count = make 0
  %i = make 0
  jump head
head:
  %c = cmplt %i, %n
  br %c, body, exit
body:
  %p = add %a, %i
  %v = load %p
  %eq = cmpeq %v, %key
  %count = add %count, %eq
  %i = addi %i, 1
  jump head
exit:
  ret %count
}",
        inputs: &[&[50, 0, 7], &[50, 6, 7], &[50, 9, 0]],
    },
    // Stack-relative locals: exercises the SP web (pinningSP).
    Kernel {
        text: "
func @stack {
entry:
  %a, %b = input
  SP = addi SP, -4
  store SP, %a
  %t1 = addi SP, 1
  store %t1, %b
  %x = load SP
  %y = load %t1
  %s = add %x, %y
  %t2 = addi SP, 2
  store %t2, %s
  %z = load %t2
  %m = mul %z, %s
  SP = addi SP, 4
  ret %m
}",
        inputs: &[&[3, 4], &[100, -100]],
    },
    // 2x2 matrix multiply, fully unrolled straightline.
    Kernel {
        text: "
func @mat2 {
entry:
  %ma, %mb = input
  %a0 = load %ma
  %pa1 = addi %ma, 1
  %a1 = load %pa1
  %pa2 = addi %ma, 2
  %a2 = load %pa2
  %pa3 = addi %ma, 3
  %a3 = load %pa3
  %b0 = load %mb
  %pb1 = addi %mb, 1
  %b1 = load %pb1
  %pb2 = addi %mb, 2
  %b2 = load %pb2
  %pb3 = addi %mb, 3
  %b3 = load %pb3
  %c0a = mul %a0, %b0
  %c0b = mul %a1, %b2
  %c0 = add %c0a, %c0b
  %c1a = mul %a0, %b1
  %c1b = mul %a1, %b3
  %c1 = add %c1a, %c1b
  %c2a = mul %a2, %b0
  %c2b = mul %a3, %b2
  %c2 = add %c2a, %c2b
  %c3a = mul %a2, %b1
  %c3b = mul %a3, %b3
  %c3 = add %c3a, %c3b
  %t0 = add %c0, %c1
  %t1 = add %c2, %c3
  %tr = add %c0, %c3
  %sum = add %t0, %t1
  %r = xor %sum, %tr
  ret %r
}",
        inputs: &[&[100, 200], &[42, 4242]],
    },
    // Delay-line rotation: a 4-tap shift register per iteration — the
    // φ-permutation pattern where greedy post-hoc coalescing cascades
    // badly but per-block affinity optimization does not.
    Kernel {
        text: "
func @delayline {
entry:
  %x, %n = input
  %k1 = make 3
  %k2 = make 5
  %k3 = make 7
  %k4 = make 11
  %d1 = make 0
  %d2 = make 0
  %d3 = make 0
  %d4 = make 0
  %acc = make 0
  %i = make 0
  jump head
head:
  %c = cmplt %i, %n
  br %c, body, exit
body:
  %xv = load %x
  %x = autoadd %x, 1
  %m1 = mul %d1, %k1
  %m2 = mul %d2, %k2
  %m3 = mul %d3, %k3
  %m4 = mul %d4, %k4
  %s1 = add %m1, %m2
  %s2 = add %m3, %m4
  %s = add %s1, %s2
  %acc = add %acc, %s
  %d4 = mov %d3
  %d3 = mov %d2
  %d2 = mov %d1
  %d1 = mov %xv
  %i = addi %i, 1
  jump head
exit:
  ret %acc
}",
        inputs: &[&[4242, 0], &[4242, 3], &[4242, 9]],
    },
    // Running sum of squares with an early-exit threshold.
    Kernel {
        text: "
func @sumsq {
entry:
  %a, %n, %limit = input
  %acc = make 0
  %i = make 0
  jump head
head:
  %c = cmplt %i, %n
  br %c, body, exit
body:
  %p = add %a, %i
  %v = load %p
  %sq = mul %v, %v
  %acc = add %acc, %sq
  %over = cmplt %limit, %acc
  br %over, exit, latch
latch:
  %i = addi %i, 1
  jump head
exit:
  ret %acc, %i
}",
        inputs: &[&[25, 0, 100], &[25, 6, 99999999], &[25, 9, 5]],
    },
];

/// The temp-heavy "second compiler" rewrite: every use of an ALU
/// instruction is routed through a fresh `addi t, x, 0` temporary — a
/// redundant register-register operation that survives copy propagation,
/// lengthening live ranges the way a weaker code generator does (the
/// paper's two ST120 C compilers differ exactly in such quality).
pub fn temp_heavy(f: &Function) -> Function {
    let mut g = f.clone();
    let mut spill_toggle = false;
    let mut spill_slot: i64 = 0;
    for b in g.blocks().collect::<Vec<_>>() {
        let mut pos = 0;
        while pos < g.block(b).insts.len() {
            let i = g.block(b).insts[pos];
            let opcode = g.inst(i).opcode;
            let rewrite = matches!(
                opcode,
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
                    | Opcode::CmpLe
            );
            if !rewrite {
                pos += 1;
                continue;
            }
            // Accumulator-style update `x = op(..., x, ...)`?
            let d = g.inst(i).defs[0].var;
            let is_accum = g.inst(i).uses.iter().any(|u| u.var == d);
            let mut saved = None;
            if is_accum {
                spill_toggle = !spill_toggle;
                if spill_toggle {
                    // Model a less aggressive compiler that keeps the old
                    // accumulator value alive across the update and spills
                    // it afterwards: the old value then overlaps the new
                    // definition, reshaping the φ webs' interference.
                    let save = g.new_var("save");
                    g.insert_inst(b, pos, InstData::mov(save, d));
                    pos += 1;
                    saved = Some(save);
                }
            }
            // Route every operand through a redundant `addi t, x, 0`.
            let uses = g.inst(i).uses.to_vec();
            for (k, u) in uses.iter().enumerate() {
                let t = g.new_var(derived_name(format_args!("t{k}")));
                g.insert_inst(
                    b,
                    pos,
                    InstData::new(Opcode::AddImm)
                        .with_defs(vec![t.into()])
                        .with_uses(vec![u.var.into()]),
                );
                pos += 1;
                g.inst_mut(i).uses[k].var = t;
            }
            pos += 1; // past the rewritten instruction
            if let Some(save) = saved {
                let addr = g.new_var("spilladdr");
                spill_slot += 1;
                g.insert_inst(
                    b,
                    pos,
                    InstData::new(Opcode::Make)
                        .with_defs(vec![addr.into()])
                        .with_imm(0x7F00_0000 + spill_slot),
                );
                pos += 1;
                g.insert_inst(
                    b,
                    pos,
                    InstData::new(Opcode::Store).with_uses(vec![addr.into(), save.into()]),
                );
                pos += 1;
            }
        }
    }
    g
}

fn parse(text: &str) -> Function {
    let f = parse_function(text, &Machine::dsp32())
        .unwrap_or_else(|e| panic!("kernel parse error: {e}\n{text}"));
    f.validate()
        .unwrap_or_else(|e| panic!("kernel invalid: {e}\n{text}"));
    f
}

/// The `VALcc1` substitute: the kernels as written.
pub fn valcc1() -> Vec<BenchFunction> {
    KERNELS
        .iter()
        .map(|k| BenchFunction {
            func: parse(k.text),
            inputs: k.inputs.iter().map(|i| i.to_vec()).collect(),
        })
        .collect()
}

/// The `VALcc2` substitute: the same kernels through the temp-heavy
/// second-compiler model.
pub fn valcc2() -> Vec<BenchFunction> {
    KERNELS
        .iter()
        .map(|k| BenchFunction {
            func: temp_heavy(&parse(k.text)),
            inputs: k.inputs.iter().map(|i| i.to_vec()).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::interp;

    #[test]
    fn all_kernels_parse_validate_and_run() {
        for bf in valcc1() {
            for inputs in &bf.inputs {
                let r = interp::run(&bf.func, inputs, 1_000_000)
                    .unwrap_or_else(|e| panic!("kernel {} traps on {inputs:?}: {e}", bf.func.name));
                assert!(!r.outputs.is_empty(), "{}", bf.func.name);
            }
        }
    }

    #[test]
    fn temp_heavy_preserves_semantics_and_adds_temporaries() {
        for (a, b) in valcc1().into_iter().zip(valcc2()) {
            assert!(
                b.func.all_insts().count() >= a.func.all_insts().count(),
                "{}",
                a.func.name
            );
            for inputs in &a.inputs {
                assert_eq!(
                    interp::run(&a.func, inputs, 1_000_000).unwrap().outputs,
                    interp::run(&b.func, inputs, 1_000_000).unwrap().outputs,
                    "{} on {inputs:?}",
                    a.func.name
                );
            }
        }
    }

    #[test]
    fn fib_is_fib() {
        let suite = valcc1();
        let fib = suite.iter().find(|b| b.func.name == "fib").unwrap();
        assert_eq!(
            interp::run(&fib.func, &[10], 10_000).unwrap().outputs,
            vec![55]
        );
    }

    #[test]
    fn gcd_is_gcd() {
        let suite = valcc1();
        let gcd = suite.iter().find(|b| b.func.name == "gcd").unwrap();
        assert_eq!(
            interp::run(&gcd.func, &[12, 18], 10_000).unwrap().outputs,
            vec![6]
        );
        assert_eq!(
            interp::run(&gcd.func, &[35, 14], 10_000).unwrap().outputs,
            vec![7]
        );
    }

    #[test]
    fn suite_size_matches_paper_scale() {
        // "about 40 small functions" across the two compiler variants.
        assert!(valcc1().len() + valcc2().len() >= 38);
    }
}
