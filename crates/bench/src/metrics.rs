//! Move-count metrics: the quantities the paper's tables report.

use tossa_analysis::AnalysisCache;
use tossa_ir::Function;

/// Static `mov` count (Tables 2–4), ignoring self-moves.
pub fn move_count(f: &Function) -> usize {
    f.count_moves()
}

/// Weighted move count (Table 5): each `mov` weighs `5^depth`, "a static
/// approximation where each loop would contain 5 iterations".
pub fn weighted_move_count(f: &Function) -> u64 {
    weighted_move_count_cached(f, &mut AnalysisCache::new())
}

/// [`weighted_move_count`] against a shared [`AnalysisCache`] (reuses the
/// pipeline's loop forest when it is still valid).
pub fn weighted_move_count_cached(f: &Function, cache: &mut AnalysisCache) -> u64 {
    let loops = cache.loops(f);
    let mut total: u64 = 0;
    for b in f.blocks() {
        let weight = 5u64.saturating_pow(loops.depth(b));
        for i in f.block_insts(b) {
            let inst = f.inst(i);
            if inst.opcode.is_move() && !inst.is_self_move() {
                total += weight;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    #[test]
    fn weighted_counts_respect_depth() {
        let f = parse_function(
            "func @w {
entry:
  %a = make 1
  %b = mov %a
  jump head
head:
  %c = cmplt %b, %a
  br %c, body, exit
body:
  %b = mov %a
  jump head
exit:
  ret %b
}",
            &Machine::dsp32(),
        )
        .unwrap();
        assert_eq!(move_count(&f), 2);
        // One move at depth 0 (weight 1) and one in the loop (weight 5).
        assert_eq!(weighted_move_count(&f), 6);
    }

    #[test]
    fn self_moves_ignored() {
        let f = parse_function(
            "func @s {\nentry:\n  %a = make 1\n  %a = mov %a\n  ret %a\n}",
            &Machine::dsp32(),
        )
        .unwrap();
        assert_eq!(move_count(&f), 0);
        assert_eq!(weighted_move_count(&f), 0);
    }
}
