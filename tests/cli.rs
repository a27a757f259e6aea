//! The `tossa` command line end to end: `--experiment` takes a key or a label
//! no other experiment shares, and `--print-ssa` shows the pinned SSA
//! that reconstruction receives.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

const TOSSA: &str = env!("CARGO_BIN_EXE_tossa");

/// A loop whose φs swap two values: Sreedhar's conversion must copy.
const SWAP: &str = "func @swap {
entry:
  %a, %b, %n = input
  %i = make 0
  jump head
head:
  %t = mov %a
  %a = mov %b
  %b = mov %t
  %i = addi %i, 1
  %c = cmplt %i, %n
  br %c, head, exit
exit:
  ret %a, %b
}
";

fn tossa(args: &[&str]) -> Output {
    let mut child = Command::new(TOSSA)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("running tossa");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(SWAP.as_bytes())
        .expect("writing the input");
    child.wait_with_output().expect("waiting for tossa")
}

/// The `== pinned SSA ==` block of a successful `--print-ssa` run.
fn pinned_ssa(experiment: &str) -> String {
    let o = tossa(&["--experiment", experiment, "--print-ssa"]);
    assert!(o.status.success(), "{experiment}: {o:?}");
    let out = String::from_utf8_lossy(&o.stdout).into_owned();
    let start = out.find("== pinned SSA ==").expect("a pinned SSA block");
    let len = out[start..]
        .find("\n}\n")
        .expect("the block's closing brace");
    out[start..start + len].to_string()
}

#[test]
fn print_ssa_shows_the_function_reconstruction_receives() {
    // Sreedhar's copies (`%a.12 = mov %a_c.20`) and the CSSA pins.
    let block = pinned_ssa("Sphi+C");
    assert!(block.contains(" = mov %a_c."), "{block}");
    assert!(block.contains("!$a_c."), "{block}");
    // The ABI register pins of the inputs and the return.
    let block = pinned_ssa("Lphi,ABI+C");
    assert!(block.contains("!R0") && block.contains("!R1"), "{block}");
}

#[test]
fn experiment_takes_a_key_or_a_unique_label() {
    for name in ["CAbi", "cnoabi", "sphi+labi+c"] {
        let o = tossa(&["--experiment", name, "--run", "3,4,5"]);
        assert_eq!(o.status.code(), Some(0), "{name}: {o:?}");
        assert!(String::from_utf8_lossy(&o.stdout).contains("semantics preserved"));
    }
    // `C` labels both CNoAbi and CAbi.
    let o = tossa(&["--experiment", "C"]);
    assert_eq!(o.status.code(), Some(2), "{o:?}");
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(err.contains("CNoAbi") && err.contains("CAbi"), "{err}");
    assert!(o.stdout.is_empty());
}
