//! Decision provenance: structured records explaining *why* the
//! pipeline reached each verdict — which constraint pinned a variable,
//! which interference class killed an affinity edge (and the witness
//! pair that proves it), which constraint forced an inserted copy, and
//! why the allocator spilled an interval.
//!
//! Records follow the same thread-local capture discipline as spans and
//! counters: [`record`] is a no-op unless a collector is installed with
//! [`crate::capture`], and the record-building closure is never invoked
//! on the disabled path, so hot loops pay one thread-local read.
//!
//! IDs are per-capture sequence numbers assigned at record time. The
//! pipeline is deterministic and every recording site iterates in a
//! deterministic order, so the ID of a given decision is stable across
//! runs of the same function — which is what lets `explain --diff`
//! align two dumps.

use std::fmt::Write as _;

use crate::escape_json;

/// Which interference rule rejected a coalescing candidate. `Class1`
/// through `Class4` are the paper's §4 classes; the last two are the
/// implementation's extra structural rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Dominance with overlapping live ranges (`variable_kills` Case 1).
    Class1,
    /// φ parallel-copy kill (`variable_kills` Case 2).
    Class2,
    /// φ arguments disagree in a shared predecessor.
    Class3,
    /// Resources of φs defined in the same block.
    Class4,
    /// Both variables defined by the same instruction.
    SameInst,
    /// Two distinct physical resources never merge.
    Phys,
}

impl Class {
    /// Stable snake_case key used in JSON exports and reports.
    pub fn name(self) -> &'static str {
        match self {
            Class::Class1 => "class1",
            Class::Class2 => "class2",
            Class::Class3 => "class3",
            Class::Class4 => "class4",
            Class::SameInst => "same_inst",
            Class::Phys => "phys",
        }
    }
}

/// The verdict on one affinity edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The edge survived pruning; its endpoints were merged onto the
    /// named reference resource.
    Coalesced {
        /// Resource the component was merged onto.
        into: String,
    },
    /// Discarded by the initial interference pruning.
    PrunedInitial {
        /// Interference class that killed the edge.
        class: Class,
        /// The concrete variable pair proving the interference.
        witness: (String, String),
    },
    /// Discarded by a bipartite pruning round: the edge itself need not
    /// interfere, but keeping it would merge the witnessed offender
    /// pair into one resource.
    PrunedBipartite {
        /// Interference class of the offending vertex pair.
        class: Class,
        /// The concrete variable pair proving the interference.
        witness: (String, String),
    },
}

/// One provenance record kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A variable acquired a resource pin.
    Pin {
        /// The pinned variable.
        var: String,
        /// The resource it was pinned to.
        resource: String,
        /// Which constraint placed the pin: `"sp"`, `"abi:input"`,
        /// `"abi:call"`, `"abi:call-arg"`, `"abi:ret"`,
        /// `"abi:two-operand"`, `"cssa"`, or `"coalesce"`. The
        /// `"abi:call-arg"` and `"abi:ret"` causes are *use-operand*
        /// pins (the value must sit in the resource at that use), not
        /// whole-variable pins.
        cause: String,
    },
    /// The verdict on one affinity edge of one block's graph.
    Edge {
        /// Label of the block whose affinity graph held the edge.
        block: String,
        /// First endpoint (variable or resource name).
        a: String,
        /// Second endpoint.
        b: String,
        /// Affinity multiplicity (≥ 1).
        weight: u32,
        /// What happened to the edge.
        verdict: Verdict,
    },
    /// A copy instruction inserted by reconstruction.
    Copy {
        /// Destination variable of the inserted `mov`.
        dst: String,
        /// Source variable.
        src: String,
        /// What forced it: `"phi-edge:<pred>-><succ>"`,
        /// `"abi:<resource>"`, `"repair:<var>"`, or `"cycle"`.
        cause: String,
    },
    /// A spill decision by the register allocator.
    Spill {
        /// The spilled variable.
        var: String,
        /// Interval start (linear position).
        start: u32,
        /// Interval end.
        end: u32,
        /// Rationale: `"cost:weight=<w>,depth=<d>"` (cheapest
        /// loop-weighted victim at the pressure point),
        /// `"remat:<opcode>"` (def re-issued before each use instead of
        /// reloading), `"split-at:<block>"` (one record per region
        /// boundary block that received a split copy), or
        /// `"second-chance:<reg>"` (an evicted split sub-web re-assigned
        /// a register left free across its ranges; no spill code).
        cause: String,
    },
}

/// One recorded decision with its stable per-capture ID.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Sequence number within the capture (0-based, dense).
    pub id: u32,
    /// The decision.
    pub kind: Kind,
}

/// Records one decision; no-op when tracing is disabled or the capture
/// is counters-only. `make` is never invoked on either skip path.
pub fn record(make: impl FnOnce() -> Kind) {
    if !crate::verbose() {
        return;
    }
    let kind = make();
    crate::COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            let id = col.data.records.len() as u32;
            col.data.records.push(Record { id, kind });
        }
    });
}

impl Record {
    /// Renders the record as one JSON object (schema used inside
    /// `tossa-explain/1` dumps).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"id\": {}", self.id);
        match &self.kind {
            Kind::Pin {
                var,
                resource,
                cause,
            } => {
                let _ = write!(
                    out,
                    ", \"kind\": \"pin\", \"var\": \"{}\", \"resource\": \"{}\", \"cause\": \"{}\"",
                    escape_json(var),
                    escape_json(resource),
                    escape_json(cause)
                );
            }
            Kind::Edge {
                block,
                a,
                b,
                weight,
                verdict,
            } => {
                let _ = write!(
                    out,
                    ", \"kind\": \"edge\", \"block\": \"{}\", \"a\": \"{}\", \"b\": \"{}\", \"weight\": {}",
                    escape_json(block),
                    escape_json(a),
                    escape_json(b),
                    weight
                );
                match verdict {
                    Verdict::Coalesced { into } => {
                        let _ = write!(
                            out,
                            ", \"verdict\": \"coalesced\", \"into\": \"{}\"",
                            escape_json(into)
                        );
                    }
                    Verdict::PrunedInitial { class, witness } => {
                        let _ = write!(
                            out,
                            ", \"verdict\": \"pruned_initial\", \"class\": \"{}\", \
                             \"witness\": [\"{}\", \"{}\"]",
                            class.name(),
                            escape_json(&witness.0),
                            escape_json(&witness.1)
                        );
                    }
                    Verdict::PrunedBipartite { class, witness } => {
                        let _ = write!(
                            out,
                            ", \"verdict\": \"pruned_bipartite\", \"class\": \"{}\", \
                             \"witness\": [\"{}\", \"{}\"]",
                            class.name(),
                            escape_json(&witness.0),
                            escape_json(&witness.1)
                        );
                    }
                }
            }
            Kind::Copy { dst, src, cause } => {
                let _ = write!(
                    out,
                    ", \"kind\": \"copy\", \"dst\": \"{}\", \"src\": \"{}\", \"cause\": \"{}\"",
                    escape_json(dst),
                    escape_json(src),
                    escape_json(cause)
                );
            }
            Kind::Spill {
                var,
                start,
                end,
                cause,
            } => {
                let _ = write!(
                    out,
                    ", \"kind\": \"spill\", \"var\": \"{}\", \"start\": {}, \"end\": {}, \
                     \"cause\": \"{}\"",
                    escape_json(var),
                    start,
                    end,
                    escape_json(cause)
                );
            }
        }
        out.push('}');
        out
    }
}

/// Renders a record list as a JSON array.
pub fn records_json(records: &[Record]) -> String {
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&r.to_json());
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_path_never_builds_the_record() {
        assert!(!crate::enabled());
        record(|| unreachable!("record closure ran with tracing disabled"));
    }

    #[test]
    fn records_get_dense_stable_ids() {
        let ((), data) = crate::capture(|| {
            record(|| Kind::Pin {
                var: "x".into(),
                resource: "R5".into(),
                cause: "sp".into(),
            });
            record(|| Kind::Copy {
                dst: "a".into(),
                src: "b".into(),
                cause: "cycle".into(),
            });
        });
        assert_eq!(data.records.len(), 2);
        assert_eq!(data.records[0].id, 0);
        assert_eq!(data.records[1].id, 1);
    }

    #[test]
    fn merge_reassigns_ids_densely() {
        let ((), a) = crate::capture(|| {
            record(|| Kind::Pin {
                var: "x".into(),
                resource: "SP".into(),
                cause: "sp".into(),
            });
        });
        let mut total = crate::TraceData::default();
        total.merge(&a);
        total.merge(&a);
        assert_eq!(total.records.len(), 2);
        assert_eq!(total.records[0].id, 0);
        assert_eq!(total.records[1].id, 1);
    }

    #[test]
    fn record_json_is_well_formed() {
        let recs = vec![
            Record {
                id: 0,
                kind: Kind::Edge {
                    block: "b1".into(),
                    a: "x".into(),
                    b: "$R2".into(),
                    weight: 2,
                    verdict: Verdict::PrunedInitial {
                        class: Class::Class2,
                        witness: ("x".into(), "y".into()),
                    },
                },
            },
            Record {
                id: 1,
                kind: Kind::Spill {
                    var: "z\"q".into(),
                    start: 3,
                    end: 17,
                    cause: "cost:weight=25,depth=1".into(),
                },
            },
        ];
        let doc = records_json(&recs);
        crate::validate_json(&doc).unwrap();
        assert!(doc.contains("\"class\": \"class2\""));
        assert!(doc.contains("\"witness\": [\"x\", \"y\"]"));
    }
}
