//! The wire protocol: newline-delimited JSON job frames.
//!
//! One request frame per line:
//!
//! ```json
//! {"id": 7, "experiment": "LphiAbiC", "func": "func @f {\n...\n}",
//!  "inputs": [[1, 2], [3, 4]]}
//! ```
//!
//! * `func` (required) — the LAI function text (the same surface syntax
//!   `parse_function` accepts and `Function`'s `Display` emits);
//! * `id` (optional) — client-chosen job id, defaulted from an
//!   admission counter;
//! * `experiment` (optional) — a stable experiment key (the
//!   `Experiment` debug name, e.g. `LphiAbiC`); defaults to the
//!   service's configured experiment;
//! * `inputs` (optional) — input vectors for differential execution;
//!   when absent, deterministic vectors are synthesized from the
//!   function's input arity and the frame's id.
//!
//! Every way a frame can be malformed maps to a [`FrameError`] variant
//! with a stable class key, so a garbage line produces a structured
//! refusal — never a panic, never a dropped connection.
//!
//! Besides job frames the protocol carries **control frames** — JSON
//! objects with a `"control"` key instead of `"func"`:
//!
//! ```json
//! {"control": "stats"}
//! ```
//!
//! answered in-line with one `tossa-service-stats/1` snapshot of the
//! live server's telemetry. [`parse_line`] parses a line's JSON once and
//! tells the two kinds apart; an unknown control verb is a structured
//! [`FrameError::UnknownControl`] refusal.

use tossa_core::Experiment;
use tossa_ir::machine::Machine;
use tossa_ir::parse::parse_function;
use tossa_ir::rng::SplitMix64;
use tossa_ir::{Function, Opcode};
use tossa_trace::json::{parse_json, Json};

/// A parsed, admitted job request.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// Job id (client-chosen or admission-assigned).
    pub id: u64,
    /// The parsed pre-SSA function.
    pub func: Function,
    /// Experiment to run (`None` = service default).
    pub experiment: Option<Experiment>,
    /// Input vectors for differential execution.
    pub inputs: Vec<Vec<i64>>,
    /// Seed that synthesized `inputs` when the frame carried none
    /// (recorded in the report for deterministic replay).
    pub inputs_seed: Option<u64>,
}

/// A structured frame refusal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The line is not well-formed JSON.
    Json(String),
    /// The frame is JSON but not an object, or lacks `func`.
    MissingFunc,
    /// The `experiment` key names no known experiment.
    UnknownExperiment(String),
    /// The `func` text does not parse as an LAI function.
    BadFunction(String),
    /// The `inputs` value is not an array of arrays of numbers.
    BadInputs,
    /// The `control` key names no known control verb.
    UnknownControl(String),
}

impl FrameError {
    /// Stable classification key (the frame-level analog of
    /// `TossaError::class_key`).
    pub fn class_key(&self) -> &'static str {
        match self {
            FrameError::Json(_) => "frame.json",
            FrameError::MissingFunc => "frame.missing_func",
            FrameError::UnknownExperiment(_) => "frame.unknown_experiment",
            FrameError::BadFunction(_) => "frame.bad_function",
            FrameError::BadInputs => "frame.bad_inputs",
            FrameError::UnknownControl(_) => "frame.unknown_control",
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Json(e) => write!(f, "frame is not JSON: {e}"),
            FrameError::MissingFunc => write!(f, "frame lacks a \"func\" string"),
            FrameError::UnknownExperiment(s) => write!(f, "unknown experiment {s:?}"),
            FrameError::BadFunction(e) => write!(f, "function does not parse: {e}"),
            FrameError::BadInputs => write!(f, "\"inputs\" is not an array of number arrays"),
            FrameError::UnknownControl(s) => write!(f, "unknown control verb {s:?}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A control frame: an in-band query answered by the server itself
/// rather than scheduled onto a worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// `{"control": "stats"}` — answer with one `tossa-service-stats/1`
    /// snapshot line.
    Stats,
}

/// One protocol line, its JSON parsed once.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// A control frame, or the refusal of an unknown control verb.
    Control(Result<Control, FrameError>),
    /// Anything else is a job frame: its JSON document, for
    /// [`job_from_json`], or why the line is not JSON.
    Job(Result<Json, FrameError>),
}

/// Parses a line's JSON and classifies it. A line is a control frame
/// when it is a JSON object with a `"control"` key; anything else (not
/// JSON, not an object, no `"control"` key) is a job frame. A
/// present-but-unknown control verb is a structured refusal, not a
/// fall-through: silently reinterpreting a typoed query as a job frame
/// would produce a confusing `frame.missing_func` reject.
pub fn parse_line(line: &str) -> Frame {
    let doc = match parse_json(line) {
        Ok(doc) => doc,
        Err(e) => return Frame::Job(Err(FrameError::Json(e))),
    };
    let Some(verb) = doc.get("control") else {
        return Frame::Job(Ok(doc));
    };
    Frame::Control(match verb.as_str() {
        Some("stats") => Ok(Control::Stats),
        Some(other) => Err(FrameError::UnknownControl(other.to_string())),
        None => Err(FrameError::UnknownControl(
            "non-string control value".to_string(),
        )),
    })
}

/// Resolves a stable experiment key (the `Experiment` debug name, e.g.
/// `"LphiAbiC"`) back to the experiment. The enum deliberately has no
/// `FromStr`; the service keys off the same strings the trajectory
/// schema uses.
pub fn experiment_from_key(key: &str) -> Option<Experiment> {
    Experiment::all()
        .iter()
        .copied()
        .find(|e| format!("{e:?}") == key)
}

/// Number of input values the function consumes: the widest `input`
/// instruction (each reads from the front of the input vector).
pub fn input_arity(f: &Function) -> usize {
    f.all_insts()
        .filter(|&(_, i)| f.inst(i).opcode == Opcode::Input)
        .map(|(_, i)| f.inst(i).defs.len())
        .max()
        .unwrap_or(0)
}

/// Synthesizes deterministic differential-execution inputs for a
/// function with no client-provided vectors: 8 vectors of small signed
/// values, reproducible from `seed`.
pub fn default_inputs(f: &Function, seed: u64) -> Vec<Vec<i64>> {
    let arity = input_arity(f);
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x05EE_D1A1);
    (0..8)
        .map(|_| (0..arity).map(|_| rng.random_range(-100i64..100)).collect())
        .collect()
}

fn parse_inputs(v: &Json) -> Result<Vec<Vec<i64>>, FrameError> {
    let rows = v.as_arr().ok_or(FrameError::BadInputs)?;
    rows.iter()
        .map(|row| {
            row.as_arr()
                .ok_or(FrameError::BadInputs)?
                .iter()
                .map(|n| n.as_f64().map(|x| x as i64).ok_or(FrameError::BadInputs))
                .collect()
        })
        .collect()
}

/// Parses one request line. `default_id` is assigned when the frame
/// carries no `id` and seeds the synthesized inputs.
///
/// # Errors
/// Any malformed aspect of the frame, as a structured [`FrameError`].
pub fn parse_frame(line: &str, default_id: u64) -> Result<JobRequest, FrameError> {
    job_from_json(&parse_json(line).map_err(FrameError::Json)?, default_id)
}

/// [`parse_frame`] for a line whose JSON is already parsed.
///
/// # Errors
/// Any malformed aspect of the frame, as a structured [`FrameError`].
pub fn job_from_json(doc: &Json, default_id: u64) -> Result<JobRequest, FrameError> {
    let id = doc.get("id").and_then(Json::as_u64).unwrap_or(default_id);
    let text = doc
        .get("func")
        .and_then(Json::as_str)
        .ok_or(FrameError::MissingFunc)?;
    let func = parse_function(text, &Machine::dsp32())
        .map_err(|e| FrameError::BadFunction(e.to_string()))?;
    let experiment = match doc.get("experiment").and_then(Json::as_str) {
        Some(key) => Some(
            experiment_from_key(key)
                .ok_or_else(|| FrameError::UnknownExperiment(key.to_string()))?,
        ),
        None => None,
    };
    let (inputs, inputs_seed) = match doc.get("inputs") {
        Some(v) => (parse_inputs(v)?, None),
        None => (default_inputs(&func, id), Some(id)),
    };
    Ok(JobRequest {
        id,
        func,
        experiment,
        inputs,
        inputs_seed,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    const FUNC: &str = "func @f {\nentry:\n  %a, %b = input\n  %c = add %a, %b\n  ret %c\n}";

    fn frame_json(extra: &str) -> String {
        let escaped = tossa_trace::escape_json(FUNC);
        format!("{{\"func\": \"{escaped}\"{extra}}}")
    }

    #[test]
    fn minimal_frame_parses_with_synthesized_inputs() {
        let req = parse_frame(&frame_json(""), 42).unwrap();
        assert_eq!(req.id, 42);
        assert_eq!(req.func.name, "f");
        assert!(req.experiment.is_none());
        assert_eq!(req.inputs.len(), 8);
        assert!(req.inputs.iter().all(|v| v.len() == 2));
        assert_eq!(req.inputs_seed, Some(42));
        // Determinism: the same id synthesizes the same vectors.
        assert_eq!(parse_frame(&frame_json(""), 42).unwrap().inputs, req.inputs);
    }

    #[test]
    fn full_frame_parses() {
        let req = parse_frame(
            &frame_json(", \"id\": 9, \"experiment\": \"LphiAbiC\", \"inputs\": [[1, -2]]"),
            0,
        )
        .unwrap();
        assert_eq!(req.id, 9);
        assert_eq!(format!("{:?}", req.experiment.unwrap()), "LphiAbiC");
        assert_eq!(req.inputs, vec![vec![1, -2]]);
        assert_eq!(req.inputs_seed, None);
    }

    #[test]
    fn every_malformation_is_a_distinct_structured_class() {
        let cases: Vec<(String, &str)> = vec![
            ("not json at all".into(), "frame.json"),
            ("{\"id\": 1}".into(), "frame.missing_func"),
            (
                frame_json(", \"experiment\": \"NoSuch\""),
                "frame.unknown_experiment",
            ),
            (
                "{\"func\": \"func @broken {\"}".into(),
                "frame.bad_function",
            ),
            (frame_json(", \"inputs\": [\"x\"]"), "frame.bad_inputs"),
        ];
        for (line, class) in cases {
            let err = parse_frame(&line, 0).unwrap_err();
            assert_eq!(err.class_key(), class, "{line}");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn experiment_keys_round_trip_for_all_ten() {
        for &e in Experiment::all() {
            let key = format!("{e:?}");
            assert_eq!(experiment_from_key(&key), Some(e), "{key}");
        }
        assert_eq!(experiment_from_key("Bogus"), None);
    }

    /// What a connection sees of a frame: a control verdict, or the
    /// admitted request printed, or its refusal.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Control(Result<Control, FrameError>),
        Job(Result<String, FrameError>),
    }

    fn job_outcome(r: Result<JobRequest, FrameError>) -> Outcome {
        Outcome::Job(r.map(|req| {
            format!(
                "{} {:?} {:?} {:?}\n{}",
                req.id, req.experiment, req.inputs, req.inputs_seed, req.func
            )
        }))
    }

    /// The two-parse path `parse_line` replaces: a control check that
    /// parses the line, then `parse_frame`, which parses it again.
    fn two_parse_outcome(line: &str, id: u64) -> Outcome {
        if let Ok(doc) = parse_json(line) {
            if let Some(verb) = doc.get("control") {
                return Outcome::Control(match verb.as_str() {
                    Some("stats") => Ok(Control::Stats),
                    Some(other) => Err(FrameError::UnknownControl(other.to_string())),
                    None => Err(FrameError::UnknownControl(
                        "non-string control value".to_string(),
                    )),
                });
            }
        }
        job_outcome(parse_frame(line, id))
    }

    #[test]
    fn one_parse_classifies_every_frame_class_like_two() {
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        let cases: Vec<(String, &str)> = vec![
            ("{\"control\": \"stats\"}".into(), "control"),
            ("{\"control\": \"bogus\"}".into(), "frame.unknown_control"),
            ("{\"control\": 3}".into(), "frame.unknown_control"),
            ("not json".into(), "frame.json"),
            ("[1, 2]".into(), "frame.missing_func"),
            ("{\"id\": 1}".into(), "frame.missing_func"),
            (
                frame_json(", \"experiment\": \"NoSuch\""),
                "frame.unknown_experiment",
            ),
            (frame_json(", \"inputs\": [\"x\"]"), "frame.bad_inputs"),
            (frame_json(", \"id\": 9"), "job"),
            (deep, "frame.json"),
        ];
        for (line, class) in cases {
            let once = match parse_line(&line) {
                Frame::Control(c) => Outcome::Control(c),
                Frame::Job(doc) => job_outcome(doc.and_then(|d| job_from_json(&d, 5))),
            };
            let shown = &line[..line.len().min(40)];
            assert_eq!(once, two_parse_outcome(&line, 5), "{shown}");
            let got = match &once {
                Outcome::Control(Ok(_)) => "control",
                Outcome::Job(Ok(_)) => "job",
                Outcome::Control(Err(e)) | Outcome::Job(Err(e)) => e.class_key(),
            };
            assert_eq!(got, class, "{shown}");
        }
    }

    #[test]
    fn input_arity_reads_the_widest_input_inst() {
        let f = parse_function(FUNC, &Machine::dsp32()).unwrap();
        assert_eq!(input_arity(&f), 2);
    }
}
