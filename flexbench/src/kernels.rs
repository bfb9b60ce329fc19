//! The kernels the workloads send, and the benchmark's own answers for
//! them: scalar live-outs computed here with `run_scalar` before any
//! daemon starts, and expected verdicts from the paper's Table 2 and the
//! corpus golden file.

use flexvec_front::{parse_str, to_fv_kernel, ArrayInit, ArrayInput, ParsedKernel};
use flexvec_mem::AddressSpace;
use flexvec_vm::{run_scalar, Bindings, CountingSink};

/// The `tests/corpus` kernels, compiled in so the benchmark reads no
/// files at run time.
const CORPUS: [(&str, &str); 7] = [
    (
        "early_exit.fv",
        include_str!("../../tests/corpus/early_exit.fv"),
    ),
    (
        "guarded_lookup.fv",
        include_str!("../../tests/corpus/guarded_lookup.fv"),
    ),
    (
        "histogram.fv",
        include_str!("../../tests/corpus/histogram.fv"),
    ),
    ("minloc.fv", include_str!("../../tests/corpus/minloc.fv")),
    ("saxpy.fv", include_str!("../../tests/corpus/saxpy.fv")),
    (
        "serialized_rmw.fv",
        include_str!("../../tests/corpus/serialized_rmw.fv"),
    ),
    (
        "unsupported_carried_sum.fv",
        include_str!("../../tests/corpus/unsupported_carried_sum.fv"),
    ),
];

/// The corpus verdicts as the repository's golden test records them.
const CORPUS_GOLDEN: &str = include_str!("../../tests/corpus/golden.txt");

/// A kernel with its wire text and its scalar answer.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// `.fv` source as sent.
    pub source: String,
    /// The program and the input data it binds.
    pub parsed: ParsedKernel,
    /// Live-outs of one scalar run on fresh inputs, in declaration
    /// order.
    pub live_outs: Vec<(String, i64)>,
}

impl Kernel {
    /// Renders `parsed` and computes its scalar oracle.
    ///
    /// # Panics
    ///
    /// When the scalar run faults: every kernel a workload sends runs
    /// cleanly, so a fault is a broken input set.
    pub fn new(parsed: ParsedKernel) -> Kernel {
        Kernel {
            source: to_fv_kernel(&parsed.program, &parsed.inputs),
            live_outs: oracle(&parsed),
            parsed,
        }
    }
}

/// One scalar run of `kernel` on freshly materialized inputs.
///
/// # Panics
///
/// When the run faults.
pub fn oracle(kernel: &ParsedKernel) -> Vec<(String, i64)> {
    let (mut mem, bind) = bind_inputs(kernel);
    let run = run_scalar(
        &kernel.program,
        &mut mem,
        bind,
        &mut CountingSink::default(),
    )
    .unwrap_or_else(|e| panic!("scalar oracle for {} faulted: {e}", kernel.program.name));
    kernel
        .program
        .live_out
        .iter()
        .map(|v| (kernel.program.var_name(*v).to_owned(), run.var(*v)))
        .collect()
}

/// A fresh address space holding the kernel's inputs.
pub fn bind_inputs(kernel: &ParsedKernel) -> (AddressSpace, Bindings) {
    let mut mem = AddressSpace::new();
    let ids = kernel
        .materialize_arrays()
        .iter()
        .enumerate()
        .map(|(i, data)| mem.alloc_from(&format!("{}_{i}", kernel.program.name), data))
        .collect();
    (mem, Bindings::new(ids))
}

/// `program`'s arrays bound to `data`, one explicit initializer each.
fn with_inputs(
    program: flexvec_ir::Program,
    data: impl Iterator<Item = ArrayInit>,
) -> ParsedKernel {
    let inputs = program
        .arrays
        .iter()
        .zip(data)
        .map(|(decl, init)| ArrayInput {
            name: decl.name.clone(),
            init,
        })
        .collect();
    ParsedKernel { program, inputs }
}

/// The 18 Figure 8 loops with their evaluation data spelled out, so a
/// run over the wire computes exactly what the paper harness does.
pub fn paper_kernels() -> Vec<Kernel> {
    flexvec_workloads::all()
        .into_iter()
        .map(|w| {
            Kernel::new(with_inputs(
                w.program,
                w.arrays.into_iter().map(ArrayInit::Explicit),
            ))
        })
        .collect()
}

/// What a `compile` reply's verdict must say.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Exactly this verdict line (corpus kernels, from the golden file).
    Exact(String),
    /// A FlexVec verdict, whatever patterns it lists (paper loops, per
    /// Table 2).
    FlexVec,
}

impl Expect {
    /// Whether `verdict` meets the expectation.
    pub fn accepts(&self, verdict: &str) -> bool {
        match self {
            Expect::Exact(v) => v == verdict,
            Expect::FlexVec => verdict == "flexvec" || verdict.starts_with("flexvec ("),
        }
    }
}

/// A `cold-compile` template: renamed per request so every cache key is
/// new.
#[derive(Clone, Debug)]
pub struct Template {
    /// What is sent: the paper loops get `seed` arrays (so the source
    /// stays near 1 KB), corpus kernels keep their own inputs.
    pub wire: ParsedKernel,
    /// The same loop with data it runs cleanly on (the paper loops'
    /// index arrays are not safe to fill at random), for the per-layer
    /// execution rows.
    pub exec: Kernel,
    /// The verdict the reply must carry.
    pub expect: Expect,
}

/// `kernel`'s source under a new kernel name (a new content hash).
pub fn renamed(kernel: &ParsedKernel, name: &str) -> String {
    let mut program = kernel.program.clone();
    program.name = name.to_owned();
    to_fv_kernel(&program, &kernel.inputs)
}

/// Verdict lines of the corpus golden file, by file name.
fn corpus_verdict(file: &str) -> String {
    CORPUS_GOLDEN
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(file)?.strip_prefix(": ")?;
            Some(rest.split_once(": ")?.1.to_owned())
        })
        .unwrap_or_else(|| panic!("{file} has no line in tests/corpus/golden.txt"))
}

/// The 25 `cold-compile` templates: the 18 paper loops, then the 7
/// corpus kernels.
pub fn cold_templates() -> Vec<Template> {
    let paper = flexvec_workloads::all().into_iter().map(|w| {
        let seeded = w
            .arrays
            .iter()
            .zip(1u64..)
            .map(|(a, seed)| ArrayInit::Seeded { len: a.len(), seed });
        Template {
            wire: with_inputs(w.program.clone(), seeded),
            exec: Kernel::new(with_inputs(
                w.program,
                w.arrays.into_iter().map(ArrayInit::Explicit),
            )),
            expect: Expect::FlexVec,
        }
    });
    let corpus = CORPUS.iter().map(|(file, src)| {
        let parsed = parse_str(file, src).unwrap_or_else(|d| panic!("{}", d.render(src)));
        Template {
            wire: parsed.clone(),
            exec: Kernel::new(parsed),
            expect: Expect::Exact(corpus_verdict(file)),
        }
    });
    paper.chain(corpus).collect()
}

/// The `index`-th fuzz kernel of `seed`, renamed so that two cases with
/// the same loop but different data never share a content hash.
pub fn fuzz_kernel(seed: u64, index: u64) -> Kernel {
    let case = flexvec_fuzz::generate(seed, index);
    let mut program = case.program;
    program.name = format!("fuzz_{seed}_{index}");
    Kernel::new(with_inputs(
        program,
        case.arrays.into_iter().map(ArrayInit::Explicit),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_cover_paper_and_corpus_with_expected_verdicts() {
        let t = cold_templates();
        assert_eq!(t.len(), 25);
        assert!(t[..18].iter().all(|t| t.expect == Expect::FlexVec));
        assert_eq!(
            t[18..]
                .iter()
                .filter(|t| t.expect == Expect::FlexVec)
                .count(),
            0
        );
        assert_eq!(
            t[22].expect,
            Expect::Exact("traditional".to_owned()),
            "saxpy"
        );
        // A renamed template keeps its loop but changes its hash.
        let a = parse_str("a", &renamed(&t[0].wire, "x1")).unwrap();
        let b = parse_str("b", &renamed(&t[0].wire, "x2")).unwrap();
        assert_ne!(
            flexvec::program_hash(&a.program),
            flexvec::program_hash(&b.program)
        );
        assert!(
            renamed(&t[0].wire, "x1").len() < 4096,
            "seeded sources stay small"
        );
    }

    #[test]
    fn expectations_accept_only_their_verdicts() {
        assert!(Expect::FlexVec.accepts("flexvec"));
        assert!(Expect::FlexVec.accepts("flexvec (cond-update)"));
        assert!(!Expect::FlexVec.accepts("traditional"));
        assert!(!Expect::FlexVec.accepts("flexvecx"));
        let e = Expect::Exact("traditional".to_owned());
        assert!(e.accepts("traditional") && !e.accepts("flexvec"));
    }

    #[test]
    fn fuzz_kernels_round_trip_their_data() {
        let k = fuzz_kernel(3, 5);
        let back = parse_str("fuzz", &k.source).unwrap();
        assert_eq!(back, k.parsed);
        assert_eq!(oracle(&back), k.live_outs);
    }
}
