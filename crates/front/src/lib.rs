//! # flexvec-front
//!
//! The loop-language front end for the FlexVec reproduction: a lexer and
//! recursive-descent parser for `.fv` files — a small C-like language
//! that expresses exactly the loops `flexvec_ir::Program` can represent
//! (one countable `for` loop, `i64` scalars, symbolic arrays, `if` /
//! `else`, `break`) — plus:
//!
//! * **Diagnostics** ([`Diagnostic`]): every lex/parse error carries a
//!   [`Span`] (line, column, byte range) and renders a compiler-style
//!   caret snippet; parsing never panics, whatever the input.
//! * **A canonical pretty-printer** ([`to_fv`]): any `Program` prints to
//!   `.fv` text that reparses to an identical AST.
//! * **The compile cache** ([`CompileCache`]): analyze → vectorize →
//!   bytecode-compile results memoized in a sharded concurrent map,
//!   keyed by the stable AST hash — resubmitting a kernel is a lookup,
//!   not a recompilation.
//!
//! ```
//! use flexvec_front::{parse_str, to_fv, CompileCache};
//! use flexvec::SpecRequest;
//!
//! let src = "\
//! kernel minloc;
//! var i = 0;
//! var best = 9223372036854775807;
//! array a[64] = seed 1;
//! live_out best;
//! for (i = 0; i < 64; i++) {
//!   if (a[i] < best) {
//!     best = a[i];
//!   }
//! }
//! ";
//! let kernel = parse_str("minloc.fv", src)?;
//! assert_eq!(kernel.program.name, "minloc");
//!
//! // Round-trip: canonical text reparses to the same AST.
//! let reparsed = parse_str("<canonical>", &to_fv(&kernel.program))?;
//! assert_eq!(reparsed.program, kernel.program);
//!
//! // The pipeline runs once; the second submission is a cache hit.
//! let cache = CompileCache::new();
//! let (compiled, hit) = cache.get_or_compile(&kernel.program, SpecRequest::Auto);
//! assert!(!hit && compiled.plan.is_ok());
//! let (_, hit) = cache.get_or_compile(&kernel.program, SpecRequest::Auto);
//! assert!(hit && cache.compiles() == 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod diag;
mod lexer;
mod parser;
mod printer;

pub use cache::{verdict_summary, CompileCache, CompiledKernel, CompiledPlan};
pub use diag::{Diagnostic, Span};
pub use lexer::{is_keyword, lex, TokKind, Token};
pub use parser::{parse_str, seeded_array, ArrayInit, ArrayInput, ParsedKernel, DEFAULT_ARRAY_LEN};
pub use printer::{to_fv, to_fv_kernel};

/// Reads and parses a `.fv` file from disk. The path (lossily rendered)
/// becomes the diagnostic source name.
///
/// # Errors
///
/// I/O failures are wrapped in a [`Diagnostic`] pointing at the file
/// start; parse failures are returned as-is.
pub fn parse_file(path: &std::path::Path) -> Result<ParsedKernel, Diagnostic> {
    let name = path.display().to_string();
    let src = std::fs::read_to_string(path)
        .map_err(|e| Diagnostic::new(&name, format!("cannot read file: {e}"), Span::start()))?;
    parse_str(&name, &src)
}
