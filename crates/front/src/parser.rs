//! Recursive-descent parser: `.fv` text → [`ParsedKernel`].
//!
//! The grammar mirrors exactly the shapes `flexvec_ir::Program` can
//! represent — one countable `for` loop over `i64` scalars and symbolic
//! arrays — so every parse lowers directly through [`ProgramBuilder`]
//! with no desugaring gap, and the canonical printer
//! ([`crate::to_fv`]) round-trips any builder-produced program:
//!
//! ```text
//! kernel minloc;
//!
//! var i = 0;
//! var best = 9223372036854775807;
//! array a[64] = seed 1;
//! live_out best;
//!
//! for (i = 0; i < 64; i++) {
//!   if (a[i] < best) {
//!     best = a[i];
//!   }
//! }
//! ```
//!
//! Array initializers (`[len]`, `= seed s`, `= [1, 2, 3]`) are front-end
//! metadata describing the input data a driver should bind; they never
//! enter the [`Program`] itself, which keeps AST round-trips exact.

use flexvec_ir::build as b;
use flexvec_ir::{ArraySym, Expr, Program, ProgramBuilder, Stmt, VarId};

use crate::diag::{short, Diagnostic, Span};
use crate::lexer::{lex, TokKind, Token};

/// Nesting limit for expressions and statements: corrupted inputs with
/// pathological `((((...` runs get a diagnostic, not a stack overflow.
/// Each level of the precedence tower costs ~10 stack frames, so this
/// is sized to stay well inside a 2 MiB test-thread stack while being
/// an order of magnitude deeper than any real kernel nests. Operator
/// chains count too: `i + i + … + i` builds a left-deep tree one level
/// per operator, and every pass after the parser walks it recursively.
const MAX_DEPTH: usize = 64;

/// An expression and its height: the most operator nodes on a path
/// from its root to a leaf.
type Parsed = Result<(Expr, usize), Diagnostic>;

/// Binary operator precedence levels, loosest first.
const BINARY_LEVELS: usize = 7;

/// The node builder of `tok` as a binary operator at precedence
/// `level`: `|`, `^`, `&`, comparisons, shifts, `+ -`, then `* / %`.
fn binary_op(level: usize, tok: &TokKind) -> Option<fn(Expr, Expr) -> Expr> {
    Some(match (level, tok) {
        (0, TokKind::Pipe) => b::bor,
        (1, TokKind::Caret) => b::bxor,
        (2, TokKind::Amp) => b::band,
        (3, TokKind::EqEq) => b::eq,
        (3, TokKind::Ne) => b::ne,
        (3, TokKind::Lt) => b::lt,
        (3, TokKind::Le) => b::le,
        (3, TokKind::Gt) => b::gt,
        (3, TokKind::Ge) => b::ge,
        (4, TokKind::Shl) => b::shl,
        (4, TokKind::Shr) => b::shr,
        (5, TokKind::Plus) => b::add,
        (5, TokKind::Minus) => b::sub,
        (6, TokKind::Star) => b::mul,
        (6, TokKind::Slash) => b::div,
        (6, TokKind::Percent) => b::rem,
        _ => return None,
    })
}

/// Largest declarable array length, and the most elements a kernel's
/// arrays may declare together — bounds what
/// [`ParsedKernel::materialize_arrays`] will allocate.
const MAX_ARRAY_LEN: u64 = 1 << 20;

/// How an `array` declaration asks for its input data to be produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArrayInit {
    /// `array a;` — 64 zeros.
    Default,
    /// `array a[LEN];` — `LEN` zeros.
    Len(usize),
    /// `array a[LEN] = seed S;` — `LEN` pseudo-random values in `0..1000`
    /// from the deterministic LCG in [`seeded_array`].
    Seeded {
        /// Element count.
        len: usize,
        /// LCG seed.
        seed: u64,
    },
    /// `array a = [v0, v1, ...];` — the literal values.
    Explicit(Vec<i64>),
}

/// An array declaration plus its input-data recipe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayInput {
    /// The array's name (matches the `Program` declaration).
    pub name: String,
    /// How to produce its data.
    pub init: ArrayInit,
}

/// A successfully parsed `.fv` file: the validated [`Program`] and the
/// input recipe for each declared array (positional, same order as
/// `program.arrays`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedKernel {
    /// The lowered, validated loop program.
    pub program: Program,
    /// One entry per declared array, in declaration order.
    pub inputs: Vec<ArrayInput>,
}

/// The default length for `array a;` declarations.
pub const DEFAULT_ARRAY_LEN: usize = 64;

/// Deterministic input generator: the same LCG the repo's randomized
/// equivalence tests use, so `.fv` seeds reproduce familiar data.
pub fn seeded_array(len: usize, seed: u64) -> Vec<i64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((state >> 33) as i64) % 1000).abs()
        })
        .collect()
}

impl ArrayInit {
    /// How many elements the recipe produces.
    fn elements(&self) -> u64 {
        match self {
            ArrayInit::Default => DEFAULT_ARRAY_LEN as u64,
            ArrayInit::Len(len) | ArrayInit::Seeded { len, .. } => *len as u64,
            ArrayInit::Explicit(values) => values.len() as u64,
        }
    }
}

impl ParsedKernel {
    /// Produces the concrete input arrays, positionally matching
    /// `program.arrays`, ready for `AddressSpace::alloc_from`.
    pub fn materialize_arrays(&self) -> Vec<Vec<i64>> {
        self.inputs
            .iter()
            .map(|input| match &input.init {
                ArrayInit::Default => vec![0; DEFAULT_ARRAY_LEN],
                ArrayInit::Len(n) => vec![0; *n],
                ArrayInit::Seeded { len, seed } => seeded_array(*len, *seed),
                ArrayInit::Explicit(values) => values.clone(),
            })
            .collect()
    }
}

/// Parses one `.fv` kernel from `src`. `source_name` is echoed in
/// diagnostics (use the file path, or a synthetic name like `<memory>`).
///
/// # Errors
///
/// Returns a [`Diagnostic`] — with the offending [`Span`] and, for
/// expectation failures, the accepted-token list — on any lex or parse
/// error. Never panics, regardless of input.
pub fn parse_str(source_name: &str, src: &str) -> Result<ParsedKernel, Diagnostic> {
    let toks = lex(source_name, src)?;
    Parser {
        toks,
        pos: 0,
        source_name,
    }
    .file()
}

struct Parser<'a> {
    toks: Vec<Token>,
    pos: usize,
    source_name: &'a str,
}

impl Parser<'_> {
    fn peek(&self) -> &Token {
        // The token stream always ends with Eof; clamp for safety.
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn peek2(&self) -> &TokKind {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].kind
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: &TokKind) -> bool {
        self.peek().kind == *kind
    }

    fn eat(&mut self, kind: &TokKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn error(&self, message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::new(self.source_name, message, span)
    }

    fn expected(&self, wanted: &[&str]) -> Diagnostic {
        let tok = self.peek();
        let mut d = self.error(
            format!(
                "expected {}, found {}",
                wanted.join(" or "),
                tok.kind.describe()
            ),
            tok.span,
        );
        d.expected = wanted.iter().map(|s| (*s).to_owned()).collect();
        d
    }

    fn expect(&mut self, kind: &TokKind) -> Result<Token, Diagnostic> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(self.expected(&[&kind.describe()]))
        }
    }

    /// An identifier or quoted name.
    fn name(&mut self, what: &str) -> Result<(String, Span), Diagnostic> {
        let tok = self.peek().clone();
        match tok.kind {
            TokKind::Ident(name) => {
                self.bump();
                Ok((name, tok.span))
            }
            TokKind::Str(name) => {
                self.bump();
                Ok((name, tok.span))
            }
            _ => Err(self.expected(&[what])),
        }
    }

    /// A possibly-negative integer literal as an `i64`.
    fn int_lit(&mut self) -> Result<(i64, Span), Diagnostic> {
        let neg = self.at(&TokKind::Minus);
        if neg {
            self.bump();
        }
        let tok = self.peek().clone();
        let TokKind::Int(magnitude) = tok.kind else {
            return Err(self.expected(&["integer literal"]));
        };
        self.bump();
        self.to_signed(magnitude, neg, tok.span)
    }

    fn to_signed(&self, magnitude: u64, neg: bool, span: Span) -> Result<(i64, Span), Diagnostic> {
        if neg {
            if magnitude > (i64::MAX as u64) + 1 {
                return Err(self.error("integer literal below i64::MIN", span));
            }
            Ok(((magnitude as i64).wrapping_neg(), span))
        } else {
            if magnitude > i64::MAX as u64 {
                return Err(self.error("integer literal above i64::MAX", span));
            }
            Ok((magnitude as i64, span))
        }
    }

    fn file(mut self) -> Result<ParsedKernel, Diagnostic> {
        self.expect(&TokKind::KwKernel)?;
        let (kernel_name, _) = self.name("kernel name")?;
        self.expect(&TokKind::Semi)?;

        let mut builder = ProgramBuilder::new(&kernel_name);
        let mut vars: Vec<(String, VarId)> = Vec::new();
        let mut arrays: Vec<(String, ArraySym)> = Vec::new();
        let mut inputs: Vec<ArrayInput> = Vec::new();
        let mut elements = 0u64;

        loop {
            if self.eat(&TokKind::KwVar) {
                let (name, span) = self.name("variable name")?;
                if vars.iter().any(|(n, _)| *n == name) {
                    let name = short(&name);
                    return Err(self.error(format!("variable `{name}` declared twice"), span));
                }
                self.expect(&TokKind::Assign)?;
                let (init, _) = self.int_lit()?;
                self.expect(&TokKind::Semi)?;
                let id = builder.var(&name, init);
                vars.push((name, id));
            } else if self.eat(&TokKind::KwArray) {
                let (name, span) = self.name("array name")?;
                if arrays.iter().any(|(n, _)| *n == name) {
                    let name = short(&name);
                    return Err(self.error(format!("array `{name}` declared twice"), span));
                }
                let init = self.array_init()?;
                elements += init.elements();
                if elements > MAX_ARRAY_LEN {
                    return Err(self.error(
                        format!(
                            "arrays declare {elements} elements in total, over the maximum \
                             {MAX_ARRAY_LEN} per kernel"
                        ),
                        span,
                    ));
                }
                let id = builder.array(&name);
                arrays.push((name.clone(), id));
                inputs.push(ArrayInput { name, init });
            } else if self.eat(&TokKind::KwLiveOut) {
                loop {
                    let (name, span) = self.name("variable name")?;
                    let Some((_, id)) = vars.iter().find(|(n, _)| *n == name) else {
                        let name = short(&name);
                        return Err(self.error(
                            format!("live_out references undeclared variable `{name}`"),
                            span,
                        ));
                    };
                    builder.live_out(*id);
                    if !self.eat(&TokKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokKind::Semi)?;
            } else if self.at(&TokKind::KwFor) {
                break;
            } else {
                return Err(self.expected(&["`var`", "`array`", "`live_out`", "`for`"]));
            }
        }

        let scope = Scope {
            vars: &vars,
            arrays: &arrays,
        };
        let for_span = self.peek().span;
        self.expect(&TokKind::KwFor)?;
        self.expect(&TokKind::LParen)?;
        let (ind_name, ind_span) = self.name("induction variable")?;
        let induction = scope.var(&self, &ind_name, ind_span)?;
        self.expect(&TokKind::Assign)?;
        let (start, _) = self.expr(&scope, 0)?;
        self.expect(&TokKind::Semi)?;
        let (cond_name, cond_span) = self.name("induction variable")?;
        if cond_name != ind_name {
            let (ind_name, cond_name) = (short(&ind_name), short(&cond_name));
            return Err(self.error(
                format!("loop condition must test `{ind_name}`, found `{cond_name}`"),
                cond_span,
            ));
        }
        self.expect(&TokKind::Lt)?;
        let (end, _) = self.expr(&scope, 0)?;
        self.expect(&TokKind::Semi)?;
        let (step_name, step_span) = self.name("induction variable")?;
        if step_name != ind_name {
            let (ind_name, step_name) = (short(&ind_name), short(&step_name));
            return Err(self.error(
                format!("loop step must increment `{ind_name}`, found `{step_name}`"),
                step_span,
            ));
        }
        self.expect(&TokKind::PlusPlus)?;
        self.expect(&TokKind::RParen)?;
        let body = self.block(&scope, 0)?;
        self.expect(&TokKind::Eof)?;

        let program = builder
            .build_loop(induction, start, end, body)
            .map_err(|e| self.error(format!("invalid loop: {e}"), for_span))?;
        Ok(ParsedKernel { program, inputs })
    }

    /// Everything after the name in an `array` declaration, through `;`.
    fn array_init(&mut self) -> Result<ArrayInit, Diagnostic> {
        if self.eat(&TokKind::Semi) {
            return Ok(ArrayInit::Default);
        }
        if self.eat(&TokKind::LBracket) {
            let len_tok = self.peek().clone();
            let TokKind::Int(len) = len_tok.kind else {
                return Err(self.expected(&["array length"]));
            };
            self.bump();
            if len > MAX_ARRAY_LEN {
                return Err(self.error(
                    format!("array length {len} exceeds the maximum {MAX_ARRAY_LEN}"),
                    len_tok.span,
                ));
            }
            self.expect(&TokKind::RBracket)?;
            let init = if self.eat(&TokKind::Assign) {
                self.expect(&TokKind::KwSeed)?;
                let seed_tok = self.peek().clone();
                let TokKind::Int(seed) = seed_tok.kind else {
                    return Err(self.expected(&["seed value"]));
                };
                self.bump();
                ArrayInit::Seeded {
                    len: len as usize,
                    seed,
                }
            } else {
                ArrayInit::Len(len as usize)
            };
            self.expect(&TokKind::Semi)?;
            return Ok(init);
        }
        if self.eat(&TokKind::Assign) {
            self.expect(&TokKind::LBracket)?;
            let mut values = Vec::new();
            if !self.at(&TokKind::RBracket) {
                loop {
                    let (v, span) = self.int_lit()?;
                    if values.len() as u64 >= MAX_ARRAY_LEN {
                        return Err(self.error(
                            format!("array literal exceeds the maximum length {MAX_ARRAY_LEN}"),
                            span,
                        ));
                    }
                    values.push(v);
                    if !self.eat(&TokKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(&TokKind::RBracket)?;
            self.expect(&TokKind::Semi)?;
            return Ok(ArrayInit::Explicit(values));
        }
        Err(self.expected(&["`;`", "`[`", "`=`"]))
    }

    fn block(&mut self, scope: &Scope<'_>, depth: usize) -> Result<Vec<Stmt>, Diagnostic> {
        if depth > MAX_DEPTH {
            return Err(self.error("statements nested too deeply", self.peek().span));
        }
        self.expect(&TokKind::LBrace)?;
        let mut body = Vec::new();
        while !self.eat(&TokKind::RBrace) {
            body.push(self.stmt(scope, depth)?);
        }
        Ok(body)
    }

    fn stmt(&mut self, scope: &Scope<'_>, depth: usize) -> Result<Stmt, Diagnostic> {
        if self.eat(&TokKind::KwBreak) {
            self.expect(&TokKind::Semi)?;
            return Ok(b::brk());
        }
        if self.eat(&TokKind::KwIf) {
            self.expect(&TokKind::LParen)?;
            let (cond, _) = self.expr(scope, depth + 1)?;
            self.expect(&TokKind::RParen)?;
            let then_ = self.block(scope, depth + 1)?;
            let else_ = if self.eat(&TokKind::KwElse) {
                self.block(scope, depth + 1)?
            } else {
                Vec::new()
            };
            return Ok(b::if_else(cond, then_, else_));
        }
        if matches!(self.peek().kind, TokKind::Ident(_) | TokKind::Str(_)) {
            let (name, span) = self.name("name")?;
            if self.eat(&TokKind::LBracket) {
                let array = scope.array(self, &name, span)?;
                let (index, _) = self.expr(scope, depth + 1)?;
                self.expect(&TokKind::RBracket)?;
                self.expect(&TokKind::Assign)?;
                let (value, _) = self.expr(scope, depth + 1)?;
                self.expect(&TokKind::Semi)?;
                return Ok(b::store(array, index, value));
            }
            let var = scope.var(self, &name, span)?;
            self.expect(&TokKind::Assign)?;
            let (value, _) = self.expr(scope, depth + 1)?;
            self.expect(&TokKind::Semi)?;
            return Ok(b::assign(var, value));
        }
        Err(self.expected(&["`if`", "`break`", "an assignment", "`}`"]))
    }

    /// Parses an expression `depth` levels down, returning it with its
    /// height. Recursion and tree height both count toward `MAX_DEPTH`,
    /// so a long operator chain is refused before its tree is built,
    /// just like a deep parenthesis nest.
    fn expr(&mut self, scope: &Scope<'_>, depth: usize) -> Parsed {
        if depth > MAX_DEPTH {
            return Err(self.error("expression nested too deeply", self.peek().span));
        }
        self.binary(scope, depth, 0)
    }

    /// One left-associative precedence level of [`binary_op`]: operands
    /// from the next tighter level, joined by this level's operators.
    /// Each operator adds a tree level; a chain that would put the tree
    /// deeper than `MAX_DEPTH` is refused at that operator.
    fn binary(&mut self, scope: &Scope<'_>, depth: usize, level: usize) -> Parsed {
        if level == BINARY_LEVELS {
            return self.unary(scope, depth);
        }
        let (mut lhs, mut height) = self.binary(scope, depth, level + 1)?;
        while let Some(build) = binary_op(level, &self.peek().kind) {
            let span = self.peek().span;
            self.bump();
            let (rhs, rhs_height) = self.binary(scope, depth, level + 1)?;
            height = 1 + height.max(rhs_height);
            if depth + height > MAX_DEPTH {
                return Err(self.error("expression nested too deeply", span));
            }
            lhs = build(lhs, rhs);
        }
        Ok((lhs, height))
    }

    fn unary(&mut self, scope: &Scope<'_>, depth: usize) -> Parsed {
        if depth > MAX_DEPTH {
            return Err(self.error("expression nested too deeply", self.peek().span));
        }
        if self.eat(&TokKind::Bang) {
            let (e, height) = self.unary(scope, depth + 1)?;
            return Ok((b::not(e), height + 1));
        }
        if self.at(&TokKind::Minus) {
            self.bump();
            // `-LITERAL` folds into the constant (the canonical printer
            // emits negative constants this way); `-expr` lowers to
            // `0 - expr`, which has identical wrapping semantics.
            if let TokKind::Int(magnitude) = self.peek().kind {
                let span = self.peek().span;
                self.bump();
                let (v, _) = self.to_signed(magnitude, true, span)?;
                return Ok((b::c(v), 0));
            }
            let (e, height) = self.unary(scope, depth + 1)?;
            return Ok((b::sub(b::c(0), e), height + 1));
        }
        self.primary(scope, depth)
    }

    fn primary(&mut self, scope: &Scope<'_>, depth: usize) -> Parsed {
        let tok = self.peek().clone();
        match tok.kind {
            TokKind::Int(magnitude) => {
                self.bump();
                let (v, _) = self.to_signed(magnitude, false, tok.span)?;
                Ok((b::c(v), 0))
            }
            TokKind::LParen => {
                self.bump();
                let e = self.expr(scope, depth + 1)?;
                self.expect(&TokKind::RParen)?;
                Ok(e)
            }
            // `min`/`max` are soft keywords: calls only when followed by
            // `(`, otherwise plain names.
            TokKind::Ident(ref name)
                if (name == "min" || name == "max") && *self.peek2() == TokKind::LParen =>
            {
                let build = if name == "min" { b::min2 } else { b::max2 };
                self.bump();
                self.bump(); // `(`
                let (lhs, lhs_height) = self.expr(scope, depth + 1)?;
                self.expect(&TokKind::Comma)?;
                let (rhs, rhs_height) = self.expr(scope, depth + 1)?;
                self.expect(&TokKind::RParen)?;
                Ok((build(lhs, rhs), 1 + lhs_height.max(rhs_height)))
            }
            TokKind::Ident(_) | TokKind::Str(_) => {
                let (name, span) = self.name("name")?;
                if self.eat(&TokKind::LBracket) {
                    let array = scope.array(self, &name, span)?;
                    let (index, height) = self.expr(scope, depth + 1)?;
                    self.expect(&TokKind::RBracket)?;
                    Ok((b::ld(array, index), height + 1))
                } else {
                    Ok((b::var(scope.var(self, &name, span)?), 0))
                }
            }
            _ => Err(self.expected(&["an expression"])),
        }
    }
}

/// Name resolution: scalars and arrays live in separate namespaces (use
/// sites are always syntactically unambiguous — `a[...]` vs `a`).
struct Scope<'a> {
    vars: &'a [(String, VarId)],
    arrays: &'a [(String, ArraySym)],
}

impl Scope<'_> {
    fn var(&self, p: &Parser<'_>, name: &str, span: Span) -> Result<VarId, Diagnostic> {
        if let Some((_, id)) = self.vars.iter().find(|(n, _)| n == name) {
            return Ok(*id);
        }
        let is_array = self.arrays.iter().any(|(n, _)| n == name);
        let name = short(name);
        let msg = if is_array {
            format!("`{name}` is an array, but is used as a scalar variable")
        } else {
            format!("undeclared variable `{name}`")
        };
        Err(p.error(msg, span))
    }

    fn array(&self, p: &Parser<'_>, name: &str, span: Span) -> Result<ArraySym, Diagnostic> {
        if let Some((_, id)) = self.arrays.iter().find(|(n, _)| n == name) {
            return Ok(*id);
        }
        let is_var = self.vars.iter().any(|(n, _)| n == name);
        let name = short(name);
        let msg = if is_var {
            format!("`{name}` is a scalar variable, but is indexed like an array")
        } else {
            format!("undeclared array `{name}`")
        };
        Err(p.error(msg, span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexvec_ir::build::*;

    const MINLOC: &str = "\
kernel minloc;
var i = 0;
var best = 9223372036854775807;
var best_i = -1;
array a[64] = seed 3;
live_out best, best_i;
for (i = 0; i < 64; i++) {
  if (a[i] < best) {
    best = a[i];
    best_i = i;
  }
}
";

    #[test]
    fn parses_minloc() {
        let k = parse_str("minloc.fv", MINLOC).expect("parses");
        assert_eq!(k.program.name, "minloc");
        assert_eq!(k.program.var_count(), 3);
        assert_eq!(k.program.array_count(), 1);
        assert_eq!(k.program.live_out.len(), 2);
        assert_eq!(k.inputs[0].init, ArrayInit::Seeded { len: 64, seed: 3 });
        let data = k.materialize_arrays();
        assert_eq!(data[0].len(), 64);
        assert!(data[0].iter().all(|&v| (0..1000).contains(&v)));
    }

    #[test]
    fn parses_expected_ast_shape() {
        let src = "\
kernel t;
var i = 0;
var s = 0;
array a;
for (i = 0; i < 8; i++) {
  s = min(s + a[i], 100);
}
";
        let k = parse_str("t.fv", src).expect("parses");
        let mut builder = ProgramBuilder::new("t");
        let i = builder.var("i", 0);
        let s = builder.var("s", 0);
        let a = builder.array("a");
        let expected = builder
            .build_loop(
                i,
                c(0),
                c(8),
                vec![assign(s, min2(add(var(s), ld(a, var(i))), c(100)))],
            )
            .unwrap();
        assert_eq!(k.program, expected);
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let src = "\
kernel t;
var i = 0;
var x = 0;
for (i = 0; i < 4; i++) {
  x = 1 + 2 * 3;
}
";
        let k = parse_str("t.fv", src).unwrap();
        let Stmt::Assign { value, .. } = &k.program.loop_.body[0] else {
            panic!("expected assign");
        };
        assert_eq!(*value, add(c(1), mul(c(2), c(3))));
    }

    #[test]
    fn negative_literals_and_i64_min() {
        let src = "\
kernel t;
var i = 0;
var x = -9223372036854775808;
for (i = 0; i < 1; i++) {
  x = -5 + -x;
}
";
        let k = parse_str("t.fv", src).unwrap();
        assert_eq!(k.program.vars[1].init, i64::MIN);
        let Stmt::Assign { value, .. } = &k.program.loop_.body[0] else {
            panic!("expected assign");
        };
        assert_eq!(*value, add(c(-5), sub(c(0), var(flexvec_ir::VarId(1)))));
    }

    #[test]
    fn diagnostics_carry_position_and_expectations() {
        let src = "kernel t;\nvar i = 0;\nfor (i = 0; i < 4; i++) {\n  i 5;\n}\n";
        let err = parse_str("t.fv", src).unwrap_err();
        assert_eq!(err.span.line, 4);
        assert!(err.message.contains("expected"), "{}", err.message);
        assert!(!err.expected.is_empty());
        // Render must not panic and must include the caret line.
        assert!(err.render(src).contains('^'));
    }

    #[test]
    fn undeclared_and_misused_names() {
        let base = "kernel t;\nvar i = 0;\narray a;\nfor (i = 0; i < 4; i++) {\n";
        let undeclared = format!("{base}  q = 1;\n}}\n");
        let err = parse_str("t.fv", &undeclared).unwrap_err();
        assert!(err.message.contains("undeclared variable `q`"));

        let misused = format!("{base}  i[0] = 1;\n}}\n");
        let err = parse_str("t.fv", &misused).unwrap_err();
        assert!(
            err.message.contains("indexed like an array"),
            "{}",
            err.message
        );

        let as_scalar = format!("{base}  a = 1;\n}}\n");
        let err = parse_str("t.fv", &as_scalar).unwrap_err();
        assert!(err.message.contains("used as a scalar"), "{}", err.message);
    }

    #[test]
    fn build_errors_become_diagnostics() {
        let src = "\
kernel t;
var i = 0;
for (i = 0; i < 4; i++) {
  i = 0;
}
";
        let err = parse_str("t.fv", src).unwrap_err();
        assert!(err.message.contains("invalid loop"), "{}", err.message);
        assert_eq!(err.span.line, 3); // anchored at the `for`
    }

    #[test]
    fn array_initializer_forms() {
        let src = "\
kernel t;
var i = 0;
array a;
array b[10];
array c_arr[4] = seed 9;
array d = [1, -2, 3];
array e = [];
for (i = 0; i < 1; i++) {
}
";
        let k = parse_str("t.fv", src).unwrap();
        assert_eq!(k.inputs[0].init, ArrayInit::Default);
        assert_eq!(k.inputs[1].init, ArrayInit::Len(10));
        assert_eq!(k.inputs[2].init, ArrayInit::Seeded { len: 4, seed: 9 });
        assert_eq!(k.inputs[3].init, ArrayInit::Explicit(vec![1, -2, 3]));
        assert_eq!(k.inputs[4].init, ArrayInit::Explicit(vec![]));
        let data = k.materialize_arrays();
        assert_eq!(data[0], vec![0; DEFAULT_ARRAY_LEN]);
        assert_eq!(data[1], vec![0; 10]);
        assert_eq!(data[3], vec![1, -2, 3]);
    }

    #[test]
    fn one_array_may_not_exceed_the_maximum_length() {
        let kernel = |len: u64| {
            format!(
                "kernel t;\nvar i = 0;\narray a[{len}] = seed 1;\nfor (i = 0; i < 1; i++) {{\n}}\n"
            )
        };
        let k = parse_str("t.fv", &kernel(MAX_ARRAY_LEN)).expect("at the limit");
        assert_eq!(k.inputs[0].init.elements(), MAX_ARRAY_LEN);
        let err = parse_str("t.fv", &kernel(MAX_ARRAY_LEN + 1)).unwrap_err();
        assert!(
            err.message.contains("exceeds the maximum"),
            "{}",
            err.message
        );
        assert_eq!((err.span.line, err.span.col), (3, 9), "carets the length");
    }

    #[test]
    fn arrays_together_may_not_exceed_the_maximum_length() {
        // Each declaration is legal on its own; the parser stops at the
        // one that takes the kernel's total past the bound and never
        // looks at the rest. Parsing materializes nothing.
        let half = MAX_ARRAY_LEN / 2;
        let mut src = String::from("kernel t;\nvar i = 0;\n");
        for k in 0..3000 {
            src.push_str(&format!("array a{k}[{}] = seed {k};\n", MAX_ARRAY_LEN));
        }
        src.push_str("for (i = 0; i < 1; i++) {\n}\n");
        let err = parse_str("t.fv", &src).unwrap_err();
        assert!(
            err.message.contains("in total, over the maximum"),
            "{}",
            err.message
        );
        assert_eq!(
            (err.span.line, err.span.col),
            (4, 7),
            "carets the second array"
        );

        // Two halves fill the budget exactly; one more element is over.
        let two = |extra: &str| {
            format!(
                "kernel t;\nvar i = 0;\narray a[{half}];\narray b[{half}];\n{extra}\
                 for (i = 0; i < 1; i++) {{\n}}\n"
            )
        };
        assert!(parse_str("t.fv", &two("")).is_ok());
        let err = parse_str("t.fv", &two("array c = [7];\n")).unwrap_err();
        assert!(
            err.message.contains(&format!("{}", MAX_ARRAY_LEN + 1)),
            "{}",
            err.message
        );
        assert_eq!(err.span.line, 5);
    }

    #[test]
    fn quoted_names_and_keyword_collisions() {
        let src = "\
kernel \"for\";
var \"if\" = 1;
var i = 0;
for (i = 0; i < 2; i++) {
  \"if\" = \"if\" + 1;
}
";
        let k = parse_str("t.fv", src).unwrap();
        assert_eq!(k.program.name, "for");
        assert_eq!(k.program.vars[0].name, "if");
    }

    #[test]
    fn deep_nesting_is_a_diagnostic_not_an_overflow() {
        let mut src =
            String::from("kernel t;\nvar i = 0;\nvar x = 0;\nfor (i = 0; i < 1; i++) {\n  x = ");
        src.push_str(&"(".repeat(5000));
        src.push('1');
        src.push_str(&")".repeat(5000));
        src.push_str(";\n}\n");
        let err = parse_str("t.fv", &src).unwrap_err();
        assert!(err.message.contains("nested too deeply"), "{}", err.message);
    }

    #[test]
    fn long_operator_chains_are_a_diagnostic_before_the_tree_is_built() {
        let kernel = |terms: usize| {
            format!(
                "kernel t;\nvar i = 0;\nvar x = 0;\nfor (i = 0; i < 1; i++) {{\n  x = {};\n}}\n",
                vec!["i"; terms].join(" + ")
            )
        };
        // 20,000 terms: a left-deep tree far past the vectorizer's
        // stack, refused at the operator that crosses the limit. The
        // parse runs on a large stack, so a parser that builds the
        // whole tree fails this test rather than aborting the binary.
        let src = kernel(20_000);
        let parse = {
            let src = src.clone();
            std::thread::Builder::new()
                .stack_size(64 << 20)
                .spawn(move || parse_str("t.fv", &src).err())
                .expect("spawns")
        };
        let err = parse.join().expect("parses").expect("a diagnostic");
        assert!(err.message.contains("nested too deeply"), "{}", err.message);
        assert_eq!(&src[err.span.offset..err.span.offset + err.span.len], "+");
        assert!(
            err.span.col < 1000,
            "refused late, at column {}",
            err.span.col
        );
        // Chains within the limit still parse, and so does every
        // operator level mixed in one expression.
        parse_str("t.fv", &kernel(32)).expect("a 32-term chain parses");
        let mixed = "kernel t;\nvar i = 0;\nvar x = 0;\nfor (i = 0; i < 1; i++) {\n  \
                     x = (i | 1 ^ 2 & 3 == i < 4 << 1 + 2 * -i % 3) + max(i, !i);\n}\n";
        parse_str("t.fv", mixed).expect("a mixed expression parses");
    }

    #[test]
    fn loop_header_must_use_one_induction_variable() {
        let src = "\
kernel t;
var i = 0;
var j = 0;
for (i = 0; j < 4; i++) {
}
";
        let err = parse_str("t.fv", src).unwrap_err();
        assert!(err.message.contains("loop condition"), "{}", err.message);
    }
}
