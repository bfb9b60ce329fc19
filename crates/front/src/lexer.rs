//! The `.fv` tokenizer.
//!
//! Hand-rolled, span-tracking, and total: every byte sequence either
//! lexes or produces a [`Diagnostic`] — the lexer never panics (the
//! mutation tests in `tests/` enforce this over corrupted corpora).

use crate::diag::{short, Diagnostic, Span};

/// A token kind. Operators keep their surface spelling in
/// [`TokKind::describe`] so expectation messages read naturally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier (also the soft keywords `min`/`max`).
    Ident(String),
    /// Quoted name/string literal (escapes already resolved).
    Str(String),
    /// Unsigned integer literal magnitude (sign handled by the parser).
    Int(u64),
    /// `kernel`
    KwKernel,
    /// `var`
    KwVar,
    /// `array`
    KwArray,
    /// `live_out`
    KwLiveOut,
    /// `for`
    KwFor,
    /// `if`
    KwIf,
    /// `else`
    KwElse,
    /// `break`
    KwBreak,
    /// `seed`
    KwSeed,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `=`
    Assign,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `++`
    PlusPlus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `!`
    Bang,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// End of input.
    Eof,
}

impl TokKind {
    /// How the token is described in diagnostics.
    pub fn describe(&self) -> String {
        match self {
            TokKind::Ident(name) => format!("identifier `{}`", short(name)),
            TokKind::Str(_) => "quoted name".to_owned(),
            TokKind::Int(v) => format!("integer `{v}`"),
            TokKind::KwKernel => "`kernel`".to_owned(),
            TokKind::KwVar => "`var`".to_owned(),
            TokKind::KwArray => "`array`".to_owned(),
            TokKind::KwLiveOut => "`live_out`".to_owned(),
            TokKind::KwFor => "`for`".to_owned(),
            TokKind::KwIf => "`if`".to_owned(),
            TokKind::KwElse => "`else`".to_owned(),
            TokKind::KwBreak => "`break`".to_owned(),
            TokKind::KwSeed => "`seed`".to_owned(),
            TokKind::LParen => "`(`".to_owned(),
            TokKind::RParen => "`)`".to_owned(),
            TokKind::LBracket => "`[`".to_owned(),
            TokKind::RBracket => "`]`".to_owned(),
            TokKind::LBrace => "`{`".to_owned(),
            TokKind::RBrace => "`}`".to_owned(),
            TokKind::Semi => "`;`".to_owned(),
            TokKind::Comma => "`,`".to_owned(),
            TokKind::Assign => "`=`".to_owned(),
            TokKind::EqEq => "`==`".to_owned(),
            TokKind::Ne => "`!=`".to_owned(),
            TokKind::Lt => "`<`".to_owned(),
            TokKind::Le => "`<=`".to_owned(),
            TokKind::Gt => "`>`".to_owned(),
            TokKind::Ge => "`>=`".to_owned(),
            TokKind::Plus => "`+`".to_owned(),
            TokKind::PlusPlus => "`++`".to_owned(),
            TokKind::Minus => "`-`".to_owned(),
            TokKind::Star => "`*`".to_owned(),
            TokKind::Slash => "`/`".to_owned(),
            TokKind::Percent => "`%`".to_owned(),
            TokKind::Amp => "`&`".to_owned(),
            TokKind::Pipe => "`|`".to_owned(),
            TokKind::Caret => "`^`".to_owned(),
            TokKind::Bang => "`!`".to_owned(),
            TokKind::Shl => "`<<`".to_owned(),
            TokKind::Shr => "`>>`".to_owned(),
            TokKind::Eof => "end of file".to_owned(),
        }
    }
}

/// One token with its source span.
#[derive(Clone, Debug)]
pub struct Token {
    /// The kind (and payload).
    pub kind: TokKind,
    /// Where it sits in the source.
    pub span: Span,
}

fn keyword(word: &str) -> Option<TokKind> {
    Some(match word {
        "kernel" => TokKind::KwKernel,
        "var" => TokKind::KwVar,
        "array" => TokKind::KwArray,
        "live_out" => TokKind::KwLiveOut,
        "for" => TokKind::KwFor,
        "if" => TokKind::KwIf,
        "else" => TokKind::KwElse,
        "break" => TokKind::KwBreak,
        "seed" => TokKind::KwSeed,
        _ => return None,
    })
}

/// Hard keywords that can never be plain identifiers (the printer quotes
/// declaration names that collide with these).
pub fn is_keyword(word: &str) -> bool {
    keyword(word).is_some()
}

struct Lexer<'a> {
    source_name: &'a str,
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn span_at(&self, offset: usize, len: usize, line: u32, col: u32) -> Span {
        Span {
            offset,
            len,
            line,
            col,
        }
    }

    fn bump(&mut self) -> Option<(usize, char)> {
        let next = self.chars.next();
        if let Some((_, ch)) = next {
            if ch == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        next
    }

    fn error(&self, message: String, span: Span) -> Diagnostic {
        Diagnostic::new(self.source_name, message, span)
    }
}

/// Lexes the `{XXXX}` tail of a `\u{...}` escape whose `\u` has already
/// been consumed. `start` is the byte offset of the backslash and
/// `line`/`col` its position, so every diagnostic carets the escape
/// itself and spans exactly the text consumed so far.
fn lex_unicode_escape(
    lx: &mut Lexer<'_>,
    src: &str,
    start: usize,
    line: u32,
    col: u32,
) -> Result<char, Diagnostic> {
    if lx.chars.peek().map(|&(_, c)| c) != Some('{') {
        return Err(lx.error(
            "expected `{` after `\\u`".to_owned(),
            lx.span_at(start, 2, line, col),
        ));
    }
    lx.bump(); // `{`
    let mut hex = String::new();
    let close = loop {
        match lx.bump() {
            Some((j, '}')) => break j,
            Some((_, h)) if h.is_ascii_hexdigit() => hex.push(h),
            Some((j, other)) => {
                return Err(lx.error(
                    format!("invalid character `{other}` in `\\u{{...}}` escape (expected a hex digit or `}}`)"),
                    lx.span_at(start, j + other.len_utf8() - start, line, col),
                ))
            }
            None => {
                return Err(lx.error(
                    "unterminated `\\u{...}` escape".to_owned(),
                    lx.span_at(start, src.len() - start, line, col),
                ))
            }
        }
    };
    let span = lx.span_at(start, close + 1 - start, line, col);
    if hex.is_empty() {
        return Err(lx.error(
            "empty `\\u{}` escape (expected 1 to 6 hex digits)".to_owned(),
            span,
        ));
    }
    if hex.len() > 6 {
        let (digits, hex) = (hex.len(), short(&hex));
        return Err(lx.error(
            format!("overlong `\\u{{{hex}}}` escape ({digits} hex digits; the maximum is 6)"),
            span,
        ));
    }
    // 1-6 hex digits always fit in u32; map a (impossible) parse failure
    // to an out-of-range value so the lexer stays total.
    let code = u32::from_str_radix(&hex, 16).unwrap_or(u32::MAX);
    match char::from_u32(code) {
        Some(c) => Ok(c),
        None if (0xD800..=0xDFFF).contains(&code) => Err(lx.error(
            format!("`\\u{{{hex}}}` is a surrogate code point, not a unicode scalar value"),
            span,
        )),
        None => Err(lx.error(
            format!("`\\u{{{hex}}}` is past the largest code point `\\u{{10ffff}}`"),
            span,
        )),
    }
}

/// Tokenizes `src`, returning the token stream (always terminated by an
/// [`TokKind::Eof`] token).
///
/// # Errors
///
/// Returns a [`Diagnostic`] for unterminated strings/escapes, oversized
/// integer literals, and characters outside the language.
pub fn lex(source_name: &str, src: &str) -> Result<Vec<Token>, Diagnostic> {
    let mut lx = Lexer {
        source_name,
        chars: src.char_indices().peekable(),
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    loop {
        // Skip whitespace and `//` comments.
        let (offset, ch, line, col) = loop {
            let Some(&(offset, ch)) = lx.chars.peek() else {
                out.push(Token {
                    kind: TokKind::Eof,
                    span: lx.span_at(src.len(), 0, lx.line, lx.col),
                });
                return Ok(out);
            };
            if ch.is_whitespace() {
                lx.bump();
                continue;
            }
            if ch == '/' && src[offset..].starts_with("//") {
                while let Some(&(_, c)) = lx.chars.peek() {
                    if c == '\n' {
                        break;
                    }
                    lx.bump();
                }
                continue;
            }
            break (offset, ch, lx.line, lx.col);
        };

        let kind = match ch {
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut end = offset;
                while let Some(&(i, c)) = lx.chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        end = i + c.len_utf8();
                        lx.bump();
                    } else {
                        break;
                    }
                }
                let word = &src[offset..end];
                keyword(word).unwrap_or_else(|| TokKind::Ident(word.to_owned()))
            }
            c if c.is_ascii_digit() => {
                let mut value: u64 = 0;
                let mut end = offset;
                let mut overflow = false;
                while let Some(&(i, c)) = lx.chars.peek() {
                    if let Some(d) = c.to_digit(10) {
                        value = match value.checked_mul(10).and_then(|v| v.checked_add(d as u64)) {
                            Some(v) => v,
                            None => {
                                overflow = true;
                                value
                            }
                        };
                        end = i + 1;
                        lx.bump();
                    } else {
                        break;
                    }
                }
                if overflow {
                    return Err(lx.error(
                        "integer literal does not fit in 64 bits".to_owned(),
                        lx.span_at(offset, end - offset, line, col),
                    ));
                }
                TokKind::Int(value)
            }
            '"' => {
                lx.bump(); // opening quote
                let mut text = String::new();
                loop {
                    let Some((i, c)) = lx.bump() else {
                        return Err(lx.error(
                            "unterminated quoted name".to_owned(),
                            lx.span_at(offset, 1, line, col),
                        ));
                    };
                    match c {
                        '"' => break,
                        '\\' => {
                            // Bad-escape carets point at the backslash
                            // itself, not the string's opening quote;
                            // `bump` already advanced past it.
                            let (esc_line, esc_col) = (lx.line, lx.col - 1);
                            let Some((_, esc)) = lx.bump() else {
                                return Err(lx.error(
                                    "unterminated escape".to_owned(),
                                    lx.span_at(i, 1, esc_line, esc_col),
                                ));
                            };
                            match esc {
                                '"' => text.push('"'),
                                '\\' => text.push('\\'),
                                'n' => text.push('\n'),
                                't' => text.push('\t'),
                                'r' => text.push('\r'),
                                'u' => {
                                    text.push(lex_unicode_escape(
                                        &mut lx, src, i, esc_line, esc_col,
                                    )?);
                                }
                                other => {
                                    return Err(lx.error(
                                        format!("unknown escape `\\{other}`"),
                                        lx.span_at(i, 2, esc_line, esc_col),
                                    ))
                                }
                            }
                        }
                        '\n' => {
                            return Err(lx.error(
                                "unterminated quoted name (newline)".to_owned(),
                                lx.span_at(offset, 1, line, col),
                            ))
                        }
                        other => text.push(other),
                    }
                }
                let end = lx.chars.peek().map_or(src.len(), |&(i, _)| i);
                out.push(Token {
                    kind: TokKind::Str(text),
                    span: lx.span_at(offset, end - offset, line, col),
                });
                continue;
            }
            _ => {
                lx.bump();
                let two = |lx: &mut Lexer, second: char| -> bool {
                    if lx.chars.peek().map(|&(_, c)| c) == Some(second) {
                        lx.bump();
                        true
                    } else {
                        false
                    }
                };
                match ch {
                    '(' => TokKind::LParen,
                    ')' => TokKind::RParen,
                    '[' => TokKind::LBracket,
                    ']' => TokKind::RBracket,
                    '{' => TokKind::LBrace,
                    '}' => TokKind::RBrace,
                    ';' => TokKind::Semi,
                    ',' => TokKind::Comma,
                    '=' => {
                        if two(&mut lx, '=') {
                            TokKind::EqEq
                        } else {
                            TokKind::Assign
                        }
                    }
                    '!' => {
                        if two(&mut lx, '=') {
                            TokKind::Ne
                        } else {
                            TokKind::Bang
                        }
                    }
                    '<' => {
                        if two(&mut lx, '=') {
                            TokKind::Le
                        } else if two(&mut lx, '<') {
                            TokKind::Shl
                        } else {
                            TokKind::Lt
                        }
                    }
                    '>' => {
                        if two(&mut lx, '=') {
                            TokKind::Ge
                        } else if two(&mut lx, '>') {
                            TokKind::Shr
                        } else {
                            TokKind::Gt
                        }
                    }
                    '+' => {
                        if two(&mut lx, '+') {
                            TokKind::PlusPlus
                        } else {
                            TokKind::Plus
                        }
                    }
                    '-' => TokKind::Minus,
                    '*' => TokKind::Star,
                    '/' => TokKind::Slash,
                    '%' => TokKind::Percent,
                    '&' => TokKind::Amp,
                    '|' => TokKind::Pipe,
                    '^' => TokKind::Caret,
                    other => {
                        return Err(lx.error(
                            format!("unexpected character `{other}`"),
                            lx.span_at(offset, other.len_utf8(), line, col),
                        ))
                    }
                }
            }
        };
        let end = lx.chars.peek().map_or(src.len(), |&(i, _)| i);
        out.push(Token {
            kind,
            span: lx.span_at(offset, end.saturating_sub(offset), line, col),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex("t.fv", src)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_the_basics() {
        let k = kinds("var i = 0; // comment\nfor (i = 0; i < n; i++) {}");
        assert_eq!(k[0], TokKind::KwVar);
        assert_eq!(k[1], TokKind::Ident("i".into()));
        assert_eq!(k[2], TokKind::Assign);
        assert_eq!(k[3], TokKind::Int(0));
        assert_eq!(k[4], TokKind::Semi);
        assert_eq!(k[5], TokKind::KwFor);
        assert!(k.contains(&TokKind::PlusPlus));
        assert_eq!(*k.last().unwrap(), TokKind::Eof);
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            kinds("== != <= >= << >> ++")[..7],
            [
                TokKind::EqEq,
                TokKind::Ne,
                TokKind::Le,
                TokKind::Ge,
                TokKind::Shl,
                TokKind::Shr,
                TokKind::PlusPlus
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        let k = kinds(r#"kernel "a\"b\\c\n\u{1F600}";"#);
        assert_eq!(k[1], TokKind::Str("a\"b\\c\n\u{1F600}".into()));
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let toks = lex("t.fv", "var x = 1;\n  break;").unwrap();
        let brk = toks
            .iter()
            .find(|t| t.kind == TokKind::KwBreak)
            .expect("break token");
        assert_eq!((brk.span.line, brk.span.col), (2, 3));
    }

    #[test]
    fn errors_are_diagnostics_not_panics() {
        assert!(lex("t.fv", "var x = @;").is_err());
        assert!(lex("t.fv", "\"unterminated").is_err());
        assert!(lex("t.fv", "99999999999999999999999999").is_err());
        assert!(lex("t.fv", "\"bad \\q escape\"").is_err());
    }

    #[test]
    fn min_and_max_stay_identifiers() {
        assert_eq!(
            kinds("min max")[..2],
            [TokKind::Ident("min".into()), TokKind::Ident("max".into())]
        );
    }
}
