//! Source-span diagnostics with rendered caret snippets.
//!
//! Every token the lexer produces carries a [`Span`]; parse errors carry
//! the offending span, a message, and (for expectation failures) the set
//! of tokens that would have been accepted. [`Diagnostic::render`]
//! produces the familiar compiler-style report:
//!
//! ```text
//! error: expected `;`, found `}`
//!   --> minloc.fv:5:14
//!    |
//!  5 |   best = a[i]
//!    |              ^ expected `;`
//! ```
//!
//! A report stays small whatever the source: it quotes at most
//! [`WINDOW`] characters of the line on each side of the error, and
//! messages quote names through [`short`].

use core::fmt;
use std::borrow::Cow;

/// Characters of the offending line a report shows on each side of the
/// error's column; a longer line is cut, and each cut is marked `...`.
pub(crate) const WINDOW: usize = 80;

/// Characters of a name a message quotes in full; a longer one is cut
/// and marked `...`.
pub(crate) const NAME_CHARS: usize = 64;

/// `name` as a message quotes it: whole up to [`NAME_CHARS`]
/// characters, else cut after them.
pub(crate) fn short(name: &str) -> Cow<'_, str> {
    match name.char_indices().nth(NAME_CHARS) {
        Some((cut, _)) => Cow::Owned(format!("{}...", &name[..cut])),
        None => Cow::Borrowed(name),
    }
}

/// A half-open byte range in a source file, with the 1-based line and
/// column of its start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first character.
    pub offset: usize,
    /// Length in bytes (0 for end-of-file).
    pub len: usize,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in characters).
    pub col: u32,
}

impl Span {
    /// A zero-length span at the very start of a file.
    pub fn start() -> Self {
        Span {
            offset: 0,
            len: 0,
            line: 1,
            col: 1,
        }
    }
}

/// A parse (or lex) error with location and expectation context.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Name of the source (file path or synthetic name), echoed in the
    /// rendered report.
    pub source_name: String,
    /// The main message, e.g. ``expected `;`, found `}` ``.
    pub message: String,
    /// Where the error is anchored.
    pub span: Span,
    /// What the parser would have accepted here (possibly empty).
    pub expected: Vec<String>,
}

impl Diagnostic {
    /// Creates a diagnostic with no expectation list.
    pub fn new(source_name: &str, message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            source_name: source_name.to_owned(),
            message: message.into(),
            span,
            expected: Vec::new(),
        }
    }

    /// One-line summary: `minloc.fv:5:14: expected `;`, found `}``.
    pub fn summary(&self) -> String {
        format!(
            "{}:{}:{}: {}",
            self.source_name, self.span.line, self.span.col, self.message
        )
    }

    /// Renders the full report with a caret snippet cut from `source`
    /// (the text the diagnostic was produced from). Only a window of a
    /// long line is shown, and the carets stay inside it.
    pub fn render(&self, source: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("error: {}\n", self.message));
        out.push_str(&format!(
            "  --> {}:{}:{}\n",
            self.source_name, self.span.line, self.span.col
        ));
        let line_no = self.span.line.to_string();
        let gutter = " ".repeat(line_no.len());
        out.push_str(&format!(" {gutter} |\n"));
        let line_text = source
            .lines()
            .nth(self.span.line.saturating_sub(1) as usize)
            .unwrap_or("");
        // The characters `first..last` of the line.
        let col = self.span.col.saturating_sub(1) as usize;
        let chars = line_text.chars().count();
        let first = col.saturating_sub(WINDOW).min(chars);
        let last = col.saturating_add(WINDOW).min(chars);
        let shown: String = line_text.chars().skip(first).take(last - first).collect();
        let front = if first > 0 { "..." } else { "" };
        let back = if last < chars { "..." } else { "" };
        out.push_str(&format!(" {line_no} | {front}{shown}{back}\n"));
        let pad = " ".repeat(front.len() + (col - first).min(WINDOW));
        // Carets stop where a cut line does; on a whole line they may
        // run to its length past the column, as they always have.
        let room = last - if back.is_empty() { first } else { col };
        let carets = "^".repeat(self.span.len.max(1).min(room.max(1)));
        let hint = if self.expected.is_empty() {
            String::new()
        } else {
            format!(" expected {}", self.expected.join(" or "))
        };
        out.push_str(&format!(" {gutter} | {pad}{carets}{hint}\n"));
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

impl std::error::Error for Diagnostic {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_caret_under_the_span() {
        let src = "var x = 0;\nbest = a[i]\n";
        let d = Diagnostic {
            source_name: "t.fv".into(),
            message: "expected `;`, found end of line".into(),
            span: Span {
                offset: 21,
                len: 1,
                line: 2,
                col: 11,
            },
            expected: vec!["`;`".into()],
        };
        let text = d.render(src);
        assert!(text.contains("--> t.fv:2:11"), "{text}");
        assert!(text.contains("best = a[i]"), "{text}");
        assert!(text.contains("^ expected `;`"), "{text}");
        assert_eq!(d.summary(), "t.fv:2:11: expected `;`, found end of line");
    }

    #[test]
    fn long_lines_and_names_render_small() {
        // One 80,076-byte line: a 20,000-term sum, past the depth limit.
        let mut chain = String::from(
            "kernel deep_chain;\n\nvar i = 0;\nvar x = 0;\n\nfor (i = 0; i < 4; i++) {\n  x = i",
        );
        chain.push_str(&" + i".repeat(19_999));
        chain.push_str(";\n}\n");
        assert_eq!(chain.len(), 80_076);
        // One 100,000-character identifier, undeclared.
        let name = "q".repeat(100_000);
        let ident =
            format!("kernel k;\nvar i = 0;\nfor (i = 0; i < 4; i++) {{\n  {name} = 1;\n}}\n");
        for src in [chain, ident] {
            let text = crate::parse_str("t.fv", &src).unwrap_err().render(&src);
            assert!(text.len() < 1024, "{} bytes:\n{text}", text.len());
            assert!(text.contains("..."), "{text}");
        }
        // Names that fit are quoted whole, on character boundaries.
        assert_eq!(short(&"é".repeat(NAME_CHARS)), "é".repeat(NAME_CHARS));
        let long = "é".repeat(NAME_CHARS + 1);
        assert_eq!(short(&long), format!("{}...", "é".repeat(NAME_CHARS)));
    }

    #[test]
    fn the_window_cuts_on_character_boundaries() {
        // Two- and three-byte characters around every window edge.
        let line: String = "aé日".repeat(100);
        let src = format!("var x;\n{line}\n");
        let span = Span {
            offset: 7,
            len: 5,
            line: 2,
            col: 1,
        };
        for col in 1..=302 {
            let text = Diagnostic::new("t.fv", "bad", Span { col, ..span }).render(&src);
            let shown = text.lines().nth(3).unwrap();
            assert!(shown.chars().count() <= 2 * WINDOW + 12, "{shown}");
            let carets = text.lines().nth(4).unwrap();
            let at = carets.find('^').unwrap() - " | ".len() - 2;
            let expect = if col as usize > WINDOW + 1 {
                "...".len() + WINDOW
            } else {
                col as usize - 1
            };
            assert_eq!(at, expect, "col {col}:\n{text}");
        }
    }

    #[test]
    fn render_tolerates_out_of_range_spans() {
        let d = Diagnostic::new(
            "t.fv",
            "unexpected end of file",
            Span {
                offset: 99,
                len: 0,
                line: 40,
                col: 7,
            },
        );
        // Must not panic even when the span does not exist in the text.
        let text = d.render("short\n");
        assert!(text.contains("error: unexpected end of file"));
    }
}
