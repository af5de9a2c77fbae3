//! A comment/string-aware Rust lexer.
//!
//! Deliberately *not* a parser: the rule needs token streams with
//! accurate line numbers, comments dropped, and string literals
//! distinguished from code (so a label in a comment or a doc example
//! never trips it). Everything heavier — function bodies, conditional
//! depth — is reconstructed from this stream by [`crate::source`] with
//! brace matching.
//!
//! Handled: line + nested block comments, string/raw-string/byte-string
//! literals with escapes, char literals vs. lifetimes, numbers (enough to
//! skip them), and the two multi-char operators that matter downstream
//! (`::`, `=>`).

/// A lexical token with its 1-indexed source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub line: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `if`, `update`, ...).
    Ident(String),
    /// A string literal's *contents* (escapes left undecoded except `\"`).
    Str(String),
    /// A char literal (contents irrelevant to every rule).
    Char,
    /// A lifetime such as `'a` (distinguished from a char literal).
    Lifetime,
    /// A numeric literal.
    Num,
    /// `::`
    PathSep,
    /// `=>`
    FatArrow,
    /// Any other single punctuation character.
    Punct(char),
}

/// The code tokens of `src`; comments are skipped.
pub fn lex(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut out = Vec::new();

    macro_rules! bump {
        () => {{
            if b[i] == '\n' {
                line += 1;
            }
            i += 1;
        }};
    }

    while i < b.len() {
        let c = b[i];
        // Whitespace.
        if c.is_whitespace() {
            bump!();
            continue;
        }
        // Line comment (also doc comments `///`, `//!`).
        if c == '/' && i + 1 < b.len() && b[i + 1] == '/' {
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comment, nested per Rust.
        if c == '/' && i + 1 < b.len() && b[i + 1] == '*' {
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                    depth += 1;
                    bump!();
                    bump!();
                } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                    depth -= 1;
                    bump!();
                    bump!();
                    if depth == 0 {
                        break;
                    }
                } else {
                    bump!();
                }
            }
            continue;
        }
        // Raw strings: r"...", r#"..."#, br##"..."## etc.
        if (c == 'r' || c == 'b') && is_raw_string_start(&b, i) {
            let mut j = i;
            if b[j] == 'b' {
                j += 1;
            }
            j += 1; // past 'r'
            let mut hashes = 0usize;
            while j < b.len() && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            // b[j] == '"'
            while i < j {
                bump!();
            }
            bump!(); // opening quote
            let start_line = line;
            let mut text = String::new();
            'raw: while i < b.len() {
                if b[i] == '"' {
                    // Need `hashes` following '#'.
                    let mut k = i + 1;
                    let mut n = 0usize;
                    while k < b.len() && b[k] == '#' && n < hashes {
                        k += 1;
                        n += 1;
                    }
                    if n == hashes {
                        while i < k {
                            bump!();
                        }
                        break 'raw;
                    }
                }
                text.push(b[i]);
                bump!();
            }
            out.push(Tok {
                kind: TokKind::Str(text),
                line: start_line,
            });
            continue;
        }
        // Identifier / keyword (possibly a `b"..."` byte string prefix).
        if c.is_alphabetic() || c == '_' {
            if c == 'b' && i + 1 < b.len() && b[i + 1] == '"' {
                bump!(); // fall through to the string case below
                continue;
            }
            let start_line = line;
            let mut text = String::new();
            while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                text.push(b[i]);
                i += 1;
            }
            out.push(Tok {
                kind: TokKind::Ident(text),
                line: start_line,
            });
            continue;
        }
        // Number (skipped; good enough to not mis-lex `1.0` as punct).
        if c.is_ascii_digit() {
            let start_line = line;
            while i < b.len()
                && (b[i].is_alphanumeric()
                    || b[i] == '_'
                    || (b[i] == '.' && i + 1 < b.len() && b[i + 1].is_ascii_digit()))
            {
                i += 1;
            }
            out.push(Tok {
                kind: TokKind::Num,
                line: start_line,
            });
            continue;
        }
        // String literal.
        if c == '"' {
            let start_line = line;
            bump!();
            let mut text = String::new();
            while i < b.len() && b[i] != '"' {
                if b[i] == '\\' && i + 1 < b.len() {
                    // Keep escaped quotes/backslashes from ending the scan.
                    if b[i + 1] == '"' || b[i + 1] == '\\' {
                        text.push(b[i + 1]);
                        bump!();
                        bump!();
                        continue;
                    }
                    text.push(b[i]);
                    bump!();
                    continue;
                }
                text.push(b[i]);
                bump!();
            }
            if i < b.len() {
                bump!(); // closing quote
            }
            out.push(Tok {
                kind: TokKind::Str(text),
                line: start_line,
            });
            continue;
        }
        // Char literal vs. lifetime.
        if c == '\'' {
            let start_line = line;
            // Lifetime: 'ident not followed by a closing quote.
            if i + 1 < b.len() && (b[i + 1].is_alphabetic() || b[i + 1] == '_') {
                let mut j = i + 1;
                while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                if j >= b.len() || b[j] != '\'' {
                    i = j;
                    out.push(Tok {
                        kind: TokKind::Lifetime,
                        line: start_line,
                    });
                    continue;
                }
            }
            // Char literal: consume until the matching quote, escape-aware.
            bump!();
            if i < b.len() && b[i] == '\\' {
                bump!();
                bump!();
            } else if i < b.len() {
                bump!();
            }
            if i < b.len() && b[i] == '\'' {
                bump!();
            }
            out.push(Tok {
                kind: TokKind::Char,
                line: start_line,
            });
            continue;
        }
        // Multi-char operators the analyses care about.
        if c == ':' && i + 1 < b.len() && b[i + 1] == ':' {
            out.push(Tok {
                kind: TokKind::PathSep,
                line,
            });
            i += 2;
            continue;
        }
        if c == '=' && i + 1 < b.len() && b[i + 1] == '>' {
            out.push(Tok {
                kind: TokKind::FatArrow,
                line,
            });
            i += 2;
            continue;
        }
        out.push(Tok {
            kind: TokKind::Punct(c),
            line,
        });
        bump!();
    }
    out
}

/// Is `b[i]` the start of a raw (or raw byte) string literal?
fn is_raw_string_start(b: &[char], i: usize) -> bool {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
        if j >= b.len() || b[j] != 'r' {
            return false;
        }
    }
    if b[j] != 'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == '#' {
        j += 1;
    }
    j < b.len() && b[j] == '"'
}

impl Tok {
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }
    pub fn str_lit(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokKind::Ident(t) if t == s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_separated() {
        let l = lex("let x = \"a.b\"; // trailing \"quoted\"\n/* block\n */ foo");
        let strs: Vec<_> = l.iter().filter_map(Tok::str_lit).collect();
        assert_eq!(strs, vec!["a.b"]);
        assert!(!l
            .iter()
            .any(|t| t.is_ident("trailing") || t.is_ident("block")));
        assert!(l.iter().any(|t| t.is_ident("foo")));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let l = lex(r####"let a = r#"x "y" z"#; let b = "p\"q";"####);
        let strs: Vec<_> = l.iter().filter_map(Tok::str_lit).collect();
        assert_eq!(strs, vec![r#"x "y" z"#, "p\"q"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; }");
        let lifetimes = l.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = l.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!((lifetimes, chars), (2, 1));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* a /* b */ c */ ident");
        let idents: Vec<_> = l.iter().filter_map(Tok::ident).collect();
        assert_eq!(idents, ["ident"]);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let l = lex("a\nb\n\"s\"\n");
        let lines: Vec<u32> = l.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }
}
