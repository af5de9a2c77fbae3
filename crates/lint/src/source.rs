//! Per-file structural model built on the token stream.
//!
//! From the flat [`crate::lexer`] output this reconstructs just enough
//! structure for the rule:
//!
//! - **bracket matching** for `()`, `{}` and `[]` (jumping over call
//!   arguments, finding function bodies);
//! - **function bodies**, so a token's conditional depth counts from its
//!   innermost enclosing function;
//! - **`#[cfg(test)]` / `#[test]` spans**, which the rule skips;
//! - **conditional blocks**: whether a `{` opens the body of an
//!   `if`/`else`/`match`/match arm or of a `for`/`while`/`loop`.

use crate::lexer::{lex, Tok, TokKind};

#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub toks: Vec<Tok>,
    /// `match_of[i]` = index of the bracket matching an open/close
    /// `(`/`)`/`{`/`}`/`[`/`]` at token `i` (usize::MAX when unmatched).
    pub match_of: Vec<usize>,
    /// True at the token index of each `{` that opens a conditional block.
    conditional: Vec<bool>,
    /// `(open, close)` token indices of each function body's braces.
    fns: Vec<(usize, usize)>,
    /// True for tokens inside `#[cfg(test)]` or `#[test]` items.
    pub in_test: Vec<bool>,
}

impl SourceFile {
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let toks = lex(text);
        let n = toks.len();

        // Bracket matching.
        let mut match_of = vec![usize::MAX; n];
        let mut stack: Vec<(char, usize)> = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            match t.kind {
                TokKind::Punct(c @ ('(' | '{' | '[')) => stack.push((c, i)),
                TokKind::Punct(c @ (')' | '}' | ']')) => {
                    let open = match c {
                        ')' => '(',
                        '}' => '{',
                        _ => '[',
                    };
                    // Pop to the nearest matching opener; tolerate
                    // imbalance (we lint, we don't compile).
                    while let Some(&(oc, oi)) = stack.last() {
                        stack.pop();
                        if oc == open {
                            match_of[oi] = i;
                            match_of[i] = oi;
                            break;
                        }
                    }
                }
                _ => {}
            }
        }

        // Block classification. `pending` records a control keyword (or
        // fat arrow) not yet consumed by a `{`; `;` clears it (end of a
        // non-block statement such as a trait method declaration or a
        // `let`).
        let mut conditional = vec![false; n];
        let mut fns: Vec<(usize, usize)> = Vec::new();
        let mut pending = false;
        let mut pending_fn = false;
        for i in 0..n {
            match &toks[i].kind {
                TokKind::Ident(id) => match id.as_str() {
                    "if" | "else" | "match" | "for" | "while" | "loop" => pending = true,
                    "fn" => {
                        pending_fn = true;
                        pending = false;
                    }
                    _ => {}
                },
                TokKind::FatArrow => pending = true,
                TokKind::Punct(';') => {
                    pending = false;
                    pending_fn = false;
                }
                TokKind::Punct('{') => {
                    let close = match_of[i];
                    // A destructuring-pattern brace (`if let Struct { .. }
                    // = ...`, `Foo { x } => arm`, `fn f(Foo { x }: Foo)`):
                    // the token after the matching `}` is `=`, `=>`, or
                    // `:`. Keep the pending classification for the *real*
                    // body brace that follows.
                    let after = (close != usize::MAX).then(|| toks.get(close + 1)).flatten();
                    let is_pattern_brace = matches!(
                        after.map(|t| &t.kind),
                        Some(TokKind::Punct('=' | ':')) | Some(TokKind::FatArrow)
                    );
                    if is_pattern_brace {
                        continue;
                    }
                    if pending_fn {
                        pending_fn = false;
                        pending = false;
                        if close != usize::MAX {
                            fns.push((i, close));
                        }
                    } else {
                        conditional[i] = std::mem::take(&mut pending);
                    }
                }
                _ => {}
            }
        }

        // Test spans: `#[cfg(test)]` or `#[test]` attribute, then mark the
        // following item (up to the matching `}` of its first `{`, or the
        // next `;`).
        let mut in_test = vec![false; n];
        let mut i = 0;
        while i < n {
            if toks[i].is_punct('#') && i + 1 < n && toks[i + 1].is_punct('[') {
                let attr_close = match_of[i + 1];
                if attr_close != usize::MAX {
                    let is_test_attr = toks[i + 2..attr_close].iter().any(|t| t.is_ident("test"))
                        && (toks[i + 2].is_ident("test") || toks[i + 2].is_ident("cfg"));
                    if is_test_attr {
                        // Skip any further attributes, then mark the item.
                        let mut j = attr_close + 1;
                        while j + 1 < n && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
                            let c = match_of[j + 1];
                            if c == usize::MAX {
                                break;
                            }
                            j = c + 1;
                        }
                        let mut end = j;
                        while end < n {
                            if toks[end].is_punct(';') {
                                break;
                            }
                            if toks[end].is_punct('{') {
                                end = match_of[end].min(n - 1);
                                break;
                            }
                            end += 1;
                        }
                        in_test[i..=end.min(n - 1)].fill(true);
                        i = end + 1;
                        continue;
                    }
                }
            }
            i += 1;
        }

        SourceFile {
            path: path.to_owned(),
            toks,
            match_of,
            conditional,
            fns,
            in_test,
        }
    }

    /// Number of conditional blocks between token `i` and its innermost
    /// enclosing function's body (or the file top when the token is not
    /// inside a function).
    pub fn conditional_depth(&self, i: usize) -> usize {
        let floor = self
            .fns
            .iter()
            .filter(|&&(open, close)| open < i && i < close)
            .map(|&(open, _)| open)
            .max()
            .unwrap_or(0);
        self.open_blocks(i)
            .into_iter()
            .filter(|&b| b > floor && self.conditional[b])
            .count()
    }

    /// Token indices of all `{` blocks open at token `i`, outermost first.
    fn open_blocks(&self, i: usize) -> Vec<usize> {
        let mut open = Vec::new();
        for (j, t) in self.toks.iter().enumerate().take(i) {
            if t.is_punct('{') {
                open.push(j);
            } else if t.is_punct('}') {
                if let Some(&top) = open.last() {
                    if self.match_of[top] == j {
                        open.pop();
                    }
                }
            }
        }
        open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn depth_of(sf: &SourceFile, ident: &str) -> usize {
        let i = sf.toks.iter().position(|t| t.is_ident(ident)).unwrap();
        sf.conditional_depth(i)
    }

    #[test]
    fn fn_spans_and_conditionals() {
        let sf = SourceFile::parse(
            "t.rs",
            "fn outer() {\n  if x {\n    probe();\n  }\n  straight();\n}\n",
        );
        assert_eq!(sf.fns.len(), 1);
        assert_eq!(depth_of(&sf, "probe"), 1);
        assert_eq!(depth_of(&sf, "straight"), 0);
    }

    #[test]
    fn if_let_struct_pattern_body_is_conditional() {
        let sf = SourceFile::parse(
            "t.rs",
            "fn f() {\n  if let Foo { x } = v {\n    probe();\n  }\n}\n",
        );
        assert_eq!(depth_of(&sf, "probe"), 1);
    }

    #[test]
    fn match_arms_and_loops() {
        let sf = SourceFile::parse(
            "t.rs",
            "fn f() {\n  for x in v {\n    match x {\n      A => { inner(); }\n      _ => {}\n    }\n  }\n}\n",
        );
        // for-body + match-body + arm-body.
        assert_eq!(depth_of(&sf, "inner"), 3);
    }

    #[test]
    fn cfg_test_spans_are_marked() {
        let sf = SourceFile::parse(
            "t.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x(); }\n}\n",
        );
        let live = sf.toks.iter().position(|t| t.is_ident("live")).unwrap();
        let x = sf.toks.iter().position(|t| t.is_ident("x")).unwrap();
        assert!(!sf.in_test[live]);
        assert!(sf.in_test[x]);
    }
}
