//! Per-file structural model built on the token stream.
//!
//! From the flat [`crate::lexer`] output this reconstructs just enough
//! structure for the rules:
//!
//! - **bracket matching** for `()` and `{}` (jumping over call arguments,
//!   finding function bodies);
//! - **function spans** (`fn name { ... }` token ranges, innermost-wins
//!   resolution of a token to its enclosing function);
//! - **`#[cfg(test)]` / `#[test]` spans**, so rules can skip test code;
//! - **conditional classification of every block**: whether a `{` belongs
//!   to an `if`/`else`/`match`-arm/`for`/`while`/`loop`, and which —
//!   the crash-point determinism rule needs "is this probe under a
//!   conditional", the lock rule needs "is this call inside a loop";
//! - **waiver comments** (`// beldi-lint: allow(<rule>, <reason>)`).

use std::collections::HashMap;

use crate::lexer::{lex, Tok, TokKind};

/// Why a `{ ... }` block exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// A function body.
    Fn,
    /// `if` / `else` / `match` / match-arm body.
    Branch,
    /// `for` / `while` / `loop` body.
    Loop,
    /// Anything else: plain block, struct literal, module, impl, ...
    Plain,
}

#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// Token index of the body's `{`.
    pub open: usize,
    /// Token index of the matching `}`.
    pub close: usize,
}

/// An inline waiver parsed from a `beldi-lint:` comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub rule: String,
    pub reason: String,
    pub line: u32,
    /// The first code line at or below the waiver: the line it covers
    /// (its own, for a trailing comment; the line after the comment
    /// block, for a standalone one).
    pub target: u32,
    pub whole_file: bool,
    /// Set once a finding uses it (unused waivers are reported).
    pub used: std::cell::Cell<bool>,
}

/// A malformed `beldi-lint:` directive (reported as its own finding).
#[derive(Debug, Clone)]
pub struct BadWaiver {
    pub line: u32,
    pub detail: String,
}

#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub lines: Vec<String>,
    pub toks: Vec<Tok>,
    /// `match_of[i]` = index of the bracket matching an open/close
    /// `(`/`)`/`{`/`}`/`[`/`]` at token `i` (usize::MAX when unmatched).
    pub match_of: Vec<usize>,
    /// Block kind per token index of each `{`.
    pub block_kind: HashMap<usize, BlockKind>,
    pub fns: Vec<FnSpan>,
    /// True for tokens inside `#[cfg(test)]` or `#[test]` items.
    pub in_test: Vec<bool>,
    pub waivers: Vec<Waiver>,
    pub bad_waivers: Vec<BadWaiver>,
}

impl SourceFile {
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let lexed = lex(text);
        let toks = lexed.toks;
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

        // Block classification. `pending` carries the most recent control
        // keyword (or fat arrow) not yet consumed by a `{`; it is cleared
        // by `;` (end of a non-block statement such as a trait method
        // declaration or a `let`).
        let mut block_kind: HashMap<usize, BlockKind> = HashMap::new();
        let mut fns: Vec<FnSpan> = Vec::new();
        let mut pending: Option<BlockKind> = None;
        let mut pending_fn: Option<String> = None;
        for i in 0..n {
            match &toks[i].kind {
                TokKind::Ident(id) => match id.as_str() {
                    "if" | "else" | "match" => pending = Some(BlockKind::Branch),
                    "for" | "while" | "loop" => pending = Some(BlockKind::Loop),
                    "fn" => {
                        let name = toks
                            .get(i + 1)
                            .and_then(Tok::ident)
                            .unwrap_or("_")
                            .to_owned();
                        pending_fn = Some(name);
                        pending = None;
                    }
                    _ => {}
                },
                TokKind::FatArrow => pending = Some(BlockKind::Branch),
                TokKind::Punct(';') => {
                    pending = None;
                    pending_fn = None;
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
                    let kind = if is_pattern_brace {
                        BlockKind::Plain
                    } else if let Some(name) = pending_fn.take() {
                        pending = None;
                        if close != usize::MAX {
                            fns.push(FnSpan {
                                name,
                                open: i,
                                close,
                            });
                        }
                        BlockKind::Fn
                    } else {
                        pending.take().unwrap_or(BlockKind::Plain)
                    };
                    block_kind.insert(i, kind);
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

        // Waivers.
        let mut waivers = Vec::new();
        let mut bad_waivers = Vec::new();
        let mut ci = 0;
        while ci < lexed.comments.len() {
            let c = &lexed.comments[ci];
            ci += 1;
            // Only a comment that *begins* with the directive counts —
            // prose that merely mentions `beldi-lint:` (like this file's
            // own docs) is not a waiver.
            let body = c.text.trim_start_matches(['/', '*', '!']).trim_start();
            let Some(first) = body.strip_prefix("beldi-lint:") else {
                continue;
            };
            // A directive may wrap onto directly-following comment lines;
            // join until the closing paren (bounded, so an unclosed
            // directive still reports as malformed).
            let mut joined = first.trim().to_owned();
            let mut last_line = c.line;
            while !joined.contains(')') && ci < lexed.comments.len() {
                let next = &lexed.comments[ci];
                if next.line != last_line + 1 {
                    break;
                }
                joined.push(' ');
                joined.push_str(next.text.trim_start_matches(['/', '*', '!']).trim());
                last_line = next.line;
                ci += 1;
            }
            let rest: &str = &joined;
            let whole_file = rest.starts_with("allow-file(");
            let prefix = if whole_file { "allow-file(" } else { "allow(" };
            let parsed = rest
                .strip_prefix(prefix)
                .and_then(|r| r.rfind(')').map(|e| &r[..e]))
                .and_then(|inner| inner.split_once(','))
                .map(|(rule, reason)| (rule.trim().to_owned(), reason.trim().to_owned()));
            match parsed {
                Some((rule, reason)) if !rule.is_empty() && !reason.is_empty() => {
                    // Skip past continuation comment / blank lines to the
                    // code line this waiver anchors to.
                    let text_lines: Vec<&str> = text.lines().collect();
                    let mut target = c.line + 1;
                    while let Some(l) = text_lines.get(target.saturating_sub(1) as usize) {
                        let t = l.trim();
                        if t.is_empty() || t.starts_with("//") {
                            target += 1;
                        } else {
                            break;
                        }
                    }
                    waivers.push(Waiver {
                        rule,
                        reason,
                        line: c.line,
                        target,
                        whole_file,
                        used: std::cell::Cell::new(false),
                    });
                }
                _ => bad_waivers.push(BadWaiver {
                    line: c.line,
                    detail: format!(
                        "cannot parse `{rest}`; expected \
                         `allow(<rule>, <reason>)` or `allow-file(<rule>, <reason>)` \
                         with a non-empty reason"
                    ),
                }),
            }
        }

        SourceFile {
            path: path.to_owned(),
            lines: text.lines().map(str::to_owned).collect(),
            toks,
            match_of,
            block_kind,
            fns,
            in_test,
            waivers,
            bad_waivers,
        }
    }

    /// The innermost function span containing token `i`, if any.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.open < i && i < f.close)
            .min_by_key(|f| f.close - f.open)
    }

    /// Number of conditional (`Branch`/`Loop`) blocks between token `i`
    /// and its innermost enclosing function's body (or the file top when
    /// the token is not inside a function).
    pub fn conditional_depth(&self, i: usize) -> usize {
        let floor = self.enclosing_fn(i).map(|f| f.open).unwrap_or(0);
        self.open_blocks(i)
            .into_iter()
            .filter(|&b| b > floor)
            .filter(|b| {
                matches!(
                    self.block_kind.get(b),
                    Some(BlockKind::Branch) | Some(BlockKind::Loop)
                )
            })
            .count()
    }

    /// Is token `i` inside a `Loop` block within its enclosing function?
    pub fn loop_block_around(&self, i: usize) -> Option<usize> {
        let floor = self.enclosing_fn(i).map(|f| f.open).unwrap_or(0);
        self.open_blocks(i)
            .into_iter()
            .rev()
            .find(|&b| b > floor && self.block_kind.get(&b) == Some(&BlockKind::Loop))
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

    /// The source line text for a 1-indexed line number.
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(String::as_str)
            .unwrap_or("")
    }

    /// Finds a waiver covering `rule` at `line` (the waiver's own line or
    /// the line directly below it), or a file-level waiver. Marks it used.
    pub fn waived(&self, rule: &str, line: u32) -> Option<&Waiver> {
        let hit = self.waivers.iter().find(|w| {
            let rule_match =
                w.rule == rule || rule.starts_with(&format!("{}/", w.rule)) || w.rule == "*";
            rule_match && (w.whole_file || w.line == line || w.target == line)
        });
        if let Some(w) = hit {
            w.used.set(true);
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_spans_and_conditionals() {
        let sf = SourceFile::parse(
            "t.rs",
            "fn outer() {\n  if x {\n    probe();\n  }\n  straight();\n}\n",
        );
        assert_eq!(sf.fns.len(), 1);
        let probe = sf.toks.iter().position(|t| t.is_ident("probe")).unwrap();
        let straight = sf.toks.iter().position(|t| t.is_ident("straight")).unwrap();
        assert_eq!(sf.conditional_depth(probe), 1);
        assert_eq!(sf.conditional_depth(straight), 0);
    }

    #[test]
    fn if_let_struct_pattern_body_is_conditional() {
        let sf = SourceFile::parse(
            "t.rs",
            "fn f() {\n  if let Foo { x } = v {\n    probe();\n  }\n}\n",
        );
        let probe = sf.toks.iter().position(|t| t.is_ident("probe")).unwrap();
        assert_eq!(sf.conditional_depth(probe), 1);
    }

    #[test]
    fn match_arms_and_loops() {
        let sf = SourceFile::parse(
            "t.rs",
            "fn f() {\n  for x in v {\n    match x {\n      A => { inner(); }\n      _ => {}\n    }\n  }\n}\n",
        );
        let inner = sf.toks.iter().position(|t| t.is_ident("inner")).unwrap();
        // for-body + match-body + arm-body.
        assert_eq!(sf.conditional_depth(inner), 3);
        assert!(sf.loop_block_around(inner).is_some());
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

    #[test]
    fn waiver_parsing() {
        let sf = SourceFile::parse(
            "t.rs",
            "// beldi-lint: allow(crash-points/coverage, bracketed by the caller's probes)\ndb.update(t, k, v);\n// beldi-lint: allow(nope)\n",
        );
        assert_eq!(sf.waivers.len(), 1);
        assert!(sf.waived("crash-points/coverage", 2).is_some());
        assert!(sf.waived("lock-order/nested", 2).is_none());
        assert_eq!(sf.bad_waivers.len(), 1);
    }

    #[test]
    fn family_waiver_matches_members() {
        let sf = SourceFile::parse(
            "t.rs",
            "// beldi-lint: allow-file(crash-points, injector unit tests use abstract labels)\nfn f() {}\n",
        );
        assert!(sf.waived("crash-points/conditional", 40).is_some());
        assert!(sf.waived("determinism/hashmap-iter", 40).is_none());
    }
}
