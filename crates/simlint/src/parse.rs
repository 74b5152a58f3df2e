//! A lightweight parse layer over the token stream: function items.
//!
//! This is deliberately *not* a Rust parser. It extracts exactly the one
//! item shape the dataflow pass ([`crate::flow`]) needs, and tolerates
//! everything it does not understand by skipping it. All indices refer to
//! the *comment-filtered* code token slice that the rules already operate
//! on.

use crate::lexer::{TokKind, Token};

/// One `fn` item (free function, method, or nested fn).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Whether the function is `pub` (any visibility restriction counts).
    pub is_pub: bool,
    /// Whether the function is `async`.
    pub is_async: bool,
    /// Code-token index of the `fn` keyword.
    pub kw: usize,
    /// Code-token index range of the parameter list `( ... )`, inclusive
    /// of both parens.
    pub params: (usize, usize),
    /// Code-token index range of the body `{ ... }`, inclusive of both
    /// braces. `None` for bodyless declarations (trait methods).
    pub body: Option<(usize, usize)>,
    /// 1-based source line of the `fn` keyword.
    pub line: u32,
}

/// Find the matching close for the opener at `open` (`(`/`[`/`{`).
/// Returns `code.len()` when unbalanced.
pub fn matching_close(code: &[&Token], open: usize) -> usize {
    let (o, c) = match code.get(open) {
        Some(t) if t.is_punct('(') => ('(', ')'),
        Some(t) if t.is_punct('[') => ('[', ']'),
        Some(t) if t.is_punct('{') => ('{', '}'),
        _ => return code.len(),
    };
    let mut depth = 0i32;
    for (i, t) in code.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    code.len()
}

/// Every function item of one file's comment-filtered token slice, in
/// source order. The scan continues *inside* each signature and body, so
/// nested fns are found too.
pub fn parse(code: &[&Token]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_ident("fn") && i + 1 < code.len() && code[i + 1].kind == TokKind::Ident {
            if let Some((item, next)) = parse_fn(code, i) {
                fns.push(item);
                i = next;
                continue;
            }
        }
        i += 1;
    }
    fns
}

/// Is the token at `i` the tail of a visibility modifier (`pub`,
/// `pub(crate)`, `pub(in path)`)?
fn is_vis_end(code: &[&Token], i: usize) -> bool {
    if code[i].is_ident("pub") {
        return true;
    }
    // `pub ( crate )` — walk back over the paren group.
    if code[i].is_punct(')') {
        let mut j = i;
        let mut depth = 0i32;
        while j > 0 {
            if code[j].is_punct(')') {
                depth += 1;
            } else if code[j].is_punct('(') {
                depth -= 1;
                if depth == 0 {
                    return j > 0 && code[j - 1].is_ident("pub");
                }
            }
            j -= 1;
        }
    }
    false
}

/// Parse a fn item whose `fn` keyword sits at `i`. Returns the item and the
/// index to resume scanning from (just past the signature).
fn parse_fn(code: &[&Token], i: usize) -> Option<(FnItem, usize)> {
    let name = code[i + 1].text.clone();
    // Look back for modifiers, stopping at item/stmt boundaries.
    let mut is_pub = false;
    let mut is_async = false;
    let mut j = i;
    let mut steps = 0;
    while j > 0 && steps < 8 {
        j -= 1;
        steps += 1;
        let t = code[j];
        if t.is_ident("pub") {
            is_pub = true;
        } else if t.is_ident("async") {
            is_async = true;
        } else if t.is_ident("unsafe") || t.is_ident("const") || t.is_ident("extern") {
            continue;
        } else if t.is_punct(')') && is_vis_end(code, j) {
            is_pub = true;
        } else if t.kind == TokKind::Str && j > 0 && code[j - 1].is_ident("extern") {
            continue;
        } else {
            break;
        }
    }
    // Find the parameter list: first `(` after the name (skipping generics).
    let mut p = i + 2;
    let mut angle = 0i32;
    while p < code.len() {
        let t = code[p];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct('(') && angle <= 0 {
            break;
        } else if t.is_punct('{') || t.is_punct(';') {
            return None; // malformed / not a real fn item
        }
        p += 1;
    }
    if p >= code.len() {
        return None;
    }
    let p_close = matching_close(code, p);
    if p_close >= code.len() {
        return None;
    }
    // Find the body `{` (or `;` for a bodyless decl) after the return type
    // and where clauses. Angle depth guards `-> Foo<Bar>`.
    let mut b = p_close + 1;
    let mut angle = 0i32;
    while b < code.len() {
        let t = code[b];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = (angle - 1).max(0);
        } else if t.is_punct('{') && angle == 0 {
            break;
        } else if t.is_punct(';') && angle == 0 {
            let item = FnItem {
                name,
                is_pub,
                is_async,
                kw: i,
                params: (p, p_close),
                body: None,
                line: code[i].line,
            };
            return Some((item, b + 1));
        } else if t.is_punct('(') || t.is_punct('[') {
            b = matching_close(code, b);
            continue;
        }
        b += 1;
    }
    if b >= code.len() {
        return None;
    }
    let b_close = matching_close(code, b);
    let item = FnItem {
        name,
        is_pub,
        is_async,
        kw: i,
        params: (p, p_close),
        body: Some((b, b_close)),
        line: code[i].line,
    };
    Some((item, b + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Vec<FnItem> {
        let toks = lex(src);
        let code: Vec<&Token> = toks.iter().filter(|t| !t.is_comment()).collect();
        parse(&code)
    }

    #[test]
    fn fn_items() {
        let p = parse_src(
            "pub async fn transfer(ctx: &SimCtx, bytes: u64) -> Stats { inner(bytes) }\n\
             fn inner(b: u64) -> Stats { Stats(b) }",
        );
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].name, "transfer");
        assert!(p[0].is_pub && p[0].is_async);
        assert!(p[0].body.is_some());
        assert_eq!(p[1].name, "inner");
        assert!(!p[1].is_pub && !p[1].is_async);
    }

    #[test]
    fn generic_fn_with_where_clause() {
        let p = parse_src(
            "pub fn fold<T: Ord, F>(items: Vec<T>, f: F) -> Option<T>\n\
             where F: Fn(T, T) -> T { items.into_iter().reduce(f) }",
        );
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].name, "fold");
        assert!(p[0].body.is_some());
    }

    #[test]
    fn trait_method_without_body() {
        let p = parse_src("trait T { fn decl(&self) -> u32; fn given(&self) -> u32 { 1 } }");
        assert_eq!(p.len(), 2);
        assert!(p[0].body.is_none());
        assert!(p[1].body.is_some());
    }
}
