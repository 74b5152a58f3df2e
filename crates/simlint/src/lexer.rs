//! A minimal Rust tokenizer sufficient for determinism linting.
//!
//! This is deliberately *not* a full Rust lexer: it only needs to
//! distinguish identifiers, punctuation, literals, and comments, and to
//! attribute each token to a source line. Comments are retained as tokens
//! because suppression directives (`// simlint: allow(...)`) live in them.
//!
//! The tricky cases that matter for not mis-tokenizing real code:
//! * nested block comments (`/* /* */ */`)
//! * string escapes (`"\""`) and raw strings (`r#"..."#`, any `#` depth)
//! * byte strings (`b"..."`, `br#"..."#`)
//! * lifetimes vs char literals (`'a` vs `'x'`, `'\n'`)

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword; text carried in [`Token::text`].
    Ident,
    /// Single punctuation character; the char carried in [`Token::text`].
    Punct,
    /// `// ...` comment (including doc comments); text is the full comment.
    LineComment,
    /// `/* ... */` comment; text is the full comment.
    BlockComment,
    /// String / byte-string / raw-string literal (content discarded).
    Str,
    /// Char or byte-char literal.
    CharLit,
    /// Lifetime such as `'a`.
    Lifetime,
    /// Numeric literal.
    Num,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Identifier text, punctuation char, or comment body; empty for
    /// literals whose content the linter never inspects.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
    /// Char offset of the token's first character in the source (the
    /// source viewed as a `Vec<char>`); the property tests hold tokens to
    /// being ordered, disjoint and in bounds through these.
    pub pos: usize,
    /// Char offset one past the token's last character.
    pub end: usize,
}

impl Token {
    /// True when this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.as_bytes() == [c as u8]
    }

    /// True for line or block comments.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Lexer {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<char> {
        self.chars.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    /// If the cursor sits on a raw/byte string opener (`r"`, `r#"`, `b"`,
    /// `br#"` ...), return `(hash_count, is_raw)`.
    fn raw_string_open(&self) -> Option<(usize, bool)> {
        let mut off = 0;
        match self.peek() {
            Some('b') => {
                off += 1;
                if self.peek_at(off) == Some('r') {
                    off += 1;
                } else if self.peek_at(off) == Some('"') {
                    return Some((0, false)); // b"..."
                } else {
                    return None;
                }
            }
            Some('r') => off += 1,
            _ => return None,
        }
        let mut hashes = 0;
        while self.peek_at(off) == Some('#') {
            hashes += 1;
            off += 1;
        }
        if self.peek_at(off) == Some('"') {
            Some((hashes, true))
        } else {
            None
        }
    }

    fn eat_plain_string(&mut self) {
        // Opening quote already consumed.
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => return,
                _ => {}
            }
        }
    }

    fn eat_raw_string(&mut self, hashes: usize) {
        // Cursor is on the prefix; consume up to and including the opening quote.
        while let Some(c) = self.bump() {
            if c == '"' {
                break;
            }
        }
        // Consume until `"` followed by `hashes` '#'s.
        while let Some(c) = self.bump() {
            if c == '"' {
                let mut ok = true;
                for i in 0..hashes {
                    if self.peek_at(i) != Some('#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    for _ in 0..hashes {
                        self.bump();
                    }
                    return;
                }
            }
        }
    }

    fn eat_line_comment(&mut self) -> String {
        let mut text = String::from("//");
        self.bump();
        self.bump();
        while let Some(c) = self.peek() {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        text
    }

    fn eat_block_comment(&mut self) -> String {
        let mut text = String::new();
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while let Some(c) = self.bump() {
            if c == '/' && self.peek() == Some('*') {
                self.bump();
                depth += 1;
            } else if c == '*' && self.peek() == Some('/') {
                self.bump();
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
            }
        }
        text
    }

    fn eat_number(&mut self) {
        let eat_body = |lx: &mut Lexer| {
            while let Some(c) = lx.peek() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    lx.bump();
                } else {
                    break;
                }
            }
        };
        eat_body(self);
        // Fractional part — but not range syntax `1..5` or method call `1.max(..)`.
        if self.peek() == Some('.') && self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
            eat_body(self);
        }
    }

    /// Char literal vs lifetime disambiguation; cursor on the `'`.
    fn eat_quote(&mut self) -> TokKind {
        self.bump(); // the quote
        match self.peek() {
            Some('\\') => {
                // Escaped char literal: consume the escape, then everything
                // up to the closing quote. Multi-char escapes (`'\u{1F600}'`,
                // `'\x7f'`) must not leak their tail into the token stream —
                // a leaked `'` would start a phantom literal and mis-lex the
                // rest of the file.
                self.bump(); // the backslash
                self.bump(); // the escape head (n, u, x, ', \, ...)
                let mut steps = 0;
                while let Some(c) = self.peek() {
                    if c == '\'' {
                        self.bump();
                        break;
                    }
                    if c == '\n' || steps > 10 {
                        break; // malformed; don't run away
                    }
                    self.bump();
                    steps += 1;
                }
                TokKind::CharLit
            }
            Some(c) if (c.is_alphanumeric() || c == '_') && self.peek_at(1) != Some('\'') => {
                // Lifetime: `'a`, `'static`.
                while let Some(c) = self.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        self.bump();
                    } else {
                        break;
                    }
                }
                TokKind::Lifetime
            }
            _ => {
                // `'x'` (or malformed input — consume defensively).
                self.bump();
                if self.peek() == Some('\'') {
                    self.bump();
                }
                TokKind::CharLit
            }
        }
    }
}

/// Tokenize Rust source. Never fails: unrecognized bytes become punctuation.
pub fn lex(src: &str) -> Vec<Token> {
    let mut lx = Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
    };
    let mut out: Vec<Token> = Vec::new();
    let mut push = |lx: &Lexer, kind: TokKind, text: String, line: u32, pos: usize| {
        out.push(Token {
            kind,
            text,
            line,
            pos,
            end: lx.pos,
        });
    };
    while let Some(c) = lx.peek() {
        let line = lx.line;
        let pos = lx.pos;
        if c.is_whitespace() {
            lx.bump();
            continue;
        }
        if c == '/' && lx.peek_at(1) == Some('/') {
            let text = lx.eat_line_comment();
            push(&lx, TokKind::LineComment, text, line, pos);
            continue;
        }
        if c == '/' && lx.peek_at(1) == Some('*') {
            let text = lx.eat_block_comment();
            push(&lx, TokKind::BlockComment, text, line, pos);
            continue;
        }
        if let Some((hashes, raw)) = lx.raw_string_open() {
            if raw {
                lx.eat_raw_string(hashes);
            } else {
                lx.bump(); // b
                lx.bump(); // "
                lx.eat_plain_string();
            }
            push(&lx, TokKind::Str, String::new(), line, pos);
            continue;
        }
        if c == '"' {
            lx.bump();
            lx.eat_plain_string();
            push(&lx, TokKind::Str, String::new(), line, pos);
            continue;
        }
        if c == '\'' {
            let kind = lx.eat_quote();
            push(&lx, kind, String::new(), line, pos);
            continue;
        }
        if c == 'b' && lx.peek_at(1) == Some('\'') {
            lx.bump(); // b
            lx.eat_quote();
            push(&lx, TokKind::CharLit, String::new(), line, pos);
            continue;
        }
        if c.is_ascii_digit() {
            lx.eat_number();
            push(&lx, TokKind::Num, String::new(), line, pos);
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let mut text = String::new();
            while let Some(c) = lx.peek() {
                if c.is_alphanumeric() || c == '_' {
                    text.push(c);
                    lx.bump();
                } else {
                    break;
                }
            }
            push(&lx, TokKind::Ident, text, line, pos);
            continue;
        }
        lx.bump();
        push(&lx, TokKind::Punct, c.to_string(), line, pos);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = lex("let x = a.b;");
        assert!(toks[0].is_ident("let"));
        assert!(toks[1].is_ident("x"));
        assert!(toks[2].is_punct('='));
        assert!(toks[4].is_punct('.'));
        assert!(toks[6].is_punct(';'));
    }

    #[test]
    fn lifetime_vs_char() {
        assert_eq!(
            kinds("'a 'x' '\\n' 'static"),
            vec![
                TokKind::Lifetime,
                TokKind::CharLit,
                TokKind::CharLit,
                TokKind::Lifetime
            ]
        );
    }

    #[test]
    fn raw_strings_do_not_leak() {
        let toks = lex(r###"let s = r#"HashMap "quoted""#; x"###);
        assert!(toks.iter().any(|t| t.is_ident("x")));
        assert!(!toks.iter().any(|t| t.is_ident("HashMap")));
    }

    #[test]
    fn nested_block_comment() {
        let toks = lex("/* outer /* inner */ still */ code");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].kind, TokKind::BlockComment);
        assert!(toks[1].is_ident("code"));
    }

    #[test]
    fn lines_are_tracked() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn numbers_and_ranges() {
        let toks = lex("0..10 1.5 0xff_u64 x.0");
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Num).count(),
            5 // 0, 10, 1.5, 0xff_u64, 0 (tuple index)
        );
    }

    #[test]
    fn multi_char_escapes_do_not_leak() {
        // `'\u{1F600}'` once leaked `{1F600}'` back into the stream, turning
        // the closing quote into a phantom literal that swallowed real code.
        for src in [
            "let c = '\\u{1F600}'; HashMap",
            "let c = '\\x7f'; HashMap",
            "let c = '\\''; HashMap",
            "let c = '\\\\'; HashMap",
        ] {
            let toks = lex(src);
            assert!(
                toks.iter().any(|t| t.is_ident("HashMap")),
                "{src}: {toks:?}"
            );
            assert_eq!(
                toks.iter().filter(|t| t.kind == TokKind::CharLit).count(),
                1,
                "{src}: {toks:?}"
            );
        }
    }

    #[test]
    fn inner_attributes_and_cfg_attr_lex_cleanly() {
        let toks = lex("#![warn(missing_docs)]\n#[cfg_attr(test, allow(dead_code))]\nfn f() {}");
        assert!(toks.iter().any(|t| t.is_ident("cfg_attr")));
        assert!(toks.iter().any(|t| t.is_ident("f")));
        // `#!` must stay two separate puncts on line 1.
        assert!(toks[0].is_punct('#') && toks[1].is_punct('!'));
    }

    #[test]
    fn byte_raw_strings_do_not_leak() {
        for src in [
            r####"let s = br#"HashMap "inner""#; x"####,
            r####"let s = br"HashMap"; x"####,
            r####"let s = br##"nested "# quote"##; x"####,
        ] {
            let toks = lex(src);
            assert!(toks.iter().any(|t| t.is_ident("x")), "{src}: {toks:?}");
            assert!(
                !toks.iter().any(|t| t.is_ident("HashMap")),
                "{src}: {toks:?}"
            );
        }
    }

    #[test]
    fn token_positions_slice_the_source() {
        let src = "let x = foo(1);";
        let chars: Vec<char> = src.chars().collect();
        for t in lex(src) {
            let slice: String = chars[t.pos..t.end].iter().collect();
            if t.kind == TokKind::Ident {
                assert_eq!(slice, t.text, "{t:?}");
            }
            assert!(t.end > t.pos);
        }
    }

    #[test]
    fn strings_with_escapes() {
        let toks = lex(r#"("a\"b", 'q', b"bytes")"#);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::CharLit).count(),
            1
        );
    }
}
