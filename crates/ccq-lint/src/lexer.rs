//! A minimal hand-rolled Rust lexer.
//!
//! The vendor set has no `syn`, so `ccq-lint` tokenizes source itself.
//! The lexer's one job is to be *reliable about what is code*: rule
//! patterns must never fire inside comments, string literals, raw
//! strings, byte strings, or char literals, and waiver comments must be
//! recoverable with their line numbers. It does not parse; downstream
//! rules work on the flat token stream.

/// What a token is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`unwrap`, `unsafe`, `fn`, ...).
    Ident,
    /// An integer or float literal; `float` distinguishes `1.5` / `2e3`
    /// from `42`.
    Number {
        /// Whether the literal is a floating-point literal.
        float: bool,
    },
    /// A string literal of any flavor (`"…"`, `r#"…"#`, `b"…"`, `c"…"`);
    /// the token text is the *unquoted content*.
    Str,
    /// A char or byte-char literal (`'a'`, `b'\n'`).
    Char,
    /// A lifetime (`'a`) or loop label.
    Lifetime,
    /// Punctuation. Multi-character operators that the rules care about
    /// (`==`, `!=`, `::`) are single tokens; everything else is emitted
    /// one character at a time.
    Punct,
    /// A comment. Line comments keep their full text (waivers live
    /// there); block comments keep text too.
    Comment,
}

/// One token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Tok {
    /// The token class.
    pub kind: TokKind,
    /// The token text (unquoted content for [`TokKind::Str`]).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }

    /// Whether this token is a float literal.
    pub fn is_float(&self) -> bool {
        matches!(self.kind, TokKind::Number { float: true })
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if b & 0xc0 != 0x80 {
            // Count characters, not continuation bytes.
            self.col += 1;
        }
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Tokenizes `src`. The lexer never fails: unexpected bytes become
/// single-character [`TokKind::Punct`] tokens, and unterminated literals
/// run to end of input (good enough for a lint pass over code that also
/// has to compile).
pub fn lex(src: &str) -> Vec<Tok> {
    let mut c = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut toks = Vec::new();
    while let Some(b) = c.peek() {
        let (line, col) = (c.line, c.col);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                c.bump();
            }
            b'/' if c.peek_at(1) == Some(b'/') => {
                let start = c.pos;
                while c.peek().is_some_and(|b| b != b'\n') {
                    c.bump();
                }
                toks.push(tok(TokKind::Comment, &src[start..c.pos], line, col));
            }
            b'/' if c.peek_at(1) == Some(b'*') => {
                let start = c.pos;
                c.bump();
                c.bump();
                let mut depth = 1usize;
                while depth > 0 && c.peek().is_some() {
                    if c.starts_with("/*") {
                        depth += 1;
                        c.bump();
                        c.bump();
                    } else if c.starts_with("*/") {
                        depth -= 1;
                        c.bump();
                        c.bump();
                    } else {
                        c.bump();
                    }
                }
                toks.push(tok(TokKind::Comment, &src[start..c.pos], line, col));
            }
            b'"' => {
                let text = lex_quoted(&mut c);
                toks.push(tok(TokKind::Str, &text, line, col));
            }
            b'\'' => lex_char_or_lifetime(&mut c, src, &mut toks, line, col),
            _ if is_ident_start(b) => {
                if let Some(text) = lex_string_prefix(&mut c) {
                    toks.push(tok(TokKind::Str, &text, line, col));
                    continue;
                }
                if byte_char_prefix(&c) {
                    // b'x' — consume the `b`, then the char literal.
                    c.bump();
                    lex_char_body(&mut c);
                    toks.push(tok(TokKind::Char, "", line, col));
                    continue;
                }
                let start = c.pos;
                while c.peek().is_some_and(is_ident_cont) {
                    c.bump();
                }
                toks.push(tok(TokKind::Ident, &src[start..c.pos], line, col));
            }
            _ if b.is_ascii_digit() => {
                let (text, float) = lex_number(&mut c, src);
                toks.push(tok(TokKind::Number { float }, &text, line, col));
            }
            _ => {
                // Multi-char operators the rules match on stay fused;
                // everything else is one Punct per character.
                let fused = ["==", "!=", "::", "=>"]
                    .into_iter()
                    .find(|op| c.starts_with(op));
                match fused {
                    Some(op) => {
                        c.bump();
                        c.bump();
                        toks.push(tok(TokKind::Punct, op, line, col));
                    }
                    None => {
                        c.bump();
                        toks.push(tok(TokKind::Punct, &src[c.pos - 1..c.pos], line, col));
                    }
                }
            }
        }
    }
    toks
}

fn tok(kind: TokKind, text: &str, line: u32, col: u32) -> Tok {
    Tok {
        kind,
        text: text.to_string(),
        line,
        col,
    }
}

/// Consumes a `"…"` literal (cursor on the opening quote); returns the
/// unquoted content.
fn lex_quoted(c: &mut Cursor<'_>) -> String {
    c.bump();
    let start = c.pos;
    loop {
        match c.peek() {
            None => break,
            Some(b'\\') => {
                c.bump();
                c.bump();
            }
            Some(b'"') => break,
            _ => {
                c.bump();
            }
        }
    }
    let content = String::from_utf8_lossy(&c.src[start..c.pos]).into_owned();
    c.bump(); // closing quote
    content
}

/// Recognizes `r"…"`, `r#"…"#`, `b"…"`, `br##"…"##`, `c"…"`, `cr"…"` at
/// an identifier-start position. Returns the content when a string
/// prefix is present, leaving the cursor past the literal.
fn lex_string_prefix(c: &mut Cursor<'_>) -> Option<String> {
    let rest = &c.src[c.pos..];
    let prefix_len = ["br", "cr", "r", "b", "c"]
        .iter()
        .find(|p| {
            rest.starts_with(p.as_bytes())
                && matches!(rest.get(p.len()), Some(b'"') | Some(b'#'))
                && (p.contains('r') || rest.get(p.len()) == Some(&b'"'))
        })
        .map(|p| p.len())?;
    let raw = rest[..prefix_len].contains(&b'r');
    for _ in 0..prefix_len {
        c.bump();
    }
    if !raw {
        return Some(lex_quoted(c));
    }
    // Raw string: count hashes, then scan for `"` followed by that many.
    let mut hashes = 0usize;
    while c.peek() == Some(b'#') {
        hashes += 1;
        c.bump();
    }
    if c.peek() != Some(b'"') {
        return Some(String::new());
    }
    c.bump();
    let start = c.pos;
    let closer: Vec<u8> = std::iter::once(b'"')
        .chain(std::iter::repeat_n(b'#', hashes))
        .collect();
    while c.peek().is_some() && !c.src[c.pos..].starts_with(&closer) {
        c.bump();
    }
    let content = String::from_utf8_lossy(&c.src[start..c.pos]).into_owned();
    for _ in 0..closer.len() {
        c.bump();
    }
    Some(content)
}

/// Whether the cursor sits on a `b'…'` byte-char literal.
fn byte_char_prefix(c: &Cursor<'_>) -> bool {
    c.peek() == Some(b'b') && c.peek_at(1) == Some(b'\'')
}

/// Consumes a char-literal body with the cursor on the opening `'`.
fn lex_char_body(c: &mut Cursor<'_>) {
    c.bump(); // opening '
    if c.peek() == Some(b'\\') {
        c.bump();
        c.bump();
    } else {
        c.bump();
    }
    // Unicode escapes (`'\u{1F600}'`) leave trailing chars; consume to
    // the closing quote.
    while c.peek().is_some_and(|b| b != b'\'' && b != b'\n') {
        c.bump();
    }
    c.bump(); // closing '
}

/// Disambiguates `'a'` (char) from `'a` (lifetime) with the cursor on
/// the `'`.
fn lex_char_or_lifetime(c: &mut Cursor<'_>, src: &str, toks: &mut Vec<Tok>, line: u32, col: u32) {
    let next = c.peek_at(1);
    let is_char = match next {
        Some(b'\\') => true,
        Some(b) if is_ident_start(b) => c.peek_at(2) == Some(b'\''),
        Some(_) => true, // '(' , '0' etc. — any non-ident char literal
        None => true,
    };
    if is_char {
        lex_char_body(c);
        toks.push(tok(TokKind::Char, "", line, col));
    } else {
        c.bump(); // '
        let start = c.pos;
        while c.peek().is_some_and(is_ident_cont) {
            c.bump();
        }
        toks.push(tok(TokKind::Lifetime, &src[start..c.pos], line, col));
    }
}

/// Consumes a numeric literal; returns (text, is_float).
fn lex_number(c: &mut Cursor<'_>, src: &str) -> (String, bool) {
    let start = c.pos;
    let mut float = false;
    if c.starts_with("0x") || c.starts_with("0o") || c.starts_with("0b") {
        c.bump();
        c.bump();
        while c
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            c.bump();
        }
        return (src[start..c.pos].to_string(), false);
    }
    while c.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
        c.bump();
    }
    // A `.` continues the literal only when it is not `..` (range) and
    // not a method call (`1.max(2)`).
    if c.peek() == Some(b'.')
        && c.peek_at(1) != Some(b'.')
        && !c.peek_at(1).is_some_and(is_ident_start)
    {
        float = true;
        c.bump();
        while c.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
            c.bump();
        }
    }
    if matches!(c.peek(), Some(b'e') | Some(b'E'))
        && (c.peek_at(1).is_some_and(|b| b.is_ascii_digit())
            || (matches!(c.peek_at(1), Some(b'+') | Some(b'-'))
                && c.peek_at(2).is_some_and(|b| b.is_ascii_digit())))
    {
        float = true;
        c.bump();
        if matches!(c.peek(), Some(b'+') | Some(b'-')) {
            c.bump();
        }
        while c.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
            c.bump();
        }
    }
    // Type suffix (`1.5f32`, `42u8`).
    let suffix_start = c.pos;
    while c.peek().is_some_and(is_ident_cont) {
        c.bump();
    }
    let suffix = &src[suffix_start..c.pos];
    if suffix.starts_with("f32") || suffix.starts_with("f64") {
        float = true;
    }
    (src[start..c.pos].to_string(), float)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn skips_strings_and_comments() {
        let toks = kinds("let x = \"unwrap() // not code\"; // panic! here\n/* unsafe */ y");
        assert!(toks
            .iter()
            .all(|(k, t)| *k != TokKind::Ident || (t != "unwrap" && t != "unsafe")));
        let comments: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Comment)
            .collect();
        assert_eq!(comments.len(), 2);
    }

    #[test]
    fn raw_and_byte_strings() {
        let toks = kinds(r####"let a = r#"x "quoted" unsafe"#; let b = b"panic!"; c"####);
        let idents: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(idents, ["let", "a", "let", "b", "c"]);
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let d = '\\n'; }");
        let lifetimes = toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count();
        let chars = toks.iter().filter(|(k, _)| *k == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn float_detection() {
        assert!(lex("1.5")[0].is_float());
        assert!(lex("2e3")[0].is_float());
        assert!(lex("1f32")[0].is_float());
        assert!(lex("1.")[0].is_float());
        assert!(!lex("42")[0].is_float());
        assert!(!lex("0x1f")[0].is_float());
        // `1..2` is two ints and a range, `1.max(2)` is a method call.
        assert!(lex("1..2").iter().all(|t| !t.is_float()));
        assert!(lex("1.max(2)").iter().all(|t| !t.is_float()));
    }

    #[test]
    fn fused_operators() {
        let toks = lex("a == b != c :: d = e => f");
        let puncts: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(puncts, ["==", "!=", "::", "=", "=>"]);
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("ab\n  cd");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }
}
