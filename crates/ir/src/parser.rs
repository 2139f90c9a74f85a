//! Textual front-end: a small kernel description language.
//!
//! The DSL plays the role of the annotated C accepted by the paper's
//! GeCoS/ID.Fix flow: value ranges are part of the input declarations and
//! loops carry optional `unroll` annotations which are applied immediately
//! after parsing.
//!
//! # Grammar
//!
//! ```text
//! kernel    := "kernel" IDENT "{" decl* stmt* "}"
//! decl      := "input" IDENT "range" "[" NUM "," NUM "]" ";"
//!            | "output" IDENT ";"
//!            | "param" IDENT "[" INT "]" "=" "{" NUM ("," NUM)* "}" ";"
//!            | "array" IDENT "[" INT "]" ";"
//!            | "var" IDENT ";"
//! stmt      := IDENT "=" expr ";"                  (variable or output)
//!            | IDENT "[" index "]" "=" expr ";"    (array store)
//!            | "shiftin" IDENT "<-" expr ";"
//!            | "for" IDENT "in" INT ".." INT ("unroll" INT)? "{" stmt* "}"
//! expr      := term (("+"|"-") term)*
//! term      := factor ("*" factor)*
//! factor    := "-" factor | "(" expr ")" | NUM
//!            | IDENT | IDENT "[" index "]"
//! index     := iterm (("+"|"-") iterm)*
//! iterm     := INT | IDENT | INT "*" IDENT | IDENT "*" INT
//! ```
//!
//! # Example
//!
//! ```
//! let src = r#"
//! kernel ma2 {
//!     input x range [-1, 1];
//!     output y;
//!     array dl[2];
//!     shiftin dl <- x;
//!     y = 0.5 * dl[0] + 0.5 * dl[1];
//! }
//! "#;
//! let kernel = slpwlo_ir::parser::parse_kernel(src)?;
//! assert_eq!(kernel.name(), "ma2");
//! # Ok::<(), slpwlo_ir::IrError>(())
//! ```

use crate::builder::KernelBuilder;
use crate::error::IrError;
use crate::kernel::Kernel;
use crate::types::{ArrayId, ExprId, IndexExpr, InputId, LoopId, ParamId, VarId};
use crate::unroll::unroll;
use std::collections::HashMap;

/// The deepest nesting of parentheses, unary minus and loops the parser
/// accepts. Recursive descent spends stack per level, so a deeper input
/// fails with a parse error instead of overflowing the stack.
pub const MAX_NESTING: u32 = 256;

/// Parses a kernel from DSL text and applies `unroll` annotations.
///
/// # Errors
///
/// Returns [`IrError::Parse`] with line/column information on syntax
/// errors and on nesting deeper than [`MAX_NESTING`], and other
/// [`IrError`] variants for semantic problems (duplicate or unknown
/// names).
pub fn parse_kernel(src: &str) -> Result<Kernel, IrError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    p.kernel()
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(f64),
    Int(i64),
    LBrace,
    RBrace,
    LBrack,
    RBrack,
    LParen,
    RParen,
    Comma,
    Semi,
    Eq,
    Plus,
    Minus,
    Star,
    DotDot,
    Arrow,
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: u32,
    col: u32,
}

fn lex(src: &str) -> Result<Vec<Spanned>, IrError> {
    let mut out = Vec::new();
    let mut line = 1u32;
    let mut col = 1u32;
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        let (tl, tc) = (line, col);
        // Only ever called after a successful `peek`, so the iterator
        // cannot be exhausted; the `\0` arm keeps this total instead of
        // unwrap-panicking if that coupling is ever broken.
        let mut bump = |chars: &mut std::iter::Peekable<std::str::Chars>| {
            let Some(c) = chars.next() else { return '\0' };
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            c
        };
        if c.is_whitespace() {
            bump(&mut chars);
            continue;
        }
        if c == '/' {
            // Line comment `// ...`
            bump(&mut chars);
            if chars.peek() == Some(&'/') {
                while let Some(&c2) = chars.peek() {
                    if c2 == '\n' {
                        break;
                    }
                    bump(&mut chars);
                }
                continue;
            }
            return Err(IrError::Parse {
                line: tl,
                col: tc,
                msg: "unexpected `/`".into(),
            });
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let mut s = String::new();
            while let Some(&c2) = chars.peek() {
                if c2.is_ascii_alphanumeric() || c2 == '_' {
                    s.push(bump(&mut chars));
                } else {
                    break;
                }
            }
            out.push(Spanned {
                tok: Tok::Ident(s),
                line: tl,
                col: tc,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let mut s = String::new();
            let mut is_float = false;
            while let Some(&c2) = chars.peek() {
                if c2.is_ascii_digit() {
                    s.push(bump(&mut chars));
                } else if c2 == '.' {
                    // Lookahead: `..` is the range operator, not a decimal.
                    let mut clone = chars.clone();
                    clone.next();
                    if clone.peek() == Some(&'.') {
                        break;
                    }
                    is_float = true;
                    s.push(bump(&mut chars));
                } else if c2 == 'e' || c2 == 'E' {
                    is_float = true;
                    s.push(bump(&mut chars));
                    if matches!(chars.peek(), Some('+') | Some('-')) {
                        s.push(bump(&mut chars));
                    }
                } else {
                    break;
                }
            }
            let tok = if is_float {
                Tok::Num(s.parse().map_err(|_| IrError::Parse {
                    line: tl,
                    col: tc,
                    msg: format!("bad number `{s}`"),
                })?)
            } else {
                Tok::Int(s.parse().map_err(|_| IrError::Parse {
                    line: tl,
                    col: tc,
                    msg: format!("bad integer `{s}`"),
                })?)
            };
            out.push(Spanned {
                tok,
                line: tl,
                col: tc,
            });
            continue;
        }
        let tok = match c {
            '{' => Tok::LBrace,
            '}' => Tok::RBrace,
            '[' => Tok::LBrack,
            ']' => Tok::RBrack,
            '(' => Tok::LParen,
            ')' => Tok::RParen,
            ',' => Tok::Comma,
            ';' => Tok::Semi,
            '=' => Tok::Eq,
            '+' => Tok::Plus,
            '*' => Tok::Star,
            '-' => {
                bump(&mut chars);
                if chars.peek() == Some(&'-') {
                    return Err(IrError::Parse {
                        line: tl,
                        col: tc,
                        msg: "unexpected `--`".into(),
                    });
                }
                out.push(Spanned {
                    tok: Tok::Minus,
                    line: tl,
                    col: tc,
                });
                continue;
            }
            '.' => {
                bump(&mut chars);
                if chars.peek() == Some(&'.') {
                    bump(&mut chars);
                    out.push(Spanned {
                        tok: Tok::DotDot,
                        line: tl,
                        col: tc,
                    });
                    continue;
                }
                return Err(IrError::Parse {
                    line: tl,
                    col: tc,
                    msg: "unexpected `.`".into(),
                });
            }
            '<' => {
                bump(&mut chars);
                if chars.peek() == Some(&'-') {
                    bump(&mut chars);
                    out.push(Spanned {
                        tok: Tok::Arrow,
                        line: tl,
                        col: tc,
                    });
                    continue;
                }
                return Err(IrError::Parse {
                    line: tl,
                    col: tc,
                    msg: "unexpected `<`".into(),
                });
            }
            other => {
                return Err(IrError::Parse {
                    line: tl,
                    col: tc,
                    msg: format!("unexpected character `{other}`"),
                })
            }
        };
        bump(&mut chars);
        out.push(Spanned {
            tok,
            line: tl,
            col: tc,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    inputs: HashMap<String, InputId>,
    outputs: HashMap<String, usize>,
    params: HashMap<String, ParamId>,
    arrays: HashMap<String, ArrayId>,
    vars: HashMap<String, VarId>,
    loops: Vec<(String, LoopId)>,
    unrolls: Vec<(LoopId, u32)>,
    /// Open parentheses, unary minuses and loop bodies.
    depth: u32,
}

impl Parser {
    fn new(toks: Vec<Spanned>) -> Self {
        Parser {
            toks,
            pos: 0,
            inputs: HashMap::new(),
            outputs: HashMap::new(),
            params: HashMap::new(),
            arrays: HashMap::new(),
            vars: HashMap::new(),
            loops: Vec::new(),
            unrolls: Vec::new(),
            depth: 0,
        }
    }

    /// Runs `f` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T, IrError>) -> Result<T, IrError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn err(&self, msg: impl Into<String>) -> IrError {
        let (line, col) = self
            .toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|s| (s.line, s.col))
            .unwrap_or((0, 0));
        IrError::Parse {
            line,
            col,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: Tok, what: &str) -> Result<(), IrError> {
        if self.peek() == Some(&t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, IrError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err(format!("expected {what}")))
            }
        }
    }

    fn number(&mut self) -> Result<f64, IrError> {
        match self.next() {
            Some(Tok::Num(v)) => Ok(v),
            Some(Tok::Int(v)) => Ok(v as f64),
            Some(Tok::Minus) => Ok(-self.number()?),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected number"))
            }
        }
    }

    fn integer(&mut self) -> Result<i64, IrError> {
        match self.next() {
            Some(Tok::Int(v)) => Ok(v),
            Some(Tok::Minus) => Ok(-self.integer()?),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected integer"))
            }
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn kernel(&mut self) -> Result<Kernel, IrError> {
        if !self.eat_kw("kernel") {
            return Err(self.err("expected `kernel`"));
        }
        let name = self.ident("kernel name")?;
        let mut b = KernelBuilder::new(name);
        self.expect(Tok::LBrace, "`{`")?;
        // Declarations first (they may be interleaved, we accept any order
        // before statements that use them).
        loop {
            if self.eat_kw("input") {
                let n = self.ident("input name")?;
                if !self.eat_kw("range") {
                    return Err(self.err("expected `range`"));
                }
                self.expect(Tok::LBrack, "`[`")?;
                let lo = self.number()?;
                self.expect(Tok::Comma, "`,`")?;
                let hi = self.number()?;
                // Checked before the `]`/`;` are consumed so the error
                // location points at the offending range, not past it.
                if !lo.is_finite() || !hi.is_finite() || lo > hi {
                    return Err(self.err(format!(
                        "unusable range [{lo}, {hi}] on input `{n}` (need finite lo <= hi)"
                    )));
                }
                self.expect(Tok::RBrack, "`]`")?;
                self.expect(Tok::Semi, "`;`")?;
                self.declare(&n)?;
                let id = b.input(n.clone(), lo, hi);
                self.inputs.insert(n, id);
            } else if self.eat_kw("output") {
                let n = self.ident("output name")?;
                self.expect(Tok::Semi, "`;`")?;
                self.declare(&n)?;
                let id = b.output(n.clone());
                self.outputs.insert(n, id);
            } else if self.eat_kw("param") {
                let n = self.ident("param name")?;
                self.expect(Tok::LBrack, "`[`")?;
                let len = self.integer()?;
                self.expect(Tok::RBrack, "`]`")?;
                self.expect(Tok::Eq, "`=`")?;
                self.expect(Tok::LBrace, "`{`")?;
                let mut vals = Vec::new();
                loop {
                    vals.push(self.number()?);
                    if self.peek() == Some(&Tok::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.expect(Tok::RBrace, "`}`")?;
                self.expect(Tok::Semi, "`;`")?;
                if vals.len() != len as usize {
                    return Err(self.err(format!(
                        "param `{n}` declares {len} values but lists {}",
                        vals.len()
                    )));
                }
                self.declare(&n)?;
                let id = b.param(n.clone(), vals);
                self.params.insert(n, id);
            } else if self.eat_kw("array") {
                let n = self.ident("array name")?;
                self.expect(Tok::LBrack, "`[`")?;
                let len = self.integer()?;
                self.expect(Tok::RBrack, "`]`")?;
                self.expect(Tok::Semi, "`;`")?;
                if len <= 0 {
                    return Err(self.err("array length must be positive"));
                }
                self.declare(&n)?;
                let id = b.array(n.clone(), len as usize);
                self.arrays.insert(n, id);
            } else if self.eat_kw("var") {
                let n = self.ident("variable name")?;
                self.expect(Tok::Semi, "`;`")?;
                self.declare(&n)?;
                let id = b.var(n.clone());
                self.vars.insert(n, id);
            } else {
                break;
            }
        }
        // Statements.
        while self.peek() != Some(&Tok::RBrace) {
            self.stmt(&mut b)?;
        }
        self.expect(Tok::RBrace, "`}`")?;
        let mut kernel = b.try_finish()?;
        for &(l, f) in &self.unrolls {
            unroll(&mut kernel, l, f)?;
        }
        Ok(kernel)
    }

    fn declare(&self, name: &str) -> Result<(), IrError> {
        if self.inputs.contains_key(name)
            || self.outputs.contains_key(name)
            || self.params.contains_key(name)
            || self.arrays.contains_key(name)
            || self.vars.contains_key(name)
        {
            Err(IrError::DuplicateName(name.to_string()))
        } else {
            Ok(())
        }
    }

    fn stmt(&mut self, b: &mut KernelBuilder) -> Result<(), IrError> {
        if self.eat_kw("shiftin") {
            let n = self.ident("array name")?;
            let a = *self
                .arrays
                .get(&n)
                .ok_or_else(|| IrError::UnknownName(n.clone()))?;
            self.expect(Tok::Arrow, "`<-`")?;
            let e = self.expr(b)?;
            self.expect(Tok::Semi, "`;`")?;
            b.shift_in(a, e);
            return Ok(());
        }
        if self.eat_kw("for") {
            let n = self.ident("loop variable")?;
            if !self.eat_kw("in") {
                return Err(self.err("expected `in`"));
            }
            let lo = self.integer()?;
            self.expect(Tok::DotDot, "`..`")?;
            let hi = self.integer()?;
            if lo != 0 || hi <= 0 {
                return Err(self.err("loops must have the form `0..count` with count > 0"));
            }
            if hi > u32::MAX as i64 {
                return Err(self.err(format!("loop count {hi} exceeds the supported maximum")));
            }
            let mut factor = None;
            if self.eat_kw("unroll") {
                let f = self.integer()?;
                // `unroll 0` is the library's "unroll fully" spelling, but
                // in source it is almost certainly a typo; negative factors
                // would wrap the `u32` cast into astronomically large ones.
                if f <= 0 || f > u32::MAX as i64 {
                    return Err(self.err(format!("unroll factor must be positive, got {f}")));
                }
                factor = Some(f as u32);
            }
            self.expect(Tok::LBrace, "`{`")?;
            let l = b.begin_for(hi as u32);
            self.loops.push((n, l));
            self.nested(|p| {
                while p.peek() != Some(&Tok::RBrace) {
                    p.stmt(b)?;
                }
                Ok(())
            })?;
            self.expect(Tok::RBrace, "`}`")?;
            self.loops.pop();
            b.end_for(l);
            if let Some(f) = factor {
                self.unrolls.push((l, f));
            }
            return Ok(());
        }
        // Assignment to var, output or array element.
        let n = self.ident("statement")?;
        if self.peek() == Some(&Tok::LBrack) {
            let a = *self
                .arrays
                .get(&n)
                .ok_or_else(|| IrError::UnknownName(n.clone()))?;
            self.pos += 1;
            let ix = self.index()?;
            self.expect(Tok::RBrack, "`]`")?;
            self.expect(Tok::Eq, "`=`")?;
            let e = self.expr(b)?;
            self.expect(Tok::Semi, "`;`")?;
            b.store_ix(a, ix, e);
            return Ok(());
        }
        self.expect(Tok::Eq, "`=`")?;
        let e = self.expr(b)?;
        self.expect(Tok::Semi, "`;`")?;
        if let Some(&v) = self.vars.get(&n) {
            b.assign(v, e);
        } else if let Some(&o) = self.outputs.get(&n) {
            b.set_output(o, e);
        } else {
            return Err(IrError::UnknownName(n));
        }
        Ok(())
    }

    fn expr(&mut self, b: &mut KernelBuilder) -> Result<ExprId, IrError> {
        let mut lhs = self.term(b)?;
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.pos += 1;
                    let rhs = self.term(b)?;
                    lhs = b.add(lhs, rhs);
                }
                Some(Tok::Minus) => {
                    self.pos += 1;
                    let rhs = self.term(b)?;
                    lhs = b.sub(lhs, rhs);
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn term(&mut self, b: &mut KernelBuilder) -> Result<ExprId, IrError> {
        let mut lhs = self.factor(b)?;
        while self.peek() == Some(&Tok::Star) {
            self.pos += 1;
            let rhs = self.factor(b)?;
            lhs = b.mul(lhs, rhs);
        }
        Ok(lhs)
    }

    fn factor(&mut self, b: &mut KernelBuilder) -> Result<ExprId, IrError> {
        match self.peek().cloned() {
            Some(Tok::Minus) => {
                self.pos += 1;
                let inner = self.nested(|p| p.factor(b))?;
                Ok(b.neg(inner))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.nested(|p| p.expr(b))?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(e)
            }
            Some(Tok::Num(v)) => {
                self.pos += 1;
                Ok(b.constf(v))
            }
            Some(Tok::Int(v)) => {
                self.pos += 1;
                Ok(b.constf(v as f64))
            }
            Some(Tok::Ident(n)) => {
                self.pos += 1;
                if self.peek() == Some(&Tok::LBrack) {
                    self.pos += 1;
                    let ix = self.index()?;
                    self.expect(Tok::RBrack, "`]`")?;
                    if let Some(&p) = self.params.get(&n) {
                        Ok(b.load_param_ix(p, ix))
                    } else if let Some(&a) = self.arrays.get(&n) {
                        Ok(b.load_ix(a, ix))
                    } else {
                        Err(IrError::UnknownName(n))
                    }
                } else if let Some(&i) = self.inputs.get(&n) {
                    Ok(b.read_input(i))
                } else if let Some(&v) = self.vars.get(&n) {
                    Ok(b.read_var(v))
                } else {
                    Err(IrError::UnknownName(n))
                }
            }
            _ => Err(self.err("expected expression")),
        }
    }

    /// Parses an affine index expression.
    fn index(&mut self) -> Result<IndexExpr, IrError> {
        let mut ix = IndexExpr::constant(0);
        let mut sign = 1i64;
        loop {
            match self.next() {
                Some(Tok::Int(v)) => {
                    // `INT` or `INT * loop`
                    if self.peek() == Some(&Tok::Star) {
                        self.pos += 1;
                        let n = self.ident("loop variable")?;
                        let l = self.lookup_loop(&n)?;
                        ix.add_term(l, sign * v);
                    } else {
                        ix.add_offset(sign * v);
                    }
                }
                Some(Tok::Ident(n)) => {
                    // `loop` or `loop * INT`
                    let l = self.lookup_loop(&n)?;
                    if self.peek() == Some(&Tok::Star) {
                        self.pos += 1;
                        let v = self.integer()?;
                        ix.add_term(l, sign * v);
                    } else {
                        ix.add_term(l, sign);
                    }
                }
                Some(Tok::Minus) => {
                    // unary minus at start of a term
                    sign = -sign;
                    continue;
                }
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected index term"));
                }
            }
            match self.peek() {
                Some(Tok::Plus) => {
                    self.pos += 1;
                    sign = 1;
                }
                Some(Tok::Minus) => {
                    self.pos += 1;
                    sign = -1;
                }
                _ => return Ok(ix),
            }
        }
    }

    fn lookup_loop(&self, name: &str) -> Result<LoopId, IrError> {
        self.loops
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, l)| l)
            .ok_or_else(|| IrError::UnknownName(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Executor, FloatSem};

    const FIR8: &str = r#"
kernel fir8 {
    input x range [-1, 1];
    output y;
    param c[8] = { 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125 };
    array dl[8];
    var acc;
    shiftin dl <- x;
    acc = 0.0;
    for i in 0..8 unroll 4 {
        acc = acc + c[i] * dl[i];
    }
    y = acc;
}
"#;

    #[test]
    fn parses_and_unrolls_fir() {
        let k = parse_kernel(FIR8).unwrap();
        assert_eq!(k.name(), "fir8");
        assert_eq!(k.inputs().len(), 1);
        assert_eq!(k.params()[0].values.len(), 8);
        // unroll 4 => main loop of 2 trips
        let blocks = crate::blocks::collect_blocks(&k);
        let loop_block = blocks.iter().find(|b| b.in_loop()).unwrap();
        assert_eq!(loop_block.trip(), 2);
    }

    #[test]
    fn parsed_kernel_executes() {
        let k = parse_kernel(FIR8).unwrap();
        let mut ex = Executor::new(&k, FloatSem);
        // Moving average of 8 ones = 1.0 after warmup.
        let out = ex.run(&[vec![1.0; 16]]);
        assert!((out[0][15] - 1.0).abs() < 1e-12);
        assert!((out[0][0] - 0.125).abs() < 1e-12);
    }

    #[test]
    fn roundtrip_through_pretty() {
        let k = parse_kernel(FIR8).unwrap();
        let text = crate::pretty::kernel_to_string(&k);
        // The pretty form uses internal loop names (i0...) but stays in-grammar
        // apart from those; re-lexing must succeed.
        assert!(lex(&text).is_ok());
    }

    #[test]
    fn rejects_unknown_names() {
        let src = "kernel k { output y; y = z; }";
        assert!(matches!(parse_kernel(src), Err(IrError::UnknownName(n)) if n == "z"));
    }

    #[test]
    fn rejects_duplicate_names() {
        let src = "kernel k { var a; var a; }";
        assert!(matches!(parse_kernel(src), Err(IrError::DuplicateName(_))));
    }

    #[test]
    fn reports_line_and_column() {
        let src = "kernel k {\n  output y;\n  y = ;\n}";
        match parse_kernel(src) {
            Err(IrError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn negative_index_offsets() {
        let src = r#"
kernel k {
    output y;
    array a[4];
    for i in 0..2 {
        a[2*i + 1] = 1.0;
    }
    y = a[-1];
}
"#;
        let k = parse_kernel(src).unwrap();
        let mut ex = Executor::new(&k, FloatSem);
        let vals = ex.step(&[]);
        // a[-1] wraps to a[3], which stored 1.0 when i=1.
        assert_eq!(vals, vec![1.0]);
    }

    #[test]
    fn rejects_negative_unroll_factors() {
        let src = "kernel k { output y; var a; a = 0.0;\n\
                   for i in 0..4 unroll -1 { a = a + 1.0; } y = a; }";
        match parse_kernel(src) {
            Err(IrError::Parse { msg, .. }) => assert!(msg.contains("unroll factor"), "{msg}"),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_zero_unroll_factors() {
        let src = "kernel k { output y; var a; a = 0.0;\n\
                   for i in 0..4 unroll 0 { a = a + 1.0; } y = a; }";
        assert!(matches!(parse_kernel(src), Err(IrError::Parse { .. })));
    }

    #[test]
    fn rejects_overflowing_loop_counts() {
        let src = "kernel k { output y; var a; a = 0.0;\n\
                   for i in 0..4294967296 { a = a + 1.0; } y = a; }";
        match parse_kernel(src) {
            Err(IrError::Parse { msg, .. }) => assert!(msg.contains("loop count"), "{msg}"),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn comments_are_skipped() {
        let src = "kernel k { // header\n output y; // decl\n y = 1.0; }";
        assert!(parse_kernel(src).is_ok());
    }

    #[test]
    fn precedence_mul_over_add() {
        let src = "kernel k { output y; y = 1.0 + 2.0 * 3.0; }";
        let k = parse_kernel(src).unwrap();
        let mut ex = Executor::new(&k, FloatSem);
        assert_eq!(ex.step(&[]), vec![7.0]);
    }

    #[test]
    fn parenthesised_expressions() {
        let src = "kernel k { output y; y = (1.0 + 2.0) * 3.0; }";
        let k = parse_kernel(src).unwrap();
        let mut ex = Executor::new(&k, FloatSem);
        assert_eq!(ex.step(&[]), vec![9.0]);
    }
}
