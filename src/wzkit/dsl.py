"""Identity-definition DSL: parser, resolver, and canonical printer.

The tokens, one row each of the table ``_TOKENS``, tried in this order
at each position of the text:

    SKIP       := { " " | TAB | CR }+ | "#" { any character except newline }
    NEWLINE    := newline
    INT        := { "0".."9" }+
    STRING     := '"' { any character except '"' and newline } '"'
    NAME       := ( letter | "_" ) { letter | digit | "_" }
    SYM        := ":=" | "==" | ">=" | one of ( ) [ ] , + - * / ^

SKIP and NEWLINE make no token; a token's column counts characters from
the start of its line.  ``letter`` and ``digit`` are Unicode's
(``str.isalpha`` and ``str.isalnum``).

The grammar:

    document   := { statement }
    statement  := termDef | certDef | sumDef | recDef | checkDef
    termDef    := "term" NAME "(" params ")" ":=" expr
    expr       := product { ("+" | "-") product }
    product    := unary { ("*" | "/") unary }
    unary      := "-" unary | atom [ "^" INT ]
    atom       := "binom" "(" linear "," linear ")"
                | "pow" "(" INT "," linear ")"
                | "sign" "(" linear ")"
                | "(" expr ")" | NAME | INT
    certDef    := "cert" NAME "(" params ")" ":=" ratExpr
    sumDef     := "sum" NAME "(" NAME ")" ":=" sumCall [ sumCall ]
                  "==" closedForm [ "for" NAME ">=" SINT ] { clause }
    sumCall    := "sum" "(" NAME "," bound "," bound "," NAME ")"
    bound      := linear | "floor2" "(" linear ")"
    recDef     := "recurrence" NAME "(" NAME "," NAME ")" ":="
                  "[" ratExpr { "," ratExpr } "]" "*" NAME "cert" NAME
                  { clause | "base" SINT "==" SINT }
    clause     := "erratum" STRING | "as" NAME [ "literal" | "corrected" ]
    checkDef   := "check" KIND NAME [ "[" SINT "," SINT "]" ]

``sign(e)`` denotes (-1)^e and ``floor2(e)`` denotes floor(e/2).
``ratExpr`` and ``closedForm`` are ``expr``s, and ``linear`` is an
affine ``expr`` with integer coefficients.  In a nested sumDef the outer
call comes first and both calls name the same summand term, whose
parameters must be exactly the sum's parameter plus the loop variables.
Recurrence coefficients may only mention the shift variable.

Terms and closed forms are folded by one function, ``_fold``, into a sum
of ``HyperTerm`` parts: ``*`` distributes over ``+``, parts that differ
only in their prefactor are added, and every divisor is a call-free
rational expression.  A term must fold to exactly one part.  A closed
form is an expression in the sum's parameter whose parts are checked
after the fold: no ``binom``, a constant denominator, and pow exponents
nondecreasing in the parameter with coefficient and constant at most
``MAX_EXPONENT``; such an error is reported at the closed form's first
token.  A term's pow exponents and binomial tops and bottoms, after the
fold, and each bound of a sum call have coefficients at most
``MAX_EXPONENT`` and a constant at most ``MAX_CONSTANT`` (100,000) in
absolute value.  Such an error names the term, reported at its first
token, or the sum and the bound, reported at the bound's first token.

Clauses hold a definition's own facts: each ``erratum`` says what a
literal statement gets wrong or a corrected one changed; ``base n0 == v``
is a recurrence's S(n0) = v; ``as ID MODE`` makes public id ``ID`` in
``MODE`` (both modes if omitted) resolve to the definition.  They land
in the sum's ``IdentityCase`` or the recurrence's ``WZProblem``, and the
printer writes them back.

Every error -- lexical, syntactic, resolution, arity -- carries the
1-based line and column where it was detected; an input nested past the
interpreter's recursion limit is reported at the start of its statement.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .hyperterm import HyperTerm
from .identities import LEMMAS, IdentityCase, Loop, SumBound
from .involution import MODELS
from .symalg import LinearForm, MultiPoly, RationalFunction
from .wzengine import WZProblem

KEYWORDS = {"term", "cert", "sum", "recurrence", "check", "for",
            "binom", "pow", "sign", "floor2", "erratum", "base", "as"}
#: each check kind and the names its target may take in a document
CHECK_KINDS = {"oracle": lambda doc: doc.sums,
               "verify": lambda doc: doc.recurrences,
               "involution": lambda doc: MODELS,
               "lemma": lambda doc: LEMMAS}
MODES = ("literal", "corrected")
#: largest ``^`` exponent, which is expanded while parsing; largest
#: coefficient or constant of a pow exponent in a closed form's parts; and
#: largest |coefficient| of a term's pow exponents and binomial arguments
#: and of a sum call's bounds
MAX_EXPONENT = 64
#: largest |constant| of a term's pow exponents and binomial arguments and
#: of a sum call's bounds.  With the coefficients bounded by
#: ``MAX_EXPONENT`` it bounds every power and binomial a summand makes, and
#: every loop, at a bounded point, so one spec cannot make a single n
#: arbitrarily costly
MAX_CONSTANT = 100_000
#: binary operators by binding level, loosest first; each level is left-associative
_BINARY_OPS = (("+", "-"), ("*", "/"))


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# lexer


#: ``kind`` is NAME, INT, STRING, SYM or EOF.  Like every record of this
#: module (an AST node, a definition), a token is a named tuple (see the
#: package docstring); equality is a tuple's, which no two kinds here share
#: by accident, as their fields differ in number or in type
Token = namedtuple("Token", ("kind", "text", "line", "col"))


#: the token table of the module docstring.  ``\w`` is ``str.isalnum`` or
#: ``_``, which admits a digit such as ``²`` that cannot start a NAME,
#: so ``tokenize`` checks a NAME's first character
_TOKENS = (
    ("SKIP", r"[ \t\r]+|#[^\n]*"),
    ("NEWLINE", r"\n"),
    ("INT", r"[0-9]+"),
    ("STRING", r'"[^"\n]*"'),
    ("NAME", r"\w+"),
    ("SYM", r":=|==|>=|[()\[\],+\-*/^]"),
)
_TOKEN = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _TOKENS))


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    line, line_start, i = 1, 0, 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        col = i - line_start + 1
        if m is None:
            if text[i] == '"':
                raise ParseError("unterminated string", line, col)
            raise ParseError(f"unexpected character {text[i]!r}", line, col)
        kind, word = m.lastgroup, m.group()
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind == "NAME" and not (word[0].isalpha() or word[0] == "_"):
            raise ParseError(f"unexpected character {word[0]!r}", line, col)
        elif kind == "INT":
            try:
                int(word)
            except ValueError:  # past the interpreter's digit limit
                raise ParseError("integer literal too long", line, col) from None
        if kind not in ("SKIP", "NEWLINE"):
            out.append(Token(kind, word[1:-1] if kind == "STRING" else word, line, col))
        i = m.end()
    out.append(Token("EOF", "", line, i - line_start + 1))
    return out


# ---------------------------------------------------------------------------
# expression AST


ENum = namedtuple("ENum", ("value", "line", "col"))
EVar = namedtuple("EVar", ("name", "line", "col"))
ENeg = namedtuple("ENeg", ("arg", "line", "col"))
EBin = namedtuple("EBin", ("op", "left", "right", "line", "col"))
ECall = namedtuple("ECall", ("func", "args", "line", "col"))


# ---------------------------------------------------------------------------
# definitions and documents


TermDef = namedtuple("TermDef", ("name", "params", "term"))
CertDef = namedtuple("CertDef", ("name", "params", "rf"))
#: ``case`` carries the errata; ``aliases`` are the ``as`` clauses, each a
#: (public id, mode or None for both)
SumDef = namedtuple("SumDef", ("name", "case", "term_name", "aliases"), defaults=((),))
#: ``problem`` carries the errata and the base case
RecurrenceDef = namedtuple("RecurrenceDef",
                           ("name", "problem", "term_name", "cert_name", "aliases"),
                           defaults=((),))
#: ``range`` is (lo, hi) or None
CheckDef = namedtuple("CheckDef", ("kind", "target", "range"))


class SpecDocument:
    """Definitions in document order; equal documents have equal definitions.

    The indexes by name, and the list of checks, are filled by ``add``.
    """

    def __init__(self):
        self.definitions: list = []
        self.terms: dict[str, TermDef] = {}
        self.certs: dict[str, CertDef] = {}
        self.sums: dict[str, SumDef] = {}
        self.recurrences: dict[str, RecurrenceDef] = {}
        self.checks: list[CheckDef] = []

    def __eq__(self, other):
        if type(other) is not SpecDocument:
            return NotImplemented
        return self.definitions == other.definitions

    def names(self) -> set[str]:
        return (set(self.terms) | set(self.certs) | set(self.sums)
                | set(self.recurrences))

    def add(self, d) -> None:
        self.definitions.append(d)
        if isinstance(d, CheckDef):
            self.checks.append(d)
            return
        index = {TermDef: self.terms, CertDef: self.certs, SumDef: self.sums,
                 RecurrenceDef: self.recurrences}[type(d)]
        index[d.name] = d


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            found = t.text if t.kind != "EOF" else "end of input"
            raise ParseError(f"expected {want!r}, found {found!r}", t.line, t.col)
        return self.advance()

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        t = self.peek()
        if t.kind == kind and (text is None or t.text == text):
            return self.advance()
        return None

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        t = tok or self.peek()
        return ParseError(message, t.line, t.col)

    def check_form(self, form: LinearForm, what: str, tok: Token) -> None:
        """Refuse ``form`` past ``MAX_EXPONENT`` or ``MAX_CONSTANT``, at ``tok``."""
        if any(abs(c) > MAX_EXPONENT for _, c in form.coeffs):
            raise self.error(f"{what} coefficient above {MAX_EXPONENT}", tok)
        if abs(form.const) > MAX_CONSTANT:
            raise self.error(f"{what} constant above {MAX_CONSTANT}", tok)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, level: int = 0):
        """Operands joined by the operators of ``_BINARY_OPS[level]``, left to right."""
        if level == len(_BINARY_OPS):
            return self.parse_unary()
        node = self.parse_expr(level + 1)
        while (t := self.peek()).kind == "SYM" and t.text in _BINARY_OPS[level]:
            self.advance()
            node = EBin(t.text, node, self.parse_expr(level + 1), t.line, t.col)
        return node

    def parse_unary(self):
        t = self.peek()
        if self.accept("SYM", "-"):
            return ENeg(self.parse_unary(), t.line, t.col)
        node = self.parse_atom()
        t = self.peek()
        if self.accept("SYM", "^"):
            e = self.expect("INT")
            if int(e.text) > MAX_EXPONENT:
                raise self.error(f"exponent above {MAX_EXPONENT}", e)
            return EBin("^", node, ENum(int(e.text), e.line, e.col), t.line, t.col)
        return node

    def parse_atom(self):
        t = self.peek()
        if t.kind == "INT":
            self.advance()
            return ENum(int(t.text), t.line, t.col)
        if t.kind == "NAME":
            if t.text in ("binom", "pow", "sign", "floor2"):
                self.advance()
                self.expect("SYM", "(")
                args = self._comma_list(self.parse_expr)
                self.expect("SYM", ")")
                return ECall(t.text, tuple(args), t.line, t.col)
            self.advance()
            return EVar(t.text, t.line, t.col)
        if t.kind == "SYM" and t.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect("SYM", ")")
            return node
        found = t.text if t.kind != "EOF" else "end of input"
        raise self.error(f"expected an expression, found {found!r}")

    def _comma_list(self, item) -> list:
        """``item { "," item }``."""
        out = [item()]
        while self.accept("SYM", ","):
            out.append(item())
        return out

    def parse_signed_int(self) -> int:
        neg = self.accept("SYM", "-") is not None
        t = self.expect("INT")
        return -int(t.text) if neg else int(t.text)

    # -- statements ---------------------------------------------------------

    def parse_document(self) -> SpecDocument:
        doc = SpecDocument()
        statements = {"term": self.parse_term_def, "cert": self.parse_cert_def,
                      "sum": self.parse_sum_def,
                      "recurrence": self.parse_recurrence_def,
                      "check": self.parse_check_def}
        while self.peek().kind != "EOF":
            t = self.peek()
            if t.kind != "NAME":
                raise self.error(f"expected a statement keyword, found {t.text!r}")
            if t.text not in statements:
                raise self.error(
                    f"expected term/cert/sum/recurrence/check, found {t.text!r}")
            try:
                doc.add(statements[t.text](doc))
            except RecursionError:
                raise self.error("statement nested too deeply", t) from None
        return doc

    def _def_name(self, doc: SpecDocument) -> Token:
        t = self.expect("NAME")
        if t.text in KEYWORDS:
            raise self.error(f"{t.text!r} is a reserved word", t)
        if t.text in doc.names():
            raise self.error(f"duplicate definition of {t.text!r}", t)
        return t

    def _clauses(self, with_base: bool):
        """Trailing clauses: (errata, aliases, base case or None)."""
        errata: list[str] = []
        aliases: list[tuple[str, str | None]] = []
        base = None
        while True:
            t = self.peek()
            if t.kind != "NAME":
                break
            if t.text == "erratum":
                self.advance()
                errata.append(self.expect("STRING").text)
            elif t.text == "as":
                self.advance()
                ident = self.expect("NAME")
                if ident.text in KEYWORDS:
                    raise self.error(f"{ident.text!r} is a reserved word", ident)
                mode = None
                if self.peek().kind == "NAME" and self.peek().text in MODES:
                    mode = self.advance().text
                aliases.append((ident.text, mode))
            elif t.text == "base":
                if not with_base:
                    raise self.error("a base case belongs to a recurrence")
                if base is not None:
                    raise self.error("second base clause")
                self.advance()
                n0 = self.parse_signed_int()
                self.expect("SYM", "==")
                base = (n0, Fraction(self.parse_signed_int()))
            else:
                break
        return tuple(errata), tuple(aliases), base

    def _params(self) -> tuple[str, ...]:
        self.expect("SYM", "(")
        params = self._comma_list(lambda: self.expect("NAME").text)
        self.expect("SYM", ")")
        if len(set(params)) != len(params):
            raise self.error("duplicate parameter name")
        return tuple(params)

    def parse_term_def(self, doc: SpecDocument) -> TermDef:
        self.expect("NAME", "term")
        name = self._def_name(doc)
        params = self._params()
        self.expect("SYM", ":=")
        start = self.peek()
        parts = _fold(self.parse_expr(), params)
        if len(parts) != 1:
            raise self.error(
                f"a term must fold to one product, got {len(parts)} parts", start)
        for _, e in parts[0].powers:
            self.check_form(e, f"term {name.text}: pow exponent", start)
        for top, bottom in parts[0].binomials:
            self.check_form(top, f"term {name.text}: binomial top", start)
            self.check_form(bottom, f"term {name.text}: binomial bottom", start)
        return TermDef(name.text, params, parts[0])

    def parse_cert_def(self, doc: SpecDocument) -> CertDef:
        self.expect("NAME", "cert")
        name = self._def_name(doc)
        params = self._params()
        self.expect("SYM", ":=")
        rf = _to_rf(self.parse_expr(), set(params))
        return CertDef(name.text, params, rf)

    def _parse_bound(self, what: str) -> SumBound:
        """A bound, checked by ``check_form`` at its first token."""
        t = self.peek()
        if t.kind == "NAME" and t.text == "floor2":
            self.advance()
            self.expect("SYM", "(")
            bound = SumBound("floored-half", _to_linear(self.parse_expr(), self._bound_vars))
            self.expect("SYM", ")")
        else:
            bound = SumBound("affine", _to_linear(self.parse_expr(), self._bound_vars))
        self.check_form(bound.form, what, t)
        return bound

    def _parse_sum_call(self, name: str) -> tuple[str, SumBound, SumBound, str, Token]:
        self.expect("NAME", "sum")
        self.expect("SYM", "(")
        var = self.expect("NAME").text
        self.expect("SYM", ",")
        lower = self._parse_bound(f"sum {name}: lower bound")
        self.expect("SYM", ",")
        upper = self._parse_bound(f"sum {name}: upper bound")
        self.expect("SYM", ",")
        ref = self.expect("NAME")
        self.expect("SYM", ")")
        # the loop variable scopes over any *inner* call's bounds, not its own
        self._bound_vars.add(var)
        return var, lower, upper, ref.text, ref

    def _closed_form(self, param: str) -> tuple[HyperTerm, ...]:
        """The fold of a closed form, its parts checked at its first token."""
        start = self.peek()
        parts = _fold(self.parse_expr(), (param,))
        for part in parts:
            exps = [(e.coeff(param), e.const) for _, e in part.powers]
            if part.binomials:
                raise self.error("binom is not allowed in a closed form", start)
            if not part.prefactor.den.is_const():
                raise self.error("closed forms may only be divided by constants", start)
            if any(a < 0 for a, _ in exps):
                raise self.error(
                    "pow exponent must be nondecreasing in the parameter", start)
            if any(max(a, abs(b)) > MAX_EXPONENT for a, b in exps):
                raise self.error(
                    f"pow exponent coefficient above {MAX_EXPONENT}", start)
        return parts

    def parse_sum_def(self, doc: SpecDocument) -> SumDef:
        self.expect("NAME", "sum")
        name = self._def_name(doc)
        self.expect("SYM", "(")
        param = self.expect("NAME").text
        self.expect("SYM", ")")
        self.expect("SYM", ":=")
        self._bound_vars = {param}
        calls = [self._parse_sum_call(name.text)]
        if self.peek().kind == "NAME" and self.peek().text == "sum":
            calls.append(self._parse_sum_call(name.text))
        self.expect("SYM", "==")
        rhs = self._closed_form(param)
        valid_from = 0
        if self.accept("NAME", "for"):
            pt = self.expect("NAME")
            if pt.text != param:
                raise self.error(f"range variable must be {param!r}", pt)
            self.expect("SYM", ">=")
            valid_from = self.parse_signed_int()
        term_name, ref_tok = calls[0][3], calls[0][4]
        for c in calls[1:]:
            if c[3] != term_name:
                raise self.error("nested sum calls must name the same term", c[4])
        if term_name not in doc.terms:
            raise self.error(f"undefined term {term_name!r}", ref_tok)
        tdef = doc.terms[term_name]
        loop_vars = [c[0] for c in calls]
        expected = {param, *loop_vars}
        if set(tdef.params) != expected:
            raise self.error(
                f"term {term_name!r} has parameters {tdef.params}, "
                f"expected {tuple(sorted(expected))}", ref_tok)
        errata, aliases, _ = self._clauses(with_base=False)
        loops = tuple(Loop(c[0], c[1], c[2]) for c in calls)
        case = IdentityCase(
            case_id=name.text, param=param, loops=loops,
            summand=tdef.term, rhs=rhs, valid_from=valid_from, errata=errata)
        return SumDef(name.text, case, term_name, aliases)

    def parse_recurrence_def(self, doc: SpecDocument) -> RecurrenceDef:
        self.expect("NAME", "recurrence")
        name = self._def_name(doc)
        self.expect("SYM", "(")
        shift_var = self.expect("NAME").text
        self.expect("SYM", ",")
        sum_var = self.expect("NAME").text
        self.expect("SYM", ")")
        self.expect("SYM", ":=")
        self.expect("SYM", "[")
        coeffs = self._comma_list(lambda: _to_rf(self.parse_expr(), {shift_var}))
        self.expect("SYM", "]")
        self.expect("SYM", "*")
        term_tok = self.expect("NAME")
        if term_tok.text not in doc.terms:
            raise self.error(f"undefined term {term_tok.text!r}", term_tok)
        self.expect("NAME", "cert")
        cert_tok = self.expect("NAME")
        if cert_tok.text not in doc.certs:
            raise self.error(f"undefined cert {cert_tok.text!r}", cert_tok)
        term = doc.terms[term_tok.text].term
        for v in (shift_var, sum_var):
            if v not in term.variables:
                raise self.error(
                    f"term {term_tok.text!r} has no parameter {v!r}", term_tok)
        errata, aliases, base = self._clauses(with_base=True)
        problem = WZProblem(
            problem_id=name.text, term=term, shift_var=shift_var,
            sum_var=sum_var, coeffs=tuple(coeffs),
            certificate=doc.certs[cert_tok.text].rf, base_case=base,
            errata=errata)
        return RecurrenceDef(name.text, problem, term_tok.text, cert_tok.text,
                             aliases)

    def parse_check_def(self, doc: SpecDocument) -> CheckDef:
        self.expect("NAME", "check")
        kind_tok = self.expect("NAME")
        kind = kind_tok.text
        if kind not in CHECK_KINDS:
            raise self.error(
                f"unknown check kind {kind!r} (expected one of "
                f"{sorted(CHECK_KINDS)})", kind_tok)
        target_tok = self.expect("NAME")
        target = target_tok.text
        if target not in CHECK_KINDS[kind](doc):
            raise self.error(
                f"{kind} check names unknown target {target!r}", target_tok)
        rng = None
        if self.accept("SYM", "["):
            lo = self.parse_signed_int()
            self.expect("SYM", ",")
            hi = self.parse_signed_int()
            self.expect("SYM", "]")
            rng = (lo, hi)
        return CheckDef(kind, target, rng)


# ---------------------------------------------------------------------------
# evaluators: rational expressions, affine arguments, and the fold into terms

_ONE = MultiPoly.const(1)


def _times(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    return b if a is _ONE else a if b is _ONE else a * b


def _to_rf(node, params: set[str]) -> RationalFunction:
    """A call-free expression as a ``RationalFunction``, normalized once."""
    return RationalFunction(*_rf_pair(node, params))


def _rf_pair(node, params: set[str]) -> tuple[MultiPoly, MultiPoly]:
    """(numerator, denominator) of a call-free expression, not normalized.

    Each pair is a constant multiple of the pair that normalizing every
    step would give, and a zero numerator has denominator 1, so the one
    ``RationalFunction`` built from it is the same.
    """
    if isinstance(node, ENum):
        return MultiPoly.const(node.value), _ONE
    if isinstance(node, EVar):
        if node.name not in params:
            raise ParseError(f"undefined name {node.name!r}", node.line, node.col)
        return MultiPoly.var(node.name), _ONE
    if isinstance(node, ENeg):
        num, den = _rf_pair(node.arg, params)
        return -num, den
    if isinstance(node, EBin):
        num, den = _rf_pair(node.left, params)
        if node.op == "^":
            return num**node.right.value, den**node.right.value
        rnum, rden = _rf_pair(node.right, params)
        if node.op == "*":
            num, den = _times(num, rnum), _times(den, rden)
        elif node.op == "/":
            if rnum.is_zero():
                raise ParseError("division by zero", node.line, node.col)
            num, den = _times(num, rden), _times(den, rnum)
        else:
            if node.op == "-":
                rnum = -rnum
            num, den = _times(num, rden) + _times(rnum, den), _times(den, rden)
        return (num, _ONE) if num.is_zero() else (num, den)
    raise ParseError(f"{node.func} is not allowed in a rational expression",
                     node.line, node.col)


def _to_linear(node, params: set[str]) -> LinearForm:
    if isinstance(node, ENum):
        return LinearForm.const_form(node.value)
    if isinstance(node, EVar):
        if node.name not in params:
            raise ParseError(f"undefined name {node.name!r}", node.line, node.col)
        return LinearForm.var(node.name)
    if isinstance(node, ENeg):
        return -_to_linear(node.arg, params)
    if isinstance(node, EBin):
        if node.op in ("+", "-"):
            lhs = _to_linear(node.left, params)
            rhs = _to_linear(node.right, params)
            return lhs + rhs if node.op == "+" else lhs - rhs
        if node.op == "*":
            lhs = _to_linear(node.left, params)
            rhs = _to_linear(node.right, params)
            if lhs.is_const():
                return rhs.scaled(lhs.const)
            if rhs.is_const():
                return lhs.scaled(rhs.const)
            raise ParseError("argument must be affine with integer coefficients",
                             node.line, node.col)
    raise ParseError("argument must be affine with integer coefficients",
                     node.line, node.col)


def _has_call(node) -> bool:
    if isinstance(node, EBin):
        return _has_call(node.left) or _has_call(node.right)
    if isinstance(node, ENeg):
        return _has_call(node.arg)
    return isinstance(node, ECall)


def _factor(node: ECall, params: tuple[str, ...]) -> HyperTerm:
    """A ``binom``, ``pow`` or ``sign`` call as a term."""
    names, args = set(params), node.args
    if node.func == "binom":
        if len(args) != 2:
            raise ParseError("binom takes two arguments", node.line, node.col)
        return HyperTerm.build(params, binomials=(
            (_to_linear(args[0], names), _to_linear(args[1], names)),))
    if node.func == "pow":
        if len(args) != 2 or not isinstance(args[0], ENum):
            raise ParseError("pow needs an integer base and an affine exponent",
                             node.line, node.col)
        if args[0].value < 2:
            raise ParseError("pow base must be >= 2", node.line, node.col)
        factor = HyperTerm.build(params, powers=((args[0].value,
                                                  _to_linear(args[1], names)),))
    elif node.func == "sign":
        if len(args) != 1:
            raise ParseError("sign takes one argument", node.line, node.col)
        factor = HyperTerm.build(params, sign_exp=_to_linear(args[0], names))
    else:
        raise ParseError(f"unknown factor {node.func!r}", node.line, node.col)
    return HyperTerm.build(params) * factor  # the product is in canonical form


def _collect(parts) -> tuple[HyperTerm, ...]:
    """Add the parts that differ only in their prefactor; drop zero parts."""
    sums: dict[tuple, HyperTerm] = {}
    for p in parts:
        key = (p.sign_exp, p.powers, p.binomials)
        q = sums.get(key)
        sums[key] = p if q is None else q._replace(prefactor=q.prefactor + p.prefactor)
    return tuple(p for p in sums.values() if not p.prefactor.is_zero())


def _products(lhs, rhs) -> tuple[HyperTerm, ...]:
    return _collect([a * b for a in lhs for b in rhs])


def _fold(node, params: tuple[str, ...]) -> tuple[HyperTerm, ...]:
    """An expression as a sum of ``HyperTerm``s in ``params``.

    ``*`` distributes over ``+``, products are ``HyperTerm.__mul__``, and
    ``_collect`` adds like parts.  A subtree without a call goes through
    ``_to_rf`` whole; a divisor must be call-free.
    """
    if not _has_call(node):
        rf = _to_rf(node, set(params))
        return () if rf.is_zero() else (HyperTerm.build(params, prefactor=rf),)
    if isinstance(node, ECall):
        return (_factor(node, params),)
    if isinstance(node, ENeg):
        return tuple(p.absorb(RationalFunction.const(-1)) for p in _fold(node.arg, params))
    lhs = _fold(node.left, params)
    if node.op == "^":
        out = (HyperTerm.build(params),)
        for _ in range(node.right.value):
            out = _products(out, lhs)
        return out
    if node.op == "/":
        num, den = _rf_pair(node.right, set(params))
        if num.is_zero():
            raise ParseError("division by zero", node.line, node.col)
        return tuple(p.absorb(RationalFunction(den, num)) for p in lhs)
    rhs = _fold(node.right, params)
    if node.op == "*":
        return _products(lhs, rhs)
    if node.op == "-":
        rhs = tuple(p.absorb(RationalFunction.const(-1)) for p in rhs)
    return _collect(lhs + rhs)


# ---------------------------------------------------------------------------
# public surface


def parse_document(text: str) -> SpecDocument:
    """Parse a spec document; raises ParseError with line/column on failure."""
    return _Parser(text).parse_document()


parse_spec = parse_document


def _rf_str(rf: RationalFunction) -> str:
    if rf.den == MultiPoly.const(1):
        return f"({rf.num})"
    return f"({rf.num}) / ({rf.den})"


def _bound_str(b: SumBound) -> str:
    if b.kind == "floored-half":
        return f"floor2({b.form})"
    return str(b.form)


def _clauses_str(errata, base, aliases) -> str:
    out = [f'erratum "{e}"' for e in errata]
    if base is not None:
        out.append(f"base {base[0]} == {base[1]}")
    out += [f"as {ident} {mode}" if mode else f"as {ident}" for ident, mode in aliases]
    return "".join(f"\n    {c}" for c in out)


def print_document(doc: SpecDocument) -> str:
    """Canonical text whose re-parse equals the document."""
    lines = []
    for d in doc.definitions:
        if isinstance(d, TermDef):
            lines.append(f"term {d.name}({', '.join(d.params)}) := {d.term}")
        elif isinstance(d, CertDef):
            lines.append(f"cert {d.name}({', '.join(d.params)}) := {_rf_str(d.rf)}")
        elif isinstance(d, SumDef):
            case = d.case
            calls = " ".join(
                f"sum({lp.var}, {_bound_str(lp.lower)}, {_bound_str(lp.upper)}, "
                f"{d.term_name})" for lp in case.loops)
            lines.append(
                f"sum {d.name}({case.param}) := {calls} == "
                f"{' + '.join(map(str, case.rhs)) or '(0)'} "
                f"for {case.param} >= {case.valid_from}"
                + _clauses_str(case.errata, None, d.aliases))
        elif isinstance(d, RecurrenceDef):
            p = d.problem
            coeffs = ", ".join(_rf_str(c) for c in p.coeffs)
            lines.append(
                f"recurrence {d.name}({p.shift_var}, {p.sum_var}) := "
                f"[{coeffs}] * {d.term_name} cert {d.cert_name}"
                + _clauses_str(p.errata, p.base_case, d.aliases))
        elif isinstance(d, CheckDef):
            rng = f" [{d.range[0]}, {d.range[1]}]" if d.range else ""
            lines.append(f"check {d.kind} {d.target}{rng}")
    return "\n".join(lines) + "\n"
