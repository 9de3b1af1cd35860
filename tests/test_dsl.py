import dataclasses
import pickle
from fractions import Fraction
from operator import add, mul, sub, truediv

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wzkit.dsl import (ECall, ENeg, ENum, EVar, ParseError, SpecDocument, Token,
                       _fold, _Parser, parse_document, parse_spec,
                       print_document, tokenize)
from wzkit.hyperterm import HyperTerm
from wzkit.identities import registry
from wzkit.symalg import LinearForm, MultiPoly, RationalFunction, rf_equal


def test_parse_term_thm2_style():
    doc = parse_document(
        "term F2(n, k) := binom(n+k+1, 2*k) * pow(2, 2*k) * sign(k+n+1) / (2*n+3)\n")
    term = doc.terms["F2"].term
    assert term.binomials == ((LinearForm.make({"n": 1, "k": 1}, 1),
                               LinearForm.make({"k": 2})),)
    assert term.powers == ((2, LinearForm.make({"k": 2})),)
    assert term.sign_exp == LinearForm.make({"k": 1, "n": 1}, 1)
    assert rf_equal(term.prefactor,
                    RationalFunction(MultiPoly.const(1),
                                     LinearForm.make({"n": 2}, 3).to_poly()))
    assert term.eval({"n": 1, "k": 1}) == Fraction(-12, 5)


def test_parse_cert():
    doc = parse_document(
        "cert R2(n, k) := (2*k*(2*k-1)) / ((n+2-k)*(2*n+5))\n")
    r = doc.certs["R2"].rf
    assert r.eval({"n": 1, "k": 2}) == Fraction(12, 7)


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_document("term X( := 1\n")
    assert err.value.line == 1
    assert err.value.col == 9  # the ':=' where a parameter name was expected


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as err:
        parse_document("term A(n) := binom(n, 1)\nterm B(n) := pow(1, n)\n")
    assert err.value.line == 2  # pow base must be >= 2


def test_undefined_reference():
    with pytest.raises(ParseError) as err:
        parse_document("sum s(n) := sum(k, 0, n, NOPE) == n for n >= 0\n")
    assert "NOPE" in str(err.value)


def test_duplicate_definition():
    text = "term A(n) := (n)\nterm A(n) := (n + 1)\n"
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert "duplicate" in str(err.value)


def test_arity_mismatch():
    text = ("term A(n, k, m) := binom(n + k, m)\n"
            "sum s(n) := sum(k, 0, n, A) == n for n >= 0\n")
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert "parameters" in str(err.value)


def test_nested_sum_and_floor2():
    text = ("term T(n, k, m) := sign(m + k + n + 1) * binom(n + k + 1, m) * pow(2, m - 1)\n"
            "sum s(n) := sum(m, 2, 2*n, T) sum(k, 0, floor2(m - 2), T) "
            "== n^2 + n for n >= 1\n")
    case = parse_document(text).sums["s"].case
    assert [lp.var for lp in case.loops] == ["m", "k"]
    assert case.loops[1].upper.kind == "floored-half"
    assert case.valid_from == 1


def test_nested_sum_requires_same_summand():
    text = ("term T(n, k, m) := binom(n + k, m)\n"
            "term U(n, k, m) := binom(n + k, m)\n"
            "sum s(n) := sum(k, 0, n, T) sum(m, 0, n, U) == n for n >= 0\n")
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert "same term" in str(err.value)


def test_recurrence_coeffs_only_shift_var():
    text = ("term F(n, k) := binom(n + k, k)\n"
            "cert R(n, k) := k / (n + 1)\n"
            "recurrence w(n, k) := [-1, k] * F cert R\n")
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert "k" in str(err.value)


def test_check_statement_target_resolution():
    with pytest.raises(ParseError):
        parse_document("check oracle missing [0, 5]\n")
    with pytest.raises(ParseError):
        parse_document("check lemma not_a_lemma [0, 5]\n")
    doc = parse_document("check lemma boundary_gap [1, 100]\n")
    assert doc.checks[0].range == (1, 100)


def test_closed_form_with_pow_and_sign():
    text = ("term T(n, m) := binom(n + 1, m)\n"
            "sum s(n) := sum(m, 0, n, T) == 1/2 + (1/2)*sign(n) - (n + 1)*sign(n)"
            " + 3*pow(4, n) for n >= 0\n")
    case = parse_document(text).sums["s"].case
    for n in range(0, 8):
        expected = (Fraction(1, 2) + Fraction(1, 2) * (-1) ** n
                    - (n + 1) * (-1) ** n + 3 * 4**n)
        assert case.rhs_value(n) == expected


def test_closed_form_affine_pow_exponent():
    # pow(2, 2n+1) folds to one part whose canonical power is 2^(2n+1)
    text = ("term T(n, m) := binom(n, m)\n"
            "sum s(n) := sum(m, 0, n, T) == pow(2, 2*n + 1) for n >= 0\n")
    case = parse_document(text).sums["s"].case
    (part,) = case.rhs
    assert part.powers == ((2, LinearForm.make({"n": 2}, 1)),)
    assert part.sign_exp == LinearForm.make() and not part.binomials
    assert rf_equal(part.prefactor, RationalFunction.const(1))
    for n in range(0, 11):
        assert part.eval({"n": n}) == case.rhs_value(n) == 2 ** (2 * n + 1)


def test_unknown_statement_keyword():
    with pytest.raises(ParseError) as err:
        parse_document("frobnicate x := 1\n")
    assert err.value.line == 1 and err.value.col == 1


def test_parse_spec_alias():
    assert isinstance(parse_spec("term A(n) := (n)\n"), SpecDocument)


# ---------------------------------------------------------------------------
# round-trip idempotence on the bundled files


def _bundled_texts():
    from importlib.resources import files
    data = files("wzkit").joinpath("data")
    return {e.name: e.read_text() for e in data.iterdir()
            if e.name.endswith(".wz")}


@pytest.mark.parametrize("name", sorted(_bundled_texts()))
def test_roundtrip_idempotence(name):
    text = _bundled_texts()[name]
    doc = parse_document(text)
    printed = print_document(doc)
    reparsed = parse_document(printed)
    assert reparsed == doc
    # and printing is a fixpoint from here on
    assert print_document(reparsed) == printed


def _variants(record):
    """``record`` with one field changed, for each field of it and of its nested records."""
    for name, value in zip(record._fields, record):
        yield record._replace(**{name: object()})
        if hasattr(value, "_fields"):
            yield from (record._replace(**{name: v}) for v in _variants(value))


@pytest.mark.parametrize("name", sorted(_bundled_texts()))
def test_bundled_parses_are_equal_until_one_definition_changes(name):
    text = _bundled_texts()[name]
    doc, other = parse_document(text), parse_document(text)
    assert doc == other
    for i, d in enumerate(doc.definitions):
        for changed in _variants(d):
            other.definitions[i] = changed
            assert doc != other, changed
        other.definitions[i] = d
    assert doc == other


def test_records_are_named_tuples():
    # a frozen dataclass takes several times as long as a named tuple to
    # define, and wzkit defines every one of these classes at each start
    # (see the wzkit package docstring)
    import importlib
    import pkgutil

    import wzkit
    from wzkit import dsl, hyperterm, identities, involution, reports, wzengine

    records = [getattr(dsl, n) for n in ("Token", "ENum", "EVar", "ENeg", "EBin", "ECall",
                                         "TermDef", "CertDef", "SumDef", "RecurrenceDef",
                                         "CheckDef")]
    records += [identities.SumBound, identities.Loop, identities.IdentityCase,
                identities.Registry, hyperterm.SupportBound, wzengine.WZProblem,
                wzengine.CertCheck, wzengine.ProofReport, involution.WordModel,
                reports.Failure, reports.Report]
    for cls in records:
        assert not dataclasses.is_dataclass(cls) and issubclass(cls, tuple), cls
    # a term and a form are slotted plain classes: no tuple operator applies to them
    for value in (LinearForm.make({"n": 1}), HyperTerm.build(("n",))):
        assert not isinstance(value, tuple) and not hasattr(value, "__dict__"), value
    # nor is any other class of a wzkit module a dataclass
    modules = [importlib.import_module(f"wzkit.{m.name}")
               for m in pkgutil.iter_modules(wzkit.__path__)]
    assert len(modules) == 10
    classes = [c for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__ == m.__name__]
    assert {involution.InvolutionReport, SpecDocument} <= set(classes)
    for cls in classes:
        assert not dataclasses.is_dataclass(cls), cls


def test_records_add_no_tuple_arithmetic():
    # a named tuple would repeat, join, order or unpack as a tuple where a
    # term or form has no meaning
    form = LinearForm.make({"n": 1}, 2)
    term = HyperTerm.build(("n",), powers=((2, form),))
    for op in (lambda: form * 2, lambda: 2 * form, lambda: 2 * term,
               lambda: term + term, lambda: term + (1,), lambda: (1,) + term,
               lambda: form < form, lambda: term < term, lambda: len(form),
               lambda: len(term), lambda: iter(form), lambda: iter(term)):
        with pytest.raises(TypeError):
            op()
    for value in (form, term):
        with pytest.raises(AttributeError):
            value.variables = ()
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and repr(copy) == repr(value)
    assert hash(pickle.loads(pickle.dumps(form))) == hash(form)
    assert form == LinearForm(form.coeffs, form.const) and form != (form.coeffs, form.const)
    assert form + form == LinearForm.make({"n": 2}, 4)
    assert term * term == HyperTerm.build(("n",), powers=((2, form.scaled(2)),))
    assert term._replace(variables=("n", "k")).variables == ("n", "k")


def _lf(const=0, **coeffs):
    return LinearForm.make(coeffs, const)


_forms = st.builds(lambda c, n, k, m: _lf(c, n=n, k=k, m=m), st.integers(-5, 5),
                   st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2))
_nonzero_polys = st.lists(st.tuples(_forms, st.integers(0, 2)), min_size=1, max_size=2).map(
    lambda fs: sum((f.to_poly() ** e for f, e in fs), MultiPoly.zero())).filter(
    lambda p: not p.is_zero())
_terms = st.builds(
    lambda sign, powers, binomials, num, den: HyperTerm.build(
        ("n", "k", "m"), sign_exp=sign, powers=powers, binomials=binomials,
        prefactor=RationalFunction(num, den)),
    _forms,
    st.lists(st.tuples(st.integers(2, 5), _forms), max_size=3),
    st.lists(st.tuples(_forms, _forms), max_size=3),
    _nonzero_polys, _nonzero_polys)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_terms)
def test_term_str_reparses_to_an_equal_term(term):
    # str(term) is DSL syntax; the parser returns the canonical product form
    doc = parse_document(f"term T(n, k, m) := {term}\n")
    parsed = doc.terms["T"].term
    canonical = HyperTerm.build(term.variables) * term
    assert parsed == canonical
    assert str(parsed) == str(canonical)


def test_registry_term_str_is_its_definition():
    for _, doc in registry().documents:
        for d in doc.terms.values():
            text = f"term {d.name}({', '.join(d.params)}) := {d.term}\n"
            assert parse_document(text).terms[d.name] == d


def test_registry_bundles_parse():
    reg = registry()
    assert len(reg.documents) >= 5
    assert "thm1" in reg.cases and "wz_thm2" in reg.problems


# ---------------------------------------------------------------------------
# trailing clauses: erratum, base, as


_PAIR = ("term F(n, k) := binom(n + k, k) * pow(2, k) / (n + 1)\n"
         "cert R(n, k) := k / (n + 1)\n")


def test_clauses_land_in_the_problem_and_the_case():
    doc = parse_document(
        _PAIR + "recurrence w(n, k) := [-1, 1] * F cert R\n"
        '  as pub  erratum "first: (-1)^(n+1) # not a comment"  base -1 == -3\n'
        '  erratum ""  as pub2 literal\n'
        "term T(n, k) := binom(n, k)\n"
        'sum s(n) := sum(k, 0, n, T) == pow(2, n) erratum "x" as s2 corrected\n')
    rec = doc.recurrences["w"]
    assert rec.problem.errata == ("first: (-1)^(n+1) # not a comment", "")
    assert rec.problem.base_case == (-1, Fraction(-3))
    assert rec.aliases == (("pub", None), ("pub2", "literal"))
    assert doc.sums["s"].case.errata == ("x",)
    assert doc.sums["s"].aliases == (("s2", "corrected"),)
    printed = print_document(doc)
    assert parse_document(printed) == doc
    assert 'erratum "first: (-1)^(n+1) # not a comment"' in printed


def test_clause_changes_break_document_equality():
    base = _PAIR + "recurrence w(n, k) := [-1, 1] * F cert R"
    docs = [parse_document(base + tail) for tail in (
        "", ' erratum "a"', " base 0 == 1", " base 0 == 2", " as w1",
        " as w1 literal")]
    assert all(a != b for i, a in enumerate(docs) for b in docs[i + 1:])


@pytest.mark.parametrize("text, line, col, words", [
    ('erratum "x"\n', 1, 1, "expected term"),
    (_PAIR + 'recurrence w(n, k) := [1] * F cert R erratum "a\nb"\n', 3, 46,
     "unterminated string"),
    (_PAIR + 'recurrence w(n, k) := [1] * F cert R erratum "open', 3, 46,
     "unterminated string"),
    (_PAIR + "recurrence w(n, k) := [1] * F cert R erratum x\n", 3, 46, "STRING"),
    (_PAIR + "recurrence w(n, k) := [1] * F cert R base 0 == 1 base 1 == 1\n",
     3, 50, "second base"),
    (_PAIR + "recurrence w(n, k) := [1] * F cert R base 0 == 1/2\n", 3, 49,
     "statement keyword"),
    ("term T(n, k) := binom(n, k)\nsum s(n) := sum(k, 0, n, T) == 1 base 0 == 1\n",
     2, 34, "belongs to a recurrence"),
    ("term T(n, k) := binom(n, k)\nsum s(n) := sum(k, 0, n, T) == 1 as sum\n",
     2, 37, "reserved"),
    ("term A(n) := (n)^65\n", 1, 18, "exponent above"),
    ("term A(n) := (n) * \u00b2\n", 1, 20, "unexpected character"),
    ("term A(n) := (n) * " + "9" * 5000 + "\n", 1, 20, "too long"),
    ("term A(n) := " + "(" * 400 + "n" + ")" * 400 + "\n", 1, 1,
     "nested too deeply"),
])
def test_clause_and_guard_errors_carry_positions(text, line, col, words):
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert words in err.value.message


# ---------------------------------------------------------------------------
# fuzzing: any text parses or raises ParseError with a position


_FUZZ_TOKENS = (
    "term", "cert", "sum", "recurrence", "check", "for", "binom", "pow",
    "sign", "floor2", "erratum", "base", "as", "literal", "corrected",
    "oracle", "verify", "involution", "lemma", "n", "k", "m", "T", "R", "w",
    "thm1", "boundary_gap", "0", "1", "2", "12", "99999999999999999999",
    ":=", "==", ">=", "(", ")", "[", "]", ",", "+", "-", "*", "/", "^",
    '"', '"x"', '"a b"', '"no end', '"a\nb"', "\n", " ", "\t", "# c\n",
    "\u00b2", "\u00e9", "@", "'",
)
_FUZZ_DOCS = (
    "term T(n, k) := sign(n + k) * binom(n + k + 1, 2*k + 1) * pow(2, 2*k)\n"
    'sum s(n) := sum(k, 0, n, T) == n + 1 for n >= 0 erratum "e" as thm1 literal\n'
    "check oracle s [0, 5]\ncheck lemma boundary_gap [1, 3]\n",
    _PAIR + 'recurrence w(n, k) := [-1, 1] * F cert R erratum "a b" base 0 == 2\n'
    "  as thm2\ncheck verify w\ncheck involution thm3 [1, 2]\n",
)
_fuzz_atom = st.one_of(st.sampled_from(_FUZZ_TOKENS), st.text(max_size=4))


@st.composite
def _fuzz_text(draw):
    """A well-formed document with a few words inserted, dropped or replaced."""
    base = draw(st.sampled_from(_FUZZ_DOCS + tuple(sorted(_bundled_texts().values()))))
    words = base.split(" ")
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(words)))
        edit = draw(st.sampled_from(("insert", "drop", "replace")))
        if edit == "insert" or at == len(words):
            words.insert(at, draw(_fuzz_atom))
        elif edit == "drop":
            del words[at]
        else:
            words[at] = draw(_fuzz_atom)
    return " ".join(words)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(_fuzz_text(), st.lists(_fuzz_atom, max_size=30).map(" ".join)))
def test_parse_document_fuzz(text):
    try:
        doc = parse_document(text)
    except ParseError as err:
        assert 1 <= err.line <= text.count("\n") + 1
        assert err.col >= 1
    else:
        assert parse_document(print_document(doc)) == doc


# ---------------------------------------------------------------------------
# the fold of closed forms against a reference interpreter of the AST


def _ref(node, n):
    """The value of a closed-form AST at n, straight from its definition."""
    if isinstance(node, ENum):
        return Fraction(node.value)
    if isinstance(node, EVar):
        return Fraction(n)
    if isinstance(node, ENeg):
        return -_ref(node.arg, n)
    if isinstance(node, ECall):
        e = _ref(node.args[-1], n)
        if node.func == "pow":
            return Fraction(node.args[0].value) ** int(e)
        return Fraction(-1 if e % 2 else 1)
    lhs, rhs = _ref(node.left, n), _ref(node.right, n)
    return {"+": add, "-": sub, "*": mul, "/": truediv,
            "^": lambda x, y: x ** int(y)}[node.op](lhs, rhs)


def _int(v):
    return f"({v})" if v < 0 else str(v)


_cf_leaf = st.one_of(
    st.integers(-5, 5).map(_int),
    st.just("n"),
    st.builds(lambda b, a, c: f"pow({b}, {a}*n + {_int(c)})", st.integers(2, 4),
              st.integers(0, 3), st.integers(-3, 3)),
    st.builds(lambda a, c: f"sign({_int(a)}*n + {_int(c)})", st.integers(-3, 3),
              st.integers(-3, 3)))
_cf_expr = st.recursive(_cf_leaf, lambda inner: st.one_of(
    st.builds(lambda x, op, y: f"({x} {op} {y})", inner, st.sampled_from("+-*"), inner),
    st.builds(lambda x, e: f"({x})^{e}", inner, st.integers(0, 4)),
    st.builds(lambda x, d: f"{x} / {_int(d)}", inner,
              st.integers(-4, 4).filter(bool))), max_leaves=8)


def _sum_doc(closed_form):
    return ("term T(n, k) := binom(n, k)\n"
            f"sum s(n) := sum(k, 0, n, T) == {closed_form} for n >= 0\n")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cf_expr)
def test_fold_matches_reference_interpreter(text):
    node = _Parser(text).parse_expr()
    parts = _fold(node, ("n",))
    for n in range(0, 21):
        assert sum((p.eval({"n": n}) for p in parts), Fraction(0)) == _ref(node, n)
    assert len({(p.sign_exp, p.powers) for p in parts}) == len(parts)
    assume(all(max(e.coeff("n"), abs(e.const)) <= 64 for p in parts for _, e in p.powers))
    doc = parse_document(_sum_doc(text))
    assert doc.sums["s"].case.rhs == parts
    assert parse_document(print_document(doc)) == doc


@pytest.mark.parametrize("closed_form, count", [
    ("(pow(2, n) + pow(3, n))^64", 65),
    ("(sign(n) + pow(2, n) + n)^40", 81),
])
def test_powers_of_sums_fold_to_few_parts(closed_form, count):
    doc = parse_document(_sum_doc(closed_form))
    case = doc.sums["s"].case
    assert len(case.rhs) == count
    assert parse_document(print_document(doc)) == doc
    node = _Parser(closed_form).parse_expr()
    for n in (0, 1, 2, 7):
        assert case.rhs_value(n) == _ref(node, n)


# ---------------------------------------------------------------------------
# the token table against the hand-written lexer it replaced


_REF_SYMBOLS = (":=", "==", ">=", "(", ")", "[", "]", ",", "+", "-", "*", "/", "^")


def _ref_tokenize(text: str) -> list[Token]:
    """The character-by-character lexer the token table replaced, kept as the reference."""
    out: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            try:
                int(text[i:j])
            except ValueError:  # past the interpreter's digit limit
                raise ParseError("integer literal too long", line, col) from None
            out.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0 or "\n" in text[i:j]:
                raise ParseError("unterminated string", line, col)
            out.append(Token("STRING", text[i + 1:j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _REF_SYMBOLS:
            if text.startswith(sym, i):
                out.append(Token("SYM", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(Token("EOF", "", line, col))
    return out


def _lex(lexer, text):
    try:
        return lexer(text)
    except ParseError as err:
        return (err.message, err.line, err.col)


def _assert_same_tokens(text):
    got, want = _lex(tokenize, text), _lex(_ref_tokenize, text)
    if isinstance(got, list) and isinstance(want, list) and got[-1] != want[-1]:
        # the reference never advanced the column over a comment, so only
        # the EOF token after a trailing comment may differ: it now sits
        # where the input ends
        last_line = text.rsplit("\n", 1)[-1]
        assert "#" in last_line
        assert got[-1] == Token("EOF", "", want[-1].line, len(last_line) + 1)
        got, want = got[:-1], want[:-1]
    assert got == want


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(_fuzz_text(), st.lists(_fuzz_atom, max_size=30).map(" ".join),
                 st.text(alphabet="ab_1\u00b2\u0663 \t\r\f\u00a0\n#\"()=:>-^", max_size=30)))
def test_token_table_matches_reference_lexer(text):
    _assert_same_tokens(text)


@pytest.mark.parametrize("text", sorted(_bundled_texts().values()) + list(_FUZZ_DOCS)
                         + ["term A(n) := (n) * \u00b2\n", "x\u00b2 _\u0663 1\u0663",
                            "term A(n) := (n) * " + "9" * 5000 + "\n", '"a\nb"', '1 "open'])
def test_token_table_matches_reference_lexer_on_documents(text):
    _assert_same_tokens(text)


def test_eof_after_a_trailing_comment_is_where_the_input_ends():
    text = "term A(n) := # c"
    assert tokenize(text)[-1] == Token("EOF", "", 1, 17)
    assert _ref_tokenize(text)[-1] == Token("EOF", "", 1, 14)
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert (err.value.line, err.value.col) == (1, 17)
    assert "end of input" in err.value.message
