import itertools
import multiprocessing
import pickle
from concurrent.futures import Executor, Future, ProcessPoolExecutor

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wzkit import involution
from wzkit.exactnum import binomial
from wzkit.identities import eval_sum, registry
from wzkit.involution import (ALPHABET, InvolutionReport, SizeLimitError,
                              WordModel, check_involution, enum_words,
                              scan_involution, sigma, weight, word_cost)


def test_weight_examples():
    assert weight("bcb") == 1
    assert weight("ab") == -1
    assert weight("") == 1


def test_scan_involution_examples():
    assert scan_involution("ab") == "bcb"
    assert scan_involution("bcb") == "ab"
    assert scan_involution("ccbb") is None  # member of the fixed set T


def test_scan_involution_first_pattern_wins():
    assert scan_involution("bca") == "aa"     # bc at 0 precedes a at 2
    assert scan_involution("cab") == "cbcb"   # a at 1 is first


def test_scan_is_involution_on_samples():
    for w in ("ab", "bcb", "aabc", "bacbc", "ccab"):
        img = scan_involution(w)
        assert img is not None
        assert scan_involution(img) == w
        assert weight(img) == -weight(w)
        assert word_cost(img) == word_cost(w)


def test_sigma_examples():
    assert sigma("bbbb") == "babbb"   # length 5 leaves the n=2 model
    assert sigma("bcb") == "bacb"
    assert sigma("abb") is None       # fewer than three non-a letters


def test_sigma_run_cases():
    assert sigma("babab") == "bbab"       # p=1, q=1: same parity, p=1 -> shrink
    assert sigma("bbab") == "babab"       # p=0, q=1: opposite, p=0 -> grow
    assert sigma("baabab") == "babab"     # p=2, q=1: opposite, p!=0 -> shrink
    assert sigma("baabaab") == "baaabaab"  # p=2, q=2: same, p!=1 -> grow


# ---------------------------------------------------------------------------
# enumeration


def test_enum_thm1_n1():
    words = list(enum_words(WordModel("thm1", 1)))
    assert len(words) == 12 and len(set(words)) == 12
    by_a = {0: 0, 1: 0}
    for w in words:
        by_a[w.count("a")] += 1
        assert word_cost(w) == 3
    assert by_a == {0: 8, 1: 4}  # binom(n+k+1, 2k+1) 2^(2k+1) at k = 1, 0


def test_enum_thm1_n0():
    assert sorted(enum_words(WordModel("thm1", 0))) == ["b", "c"]
    rep = check_involution(WordModel("thm1", 0))
    assert rep.total_signed_sum == 2  # = 2n+2


def test_enum_thm2_degenerate():
    assert list(enum_words(WordModel("thm2", -1))) == [""]
    rep = check_involution(WordModel("thm2", -1))
    assert rep.fixed_count == 1 and rep.fixed_signed_sum == 1


def test_enum_deterministic_order():
    a = list(enum_words(WordModel("thm2", 2)))
    b = list(enum_words(WordModel("thm2", 2)))
    assert a == b


def test_model_and_report_survive_pickling():
    # what a pool worker receives and sends back
    for model in (WordModel("thm1", 2), WordModel("thm3", 4)):
        assert pickle.loads(pickle.dumps(model)) == model
        rep = check_involution(model)
        back = pickle.loads(pickle.dumps(rep))
        assert back == rep and back is not rep and vars(back) == vars(rep)
    assert rep.closure_violations and back != InvolutionReport(rep.model_id, rep.n)
    with pytest.raises(ValueError, match="unknown model"):
        WordModel("thm4", 1)


def test_size_limit():
    with pytest.raises(SizeLimitError):
        list(enum_words(WordModel("thm1", 12)))
    with pytest.raises(SizeLimitError):
        check_involution(WordModel("thm3", 9))


# ---------------------------------------------------------------------------
# full checks


def test_check_thm1_n3():
    rep = check_involution(WordModel("thm1", 3))
    assert rep.clean
    assert rep.fixed_count == 8 and rep.fixed_signed_sum == 8
    assert rep.total_signed_sum == 8


def test_check_thm2_n2():
    rep = check_involution(WordModel("thm2", 2))
    assert rep.clean
    assert rep.fixed_signed_sum == 7


def test_check_thm3_n2():
    rep = check_involution(WordModel("thm3", 2))
    assert rep.fixed_count == 12
    assert rep.fixed_signed_sum == -12  # weight (-1)^(n+1) = -1 at n=2
    assert ("bbbb", "babbb") in rep.closure_violations
    assert not rep.involutivity_violations and not rep.sign_violations
    assert rep.total_signed_sum == 12


def test_unmet_expectations_checks_every_models_stratum_sizes():
    for model in (WordModel("thm1", 3), WordModel("thm2", 3),
                  *(WordModel("thm3", n) for n in range(1, 7))):
        rep = check_involution(model)
        violations = (len(rep.closure_violations) + len(rep.involutivity_violations)
                      + len(rep.sign_violations))
        assert involution.unmet_expectations(rep) == (
            [(model.n, violations, 0)] if violations else []), model
        k = max(rep.stratum_counts)
        rep.stratum_counts[k] += 1
        assert (model.n, rep.stratum_counts[k], model.expected_stratum_count(k)) \
            in involution.unmet_expectations(rep), model


def test_stratum_counts_match_binomials():
    for n in range(0, 5):
        model = WordModel("thm1", n)
        rep = check_involution(model)
        for k, count in rep.stratum_counts.items():
            assert count == binomial(n + k + 1, 2 * k + 1) * 2 ** (2 * k + 1)
    for n in range(-1, 4):
        model = WordModel("thm2", n)
        rep = check_involution(model)
        for k, count in rep.stratum_counts.items():
            assert count == binomial(n + k + 1, 2 * k) * 2 ** (2 * k)


def test_fixed_words_are_exactly_c_then_b():
    for n in range(0, 4):
        for w in enum_words(WordModel("thm1", n)):
            if scan_involution(w) is None:
                stripped = w.lstrip("c")
                assert stripped == "b" * len(stripped)


def test_accounting_invariant():
    for model in (WordModel("thm1", 3), WordModel("thm2", 2),
                  WordModel("thm3", 3)):
        rep = check_involution(model)
        bad = {w for w, _ in rep.closure_violations}
        bad.update(w for w, _, _ in rep.involutivity_violations)
        bad.update(w for w, _ in rep.sign_violations)
        assert rep.total_words == rep.fixed_count + rep.paired_count + len(bad)


def test_signed_total_consistent_with_oracle():
    reg = registry()
    for n in range(0, 5):
        rep = check_involution(WordModel("thm1", n))
        assert rep.total_signed_sum == 2 * eval_sum(reg.case("thm1"), n)
    for n in range(-1, 4):
        rep = check_involution(WordModel("thm2", n))
        assert rep.total_signed_sum == eval_sum(reg.case("thm2"), n)
    for n in range(1, 5):
        rep = check_involution(WordModel("thm3", n))
        assert rep.total_signed_sum == \
            2 * (-1) ** (n + 1) * eval_sum(reg.case("thm3_printed"), n)


def test_sigma_involutivity_clean_below_six():
    for n in range(1, 6):
        rep = check_involution(WordModel("thm3", n))
        assert rep.involutivity_violations == []
        assert rep.sign_violations == []
        assert rep.fixed_count == 2 * n * (n + 1)


def test_sigma_known_involutivity_break_at_six():
    # the smallest words where sigma fails to be an involution inside S:
    # middle-run pattern (2, odd) maps 2 -> 1 -> 0 instead of returning
    rep = check_involution(WordModel("thm3", 6))
    assert ("baababbbb", "bababbbb", "bbabbbb") in rep.involutivity_violations
    assert len(rep.involutivity_violations) == 64


# ---------------------------------------------------------------------------
# fast paths against their naive references


def _words_with_counts_reference(n_a, n_other):
    """Letter by letter: each {b, c} fill written into a list of a's."""
    if n_a < 0 or n_other < 0:
        return
    length = n_a + n_other
    for positions in itertools.combinations(range(length), n_a):
        pos = set(positions)
        slots = [i for i in range(length) if i not in pos]
        for fill in itertools.product("bc", repeat=n_other):
            chars = ["a"] * length
            for i, ch in zip(slots, fill):
                chars[i] = ch
            yield "".join(chars)


def _contains_reference(model, w):
    """Membership with the per-letter alphabet test and ``word_cost``."""
    if any(ch not in ALPHABET for ch in w):
        return False
    if model.model_id in ("thm1", "thm2"):
        return word_cost(w) == model.cost
    k = len(w) - (model.n + 1)
    if not 0 <= k <= model.n - 1:
        return False
    return (len(w) - w.count("a")) >= 2 * k + 2


_SMALL_MODELS = ([WordModel("thm1", n) for n in range(0, 6)]
                 + [WordModel("thm2", n) for n in range(-1, 6)]
                 + [WordModel("thm3", n) for n in range(1, 6)])


@pytest.mark.parametrize("shape", [(0, 0), (1, 0), (0, 1), (2, 3), (3, 0),
                                   (-1, 0), (0, -1), (-1, -2), (-2, 4),
                                   # runs longer than one cached fill piece
                                   (0, 16), (0, 17), (1, 9), (2, 10)])
def test_words_with_counts_matches_reference_on_edge_shapes(shape):
    assert (list(involution._words_with_counts(*shape))
            == list(_words_with_counts_reference(*shape)))


def test_stratum_words_match_reference(monkeypatch):
    fast = {(m, k): list(m.stratum_words(k))
            for m in _SMALL_MODELS for k in m.strata()}
    monkeypatch.setattr(involution, "_words_with_counts",
                        _words_with_counts_reference)
    for (model, k), words in fast.items():
        assert words == list(model.stratum_words(k)), (model, k)


@given(st.text(alphabet="abcx", max_size=14))
def test_contains_matches_reference(w):
    for model in _SMALL_MODELS:
        assert model.contains(w) == _contains_reference(model, w), (model, w)


@given(st.text(alphabet="abcx", max_size=14))
def test_checker_closure_verdict_matches_contains(img):
    # the checker tests the closure of a scan image without ``contains``;
    # here every map sends the one word of a stratum to ``img``
    for model in _SMALL_MODELS:
        k = model.strata()[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(WordModel, "stratum_words", lambda self, k: iter(["b"]))
            mp.setattr(involution, "scan_involution", lambda w: img)
            mp.setattr(involution, "sigma", lambda w: img)
            rep = involution._check_stratum(model, k)
        assert (rep.closure_violations == []) == model.contains(img), (model, img)


def _scan_involution_reference(w):
    """The scan map built from two slices and a concatenation."""
    ia = w.find("a")
    ibc = w.find("bc")
    if ia < 0 and ibc < 0:
        return None
    if ibc < 0 or (0 <= ia < ibc):
        return w[:ia] + "bc" + w[ia + 1:]
    return w[:ibc] + "a" + w[ibc + 2:]


def _sigma_reference(w):
    """sigma with the positions of the non-a letters listed one by one."""
    idx = [i for i, ch in enumerate(w) if ch != "a"]
    if len(idx) < 3:
        return None
    p = idx[1] - idx[0] - 1
    q = idx[2] - idx[1] - 1
    if (p % 2) == (q % 2):
        grow = p != 1
    else:
        grow = p == 0
    cut = idx[0] + 1
    if grow:
        return w[:cut] + "a" + w[cut:]
    return w[:cut] + w[cut + 1:]


def _check_involution_reference(model, mapper=None):
    """The checker with ``weight()``, attribute counters on the report and
    the involutivity conjunction in its plain order, over ``mapper`` or
    else the reference maps."""
    model.check_size()
    if mapper is None:
        mapper = (_scan_involution_reference if model.model_id in ("thm1", "thm2")
                  else _sigma_reference)
    rep = InvolutionReport(model_id=model.model_id, n=model.n)
    for k in model.strata():
        count = 0
        for w in model.stratum_words(k):
            count += 1
            wt = weight(w)
            rep.total_signed_sum += wt
            img = mapper(w)
            if img is None:
                rep.fixed_count += 1
                rep.fixed_signed_sum += wt
                continue
            ok = True
            if not model.contains(img):
                rep.closure_violations.append((w, img))
                ok = False
            else:
                if weight(img) != -wt:
                    rep.sign_violations.append((w, img))
                    ok = False
                back = mapper(img)
                if back is not None and model.contains(back) and back != w:
                    rep.involutivity_violations.append((w, img, back))
                    ok = False
            if ok:
                rep.paired_count += 1
        rep.stratum_counts[k] = count
        rep.total_words += count
    return rep


_REFERENCE_MODELS = ([WordModel("thm1", n) for n in range(0, 7)]
                     + [WordModel("thm2", n) for n in range(-1, 7)]
                     + [WordModel("thm3", n) for n in range(1, 7)])


def test_check_involution_matches_reference():
    # field for field, each violation list in the same order
    for model in _REFERENCE_MODELS:
        assert (vars(check_involution(model))
                == vars(_check_involution_reference(model))), model


def test_pool_check_matches_serial():
    # stratum tasks on spawned workers, merged in stratum order
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        for model in _REFERENCE_MODELS:
            assert (vars(check_involution(model, pool))
                    == vars(check_involution(model))), model


def test_maps_match_references_on_model_words():
    for model in _REFERENCE_MODELS:
        fast, ref = ((scan_involution, _scan_involution_reference)
                     if model.model_id in ("thm1", "thm2")
                     else (sigma, _sigma_reference))
        for w in enum_words(model):
            assert fast(w) == ref(w), (model, w)


@given(st.text(alphabet="abcx", max_size=16))
@example("")
def test_scan_involution_matches_reference(w):
    assert scan_involution(w) == _scan_involution_reference(w)


@given(st.text(alphabet="abcx", max_size=16) | st.text(alphabet="aab", max_size=16))
@example("")
def test_sigma_matches_reference(w):
    assert sigma(w) == _sigma_reference(w)


# ---------------------------------------------------------------------------
# every per-word check still fires


class _InlinePool(Executor):
    """Runs each task when it is submitted, in this process."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def _scan_then_reverse(w):
    img = scan_involution(w)
    return None if img is None else img[::-1]


def _scan_with_x(w):
    """The scan image with its first ``b`` written as ``x``."""
    img = scan_involution(w)
    return None if img is None else img.replace("b", "x", 1)


def _scan_when_even(w):
    """The scan map on words of even weight; odd ones grow by a ``b``."""
    return scan_involution(w) if w.count("a") % 2 == 0 else w + "b"


@pytest.mark.parametrize("broken, kind", [
    (lambda w: w + "b", "closure"),            # cost grows by one
    (lambda w: w[::-1], "sign"),               # same cost, same weight
    (_scan_then_reverse, "involutivity"),      # cost kept, sign flipped
    (_scan_with_x, "closure"),                 # cost kept, sign flipped, x
    # an even word's image is in S, and the image's image leaves S: no
    # involutivity violation, however the conjunction is ordered
    (_scan_when_even, "closure"),
])
def test_each_check_records_its_own_violations(monkeypatch, broken, kind):
    model = WordModel("thm2", 3)
    words = list(enum_words(model))
    closure, sign, involutivity, escaped = [], [], [], []
    for w in words:
        img = broken(w)
        if img is None:
            continue
        if not _contains_reference(model, img):
            closure.append((w, img))
            continue
        if weight(img) != -weight(w):
            sign.append((w, img))
        back = broken(img)
        if back is not None and _contains_reference(model, back) and back != w:
            involutivity.append((w, img, back))
        elif back is not None and back != w:
            escaped.append((w, img, back))
    expected = {"closure": closure, "sign": sign, "involutivity": involutivity}
    assert expected[kind] and all(v == [] for k, v in expected.items() if k != kind)
    if broken is _scan_when_even:
        assert escaped  # the case the membership test of ``back`` decides

    monkeypatch.setattr(involution, "scan_involution", broken)
    # in-process stratum tasks, so the broken map also reaches the merge
    for rep in (check_involution(model), check_involution(model, _InlinePool())):
        assert rep.closure_violations == closure
        assert rep.sign_violations == sign
        assert rep.involutivity_violations == involutivity
        assert rep.total_words == len(words)


def test_chunk_verdict_matches_reference_around_chunk_edges(monkeypatch):
    # one stratum of thm2 n=7 spans eight chunks; the map corrupts the last
    # word of its first chunk, the first word of its second and its last
    # word, so chunks 0, 1 and 7 are swept and chunk 2 is clean after a
    # swept one.  The first two images leave S and map back to their words,
    # so only the cost test and only the alphabet test see them
    model = WordModel("thm2", 7)
    words = list(model.stratum_words(3))
    assert involution.CHUNK == 4096 and 7 * 4096 < len(words) < 8 * 4096
    first, second, last = words[4095], words[4096], words[-1]
    corrupt = {first: scan_involution(first) + "b",
               second: scan_involution(second).replace("b", "x", 1),
               last: last[::-1]}  # same cost, same weight
    corrupt.update((corrupt[w], w) for w in (first, second))

    def broken(w):
        return corrupt[w] if w in corrupt else scan_involution(w)

    want = _check_involution_reference(model, broken)
    assert want.closure_violations == [(first, corrupt[first]), (second, corrupt[second])]
    assert (last, last[::-1]) in want.sign_violations
    monkeypatch.setattr(involution, "scan_involution", broken)
    for rep in (check_involution(model), check_involution(model, _InlinePool())):
        assert vars(rep) == vars(want)
