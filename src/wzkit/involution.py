"""Exhaustive verification of the sign-reversing-involution proofs.

Three weighted word models over the alphabet {a, b, c}, each with
weight (-1)^(number of a's):

* ``thm1``: words with 2#a + #b + #c = 2n+1, paired by the scan map
  (first ``a`` becomes ``bc``, first adjacent ``bc`` becomes ``a``);
  the fixed words are exactly c^i b^j.
* ``thm2``: the same scan map on words of cost 2n+2.
* ``thm3``: words of length n+1+k for some k in 0..n-1 whose non-a
  count is at least 2k+2, paired by the run-adjusting map sigma (the
  a-run between the first and second non-a letters grows or shrinks by
  one according to the parities of the two runs); sigma is undefined on
  words with fewer than three non-a letters.

The checker treats violations as data, not assertion failures: sigma
demonstrably maps some boundary words out of the model's set (inserting
an ``a`` can push the length past n+k, removing one can drop it below
n+1), and for n >= 6 some in-set orbits are not 2-cycles at all.  The
point of the module is to surface exactly where the printed pairing
argument closes and where it does not.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from operator import add, and_
from typing import TYPE_CHECKING, Iterator

from .exactnum import binomial

if TYPE_CHECKING:
    from concurrent.futures import Executor

ALPHABET = ("a", "b", "c")
MODELS = ("thm1", "thm2", "thm3")

#: words are plain strings over the three-letter alphabet
Word = str


class SizeLimitError(ValueError):
    """Model parameter beyond the supported exhaustive-enumeration size."""


#: caps keep one exhaustive check near a minute or less.  Words are
#: streamed, so only recorded violations take memory.  At the caps, on a
#: 2-vCPU host with Python 3.11.7, single process, four runs each (a
#: noisy host): thm2 n=8 (cost 18) is 6.6M words in 8.8-10.1 s, thm1 n=8
#: 2.7M words in 3.1-4.1 s, and thm3 n=7 330k words with 237k recorded
#: violations in 0.8-1.3 s and 60 MB peak RSS.  With ``--jobs 2`` (stratum
#: tasks on two workers) thm2 n=8 took 4.9, 5.0 and 5.2 s on that host
MAX_COST = 18          # thm1/thm2: 2#a + #b + #c
MAX_THM3_N = 7


def weight(w: str) -> int:
    """Wt(w) = (-1)^(number of a's)."""
    return -1 if w.count("a") % 2 else 1


def word_cost(w: str) -> int:
    return 2 * w.count("a") + w.count("b") + w.count("c")


class WordModel(namedtuple("WordModel", ("model_id", "n"))):
    """One of the three word sets, fixed parameter n; ``model_id`` is one of ``MODELS``."""

    __slots__ = ()

    def __new__(cls, model_id: str, n: int) -> "WordModel":
        if model_id not in MODELS:
            raise ValueError(f"unknown model {model_id!r}")
        return super().__new__(cls, model_id, n)

    @property
    def cost(self) -> int:
        """Target 2#a + #b + #c for the scan models."""
        if self.model_id == "thm3":
            raise ValueError("thm3 words are stratified by length, not cost")
        return 2 * self.n + (1 if self.model_id == "thm1" else 2)

    def check_size(self) -> None:
        if self.model_id in ("thm1", "thm2"):
            if self.cost < 0 or self.cost > MAX_COST:
                raise SizeLimitError(
                    f"{self.model_id} cost {self.cost} outside [0, {MAX_COST}]")
        elif not 1 <= self.n <= MAX_THM3_N:
            raise SizeLimitError(f"thm3 n={self.n} outside [1, {MAX_THM3_N}]")

    # -- membership -------------------------------------------------------

    def contains(self, w: str) -> bool:
        # strip() leaves a letter exactly when w has one outside the
        # alphabet; past that test, len + #a is word_cost(w)
        if w.strip("abc"):
            return False
        if self.model_id != "thm3":
            return len(w) + w.count("a") == self.cost
        k = len(w) - (self.n + 1)
        if not 0 <= k <= self.n - 1:
            return False
        return (len(w) - w.count("a")) >= 2 * k + 2

    # -- stratified enumeration ---------------------------------------------

    def strata(self) -> list[int]:
        """Stratum indices k, mirroring the summation variable."""
        if self.model_id == "thm1":
            return list(range(0, self.n + 1))
        if self.model_id == "thm2":
            return list(range(0, self.n + 2))
        return list(range(0, self.n))

    def stratum_words(self, k: int) -> Iterator[str]:
        """Stream the words of stratum k in a deterministic order."""
        if self.model_id == "thm1":
            return _words_with_counts(self.n - k, 2 * k + 1)
        if self.model_id == "thm2":
            return _words_with_counts(self.n + 1 - k, 2 * k)
        length = self.n + 1 + k
        return itertools.chain.from_iterable(
            _words_with_counts(length - non_a, non_a)
            for non_a in range(2 * k + 2, length + 1))

    def expected_stratum_count(self, k: int) -> int:
        """The size of stratum k from binomials.

        For the scan models this is the paper's count, which the checker
        tests; a thm3 stratum sums over its non-a counts.
        """
        n = self.n
        if self.model_id == "thm1":
            return binomial(n + k + 1, 2 * k + 1) * 2 ** (2 * k + 1)
        if self.model_id == "thm2":
            return binomial(n + k + 1, 2 * k) * 2 ** (2 * k)
        length = n + 1 + k
        return sum(binomial(length, non_a) * 2 ** non_a
                   for non_a in range(2 * k + 2, length + 1))


def _words_with_counts(n_a: int, n_other: int) -> Iterator[str]:
    """All words with exactly ``n_a`` a's and ``n_other`` letters from {b, c}.

    Order: placements of the a's in ``itertools.combinations`` order,
    then the {b, c} fills in ``itertools.product`` order.  A placement
    cuts the non-a positions into maximal runs, and each of its words is
    one ``"".join`` of one element from each factor of a product over the
    runs' cached fills (``_run_fills``) with the fixed ``"a"`` between
    them (``_placement_words``); that is the same order, since product
    varies its last factor fastest.  The words are streamed, never held
    in a list, through a chain over the placements.
    """
    if n_a < 0 or n_other < 0:
        return iter(())
    length = n_a + n_other
    return itertools.chain.from_iterable(map(
        _placement_words, itertools.combinations(range(length), n_a),
        itertools.repeat(length)))


def _placement_words(positions: tuple[int, ...], length: int) -> Iterator[str]:
    """The words of ``length`` letters with a's exactly at ``positions``."""
    parts = []
    start = 0
    for p in positions:
        if p > start:
            parts += _run_fills(p - start)
        parts.append(("a",))
        start = p + 1
    if length > start:
        parts += _run_fills(length - start)
    return map("".join, itertools.product(*parts))


#: a run's fills are split into factors of at most 2**8 strings
RUN_PIECE = 8


@lru_cache(maxsize=None)
def _run_fills(run: int) -> tuple[tuple[str, ...], ...]:
    """The product factors of a run of ``run`` non-a letters.

    Pieces of at most ``RUN_PIECE`` letters, left to right; each piece is
    every {b, c} word of its length in ``itertools.product`` order, and
    pieces of one length are one shared tuple.
    """
    if run > RUN_PIECE:
        return _run_fills(RUN_PIECE) + _run_fills(run - RUN_PIECE)
    return (tuple(map("".join, itertools.product("bc", repeat=run))),)


def enum_words(model: WordModel) -> Iterator[str]:
    """Stream the model's full set S exactly once, stratified."""
    model.check_size()
    for k in model.strata():
        yield from model.stratum_words(k)


# ---------------------------------------------------------------------------
# the maps


def scan_involution(w: str) -> str | None:
    """Swap the first ``a`` <-> first adjacent ``bc``; None when fixed.

    Scanning left to right, whichever of the two patterns appears first
    is swapped: an ``a`` becomes ``bc`` and a ``bc`` becomes ``a``.
    Fixed words are those with no ``a`` and no adjacent ``bc``, i.e.
    exactly c^i b^j.
    """
    head, a, tail = w.partition("a")
    # a "bc" before the first a is the first "bc" of w, which replace finds
    if "bc" in head:
        return w.replace("bc", "a", 1)
    if a:
        return head + "bc" + tail
    return None


def sigma(w: str) -> str | None:
    """The run-adjusting map of the thm3 model; None when undefined.

    With w = a^l x a^p y a^q z ... (x, y, z the first three non-a
    letters), the middle run a^p grows by one when p, q have the same
    parity and p != 1, or when they differ and p = 0; it shrinks by one
    in the remaining cases.  Undefined (fixed) when w has fewer than
    three non-a letters.

    The rule leaves one run class unpaired: (2, q) with q odd maps to
    (1, q), which maps on to (0, q), so sigma(sigma(w)) != w exactly
    when p = 2 and q is odd.  In the thm3 model all three words of such
    a chain lie in S only when w is in stratum k >= 2 and has at least
    three a's; that first happens at n = 6, with k = 2 and exactly three
    a's (64 chains x aa y a z -> x a y a z -> x y a z).
    """
    rest = w.lstrip("a")        # x a^p y a^q z ...
    mid = rest[1:].lstrip("a")  # y a^q z ...
    tail = mid[1:].lstrip("a")  # z ...
    if not tail:
        return None
    p = len(rest) - len(mid) - 1
    q = len(mid) - len(tail) - 1
    if (p % 2) == (q % 2):
        grow = p != 1
    else:
        grow = p == 0
    cut = len(w) - len(rest) + 1
    if grow:
        return w[:cut] + "a" + w[cut:]
    return w[:cut] + w[cut + 1:]


# ---------------------------------------------------------------------------
# the checker


class InvolutionReport:
    """The counts and violations of a model's words; equal when every field is."""

    def __init__(self, model_id: str, n: int):
        self.model_id = model_id
        self.n = n
        self.stratum_counts: dict[int, int] = {}
        self.total_words = 0
        self.fixed_count = 0
        self.fixed_signed_sum = 0
        self.paired_count = 0
        self.total_signed_sum = 0
        self.closure_violations: list[tuple[str, str]] = []
        self.involutivity_violations: list[tuple[str, str, str]] = []
        self.sign_violations: list[tuple[str, str]] = []

    def __eq__(self, other):
        if type(other) is not InvolutionReport:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def clean(self) -> bool:
        return not (self.closure_violations or self.involutivity_violations
                    or self.sign_violations)


def check_involution(model: WordModel, pool: Executor | None = None) -> InvolutionReport:
    """Apply the model's map to every word of S and account for everything.

    Checks, per word: closure (image in S), involutivity (map twice
    returns the word, whenever both applications are defined and their
    images stay in S), sign reversal, and fixed-set membership.  All
    violations are reported verbatim, each list in stratum order.  The
    involutivity test runs as ``back is not None and back != w and
    contains(back)``: the same conjunction, with the membership test
    skipped only when back == w, where it cannot change the outcome.

    Each stratum k gives one part, ``_check_stratum(model, k)``, and the
    parts are merged in stratum order, one at a time, into the report.
    Without ``pool`` the parts are made in this process as the merge
    reaches them.  With a ``concurrent.futures`` executor, each stratum is
    one task, submitted largest first, and the merge reads the results in
    stratum order.  Spawned workers import this module afresh, so they use
    its own maps and membership test, not replacements made in this
    process.
    """
    model.check_size()
    strata = model.strata()
    if pool is None:
        parts = (_check_stratum(model, k) for k in strata)
    else:
        # largest first, so that no worker starts the biggest stratum last
        order = sorted(strata, key=model.expected_stratum_count, reverse=True)
        tasks = {k: pool.submit(_check_stratum, model, k) for k in order}
        parts = (tasks[k].result() for k in strata)
    rep = InvolutionReport(model.model_id, model.n)
    for part in parts:
        rep.stratum_counts.update(part.stratum_counts)
        rep.total_words += part.total_words
        rep.total_signed_sum += part.total_signed_sum
        rep.fixed_count += part.fixed_count
        rep.fixed_signed_sum += part.fixed_signed_sum
        rep.paired_count += part.paired_count
        rep.closure_violations += part.closure_violations
        rep.involutivity_violations += part.involutivity_violations
        rep.sign_violations += part.sign_violations
    return rep


#: words per chunk of ``_check_stratum``'s verdict
CHUNK = 4096
#: ``str.translate`` table that deletes the alphabet's letters
_DROP_ALPHABET = str.maketrans("", "", "".join(ALPHABET))


def _check_stratum(model: WordModel, k: int) -> InvolutionReport:
    """The report of the words of stratum k alone.

    The map is looked up on the module at each call, so a map replaced
    there applies.

    The words are taken ``CHUNK`` at a time.  For each chunk the a-counts
    (weights and the signed sum) and the images are computed by C-level
    passes.  A scan-model chunk is clean when no image is None (no fixed
    word), every image is over the alphabet, has ``len + #a == cost`` and
    the other a-parity than its word (closure and sign reversal), and the
    images' images are the chunk's words (involutivity): then every word
    of it is paired.  Every other chunk, so every thm3 chunk, is swept
    word by word, reusing the a-counts, the images and, when they were
    computed, the images' images, so each violation list keeps stream
    order.

    For the scan models the image's a-count serves both the closure test
    and the sign test: closure is ``len + #a == cost`` and no letter
    outside the alphabet, which is ``contains`` for those models.
    """
    rep = InvolutionReport(model.model_id, model.n)
    cost = None if model.model_id == "thm3" else model.cost
    mapper = sigma if cost is None else scan_involution
    contains = model.contains  # a wrapper set on the class still applies
    closure = rep.closure_violations.append
    sign = rep.sign_violations.append
    involutivity = rep.involutivity_violations.append
    count = signed = fixed = fixed_signed = paired = 0
    stream = model.stratum_words(k)
    while words := list(itertools.islice(stream, CHUNK)):
        a_counts = list(map(str.count, words, itertools.repeat("a")))
        n_odd = sum(map(and_, a_counts, itertools.repeat(1)))  # weight -1 exactly when odd
        count += len(words)
        signed += len(words) - 2 * n_odd
        images = list(map(mapper, words))
        backs = None
        if (cost is not None and None not in images
                and not "".join(images).translate(_DROP_ALPHABET)):
            img_counts = list(map(str.count, images, itertools.repeat("a")))
            if (set(map(add, map(len, images), img_counts)) == {cost}
                    and all(map(and_, map(add, a_counts, img_counts), itertools.repeat(1)))):
                backs = list(map(mapper, images))
                if backs == words:
                    paired += len(words)
                    continue
        for i, w in enumerate(words):
            odd = a_counts[i] & 1
            img = images[i]
            if img is None:
                fixed += 1
                fixed_signed += -1 if odd else 1
                continue
            n_img = img.count("a")
            if not (contains(img) if cost is None
                    else len(img) + n_img == cost and not img.strip("abc")):
                closure((w, img))
                continue
            ok = True
            if (n_img & 1) == odd:  # same weight
                sign((w, img))
                ok = False
            back = mapper(img) if backs is None else backs[i]
            if back is not None and back != w and contains(back):
                involutivity((w, img, back))
                ok = False
            if ok:
                paired += 1
    rep.stratum_counts[k] = count
    rep.total_words = count
    rep.total_signed_sum = signed
    rep.fixed_count = fixed
    rep.fixed_signed_sum = fixed_signed
    rep.paired_count = paired
    return rep


def unmet_expectations(rep: InvolutionReport) -> list[tuple[int, int, int]]:
    """(n, got, want) for each count of ``rep`` that misses the paper's claim.

    Every model: binomial stratum sizes (``expected_stratum_count``).  Scan
    models: fixed and total signed sums 2n+2 (thm1) or 2n+3 (thm2); thm3:
    2n(n+1) fixed words of weight (-1)^(n+1).  Violations of any kind add
    (n, their number, 0).
    """
    n = rep.n
    bad: list[tuple[int, int, int]] = []
    if rep.model_id in ("thm1", "thm2"):
        want = 2 * n + 2 if rep.model_id == "thm1" else 2 * n + 3
        bad += [(n, got, want) for got in (rep.fixed_signed_sum, rep.total_signed_sum)
                if got != want]
    else:
        fixed = 2 * n * (n + 1)
        bad += [(n, got, want) for got, want in (
            (rep.fixed_count, fixed),
            (rep.fixed_signed_sum, -fixed if n % 2 == 0 else fixed))
            if got != want]
    model = WordModel(rep.model_id, n)
    bad += [(n, count, size) for k, count in rep.stratum_counts.items()
            for size in (model.expected_stratum_count(k),) if count != size]
    violations = (len(rep.closure_violations) + len(rep.involutivity_violations)
                  + len(rep.sign_violations))
    if violations:
        bad.append((n, violations, 0))
    return bad
