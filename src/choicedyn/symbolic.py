"""Finite words, ultimately periodic strings, and the code-space metric.

Strategies are one-sided infinite strings over the alphabet {0, ..., N-1}.
This module implements the computable subset of those strings: ultimately
periodic ones (`UPString`), stored in a normal form (minimal period, period
copies absorbed out of the preperiod) so that string equality is structural
equality.  Finite blocks are `Word`s.  The metric ``d_sigma(u, v) = 2**-m``,
where the first m-1 letters agree and the first m letters differ, is computed
exactly as an integer exponent and converted to float only at the API edge.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from math import lcm
from typing import Iterator, Union


def _coerce_letters(value) -> tuple:
    if isinstance(value, Word):
        return value.letters
    if isinstance(value, str):
        return tuple(int(ch) for ch in value)
    return tuple(int(v) for v in value)


@dataclass(frozen=True, order=True)
class Word:
    """A finite string of symbols; ``Word()`` is the empty word.

    Accepts a digit string, an iterable of ints, or another Word.

    >>> Word("011")[0], len(Word("011"))
    (0, 3)
    """

    letters: tuple = ()

    def __post_init__(self):
        letters = _coerce_letters(self.letters)
        if any(s < 0 for s in letters):
            raise ValueError("symbols must be non-negative integers")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, k):
        return self.letters[k]

    def __str__(self) -> str:
        return "".join(str(s) for s in self.letters)

    def prefix(self, n: int) -> "Word":
        if n < 0 or n > len(self.letters):
            raise ValueError(f"prefix length {n} out of range for |w|={len(self.letters)}")
        return Word(self.letters[:n])


@dataclass(frozen=True)
class UPString:
    """An ultimately periodic one-sided infinite string, in normal form.

    ``UPString("000", "100")`` is 000 100 100 100 ...  The normal form uses
    the minimal period and absorbs trailing period copies into the period
    boundary, so two UPStrings are equal as dataclasses iff they are equal
    letter-for-letter; normalization is idempotent.  Text form is
    ``"PRE(PER)"``, e.g. ``"000(100)"``.
    """

    preperiod: tuple = ()
    period: tuple = (0,)

    def __post_init__(self):
        pre = _coerce_letters(self.preperiod)
        per = _coerce_letters(self.period)
        if not per:
            raise ValueError("period must be nonempty")
        if any(s < 0 for s in pre + per):
            raise ValueError("symbols must be non-negative integers")
        n = len(per)
        for d in range(1, n + 1):
            if n % d == 0 and per == per[:d] * (n // d):
                per = per[:d]
                break
        while pre and pre[-1] == per[-1]:
            per = (per[-1],) + per[:-1]
            pre = pre[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    def letter_at(self, k: int) -> int:
        if k < 0:
            raise IndexError("one-sided strings have no negative positions")
        p = len(self.preperiod)
        if k < p:
            return self.preperiod[k]
        return self.period[(k - p) % len(self.period)]

    __getitem__ = letter_at

    def prefix(self, n: int) -> Word:
        return Word(tuple(self.letter_at(k) for k in range(n)))

    def __str__(self) -> str:
        pre = "".join(str(s) for s in self.preperiod)
        per = "".join(str(s) for s in self.period)
        return f"{pre}({per})"


String = Union[Word, UPString]


def shift(s: UPString, n: int = 1) -> UPString:
    """Delete the first ``n`` letters: shift(s)(k) = s(k + n)."""
    if n < 0:
        raise ValueError("shift count must be non-negative")
    p = len(s.preperiod)
    if n <= p:
        return UPString(s.preperiod[n:], s.period)
    r = (n - p) % len(s.period)
    return UPString((), s.period[r:] + s.period[:r])


def _letter(x: String, k: int):
    if isinstance(x, Word):
        return x.letters[k] if k < len(x.letters) else None
    return x.letter_at(k)


def _agreement_bound(u: String, v: String) -> int:
    # Deep enough that no mismatch up to the bound implies u == v.
    if isinstance(u, Word) and isinstance(v, Word):
        return min(len(u), len(v)) + 1
    if isinstance(u, UPString) and isinstance(v, UPString):
        return max(len(u.preperiod), len(v.preperiod)) + lcm(len(u.period), len(v.period))
    w = u if isinstance(u, Word) else v
    return len(w) + 1


def d_sigma_exponent(u: String, v: String):
    """Exact exponent m with d_sigma(u, v) = 2**-m, or None when u == v.

    A finite word is treated as ending in a blank that mismatches every
    symbol, which makes words converge to the strings they prefix.
    """
    if type(u) is type(v) and u == v:
        return None
    for k in range(_agreement_bound(u, v)):
        if _letter(u, k) != _letter(v, k):
            return k + 1
    return None


def d_sigma(u: String, v: String) -> float:
    """The code-space metric 2**-m; 0 iff u = v (after normalization)."""
    m = d_sigma_exponent(u, v)
    return 0.0 if m is None else math.ldexp(1.0, -m)


def enumerate_words(n_symbols: int, length: int, cap: int = 1_000_000) -> list:
    """All words of a given length in lexicographic order (N**length of them)."""
    if n_symbols < 1:
        raise ValueError("alphabet needs at least one symbol")
    if length < 0:
        raise ValueError("length must be non-negative")
    if n_symbols ** length > cap:
        raise ValueError(f"{n_symbols}**{length} words exceeds cap {cap}")
    return [Word(t) for t in itertools.product(range(n_symbols), repeat=length)]


_TEXT_RE = re.compile(r"^(\d*)(?:\((\d+)\))?$")

STRATEGY_GRAMMAR = 'strategy text is "PRE(PER)" with digit words, e.g. "000(100)"; a plain digit string is a finite word'


def parse_strategy(text: str) -> UPString:
    """Parse a strategy string, requiring the infinite "PRE(PER)" form."""
    m = _TEXT_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse {text!r}: {STRATEGY_GRAMMAR}")
    pre, per = m.group(1), m.group(2)
    if per is None:
        raise ValueError(f"{text!r} is a finite word, not a strategy: {STRATEGY_GRAMMAR}")
    return UPString(pre, per)
