import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicedyn.symbolic import UPString, Word, d_sigma, d_sigma_exponent, enumerate_words, parse_strategy, shift

words = st.lists(st.integers(0, 2), max_size=8).map(lambda l: Word(tuple(l)))
upstrings = st.tuples(
    st.lists(st.integers(0, 2), max_size=4),
    st.lists(st.integers(0, 2), min_size=1, max_size=4),
).map(lambda t: UPString(tuple(t[0]), tuple(t[1])))
strings = st.one_of(words, upstrings)


def test_d_sigma_examples():
    assert d_sigma(UPString("01", "1"), UPString("00", "1")) == 0.25
    assert d_sigma(UPString("0", "10"), UPString("0", "10")) == 0.0
    assert d_sigma(UPString("", "0"), UPString("", "1")) == 0.5


def test_d_sigma_word_prefix_of_string():
    # a word sits 2^-(|w|+1) from any string it prefixes
    assert d_sigma(Word("01"), UPString("01", "0")) == 2.0 ** -3


def test_shift_examples():
    assert shift(UPString("0", "10")) == UPString("", "10")
    assert shift(UPString("", "1")) == UPString("", "1")
    assert shift(UPString("", "100"), 3) == UPString("", "100")


def test_enumerate_words():
    assert [str(w) for w in enumerate_words(2, 2)] == ["00", "01", "10", "11"]
    assert enumerate_words(2, 0) == [Word()]
    assert len(enumerate_words(3, 2)) == 9
    with pytest.raises(ValueError):
        enumerate_words(2, 40)


def test_parse_and_format():
    s = parse_strategy("000(100)")
    assert isinstance(s, UPString)
    assert str(s) == "0(001)"  # normal form of the same string
    assert [s.letter_at(k) for k in range(7)] == [0, 0, 0, 1, 0, 0, 1]
    assert parse_strategy("(10)") == UPString("", "10")
    with pytest.raises(ValueError, match="'0110' is a finite word, not a strategy"):
        parse_strategy("0110")
    with pytest.raises(ValueError, match="cannot parse '01a'"):
        parse_strategy("01a")


def test_normal_form_examples():
    assert UPString("01", "1") == UPString("0", "1")
    assert UPString("", "0101") == UPString("", "01")
    assert UPString("100", "100") == UPString("", "100")


@given(u=strings, v=strings, z=strings)
def test_ultrametric_bound(u, v, z):
    assert d_sigma(u, z) <= max(d_sigma(u, v), d_sigma(v, z)) + 1e-18


@given(u=strings, v=strings)
def test_metric_symmetry_and_identity(u, v):
    assert d_sigma(u, v) == d_sigma(v, u)
    assert (d_sigma(u, v) == 0.0) == (d_sigma_exponent(u, v) is None)
    assert d_sigma(u, u) == 0.0


@given(u=upstrings, v=upstrings)
def test_shift_lipschitz(u, v):
    assert d_sigma(shift(u), shift(v)) <= 2.0 * d_sigma(u, v) + 1e-18


@given(pre=st.lists(st.integers(0, 1), max_size=5), per=st.lists(st.integers(0, 1), min_size=1, max_size=5))
def test_normalization_idempotent_and_letter_preserving(pre, per):
    pre, per = tuple(pre), tuple(per)
    s = UPString(pre, per)
    assert UPString(s.preperiod, s.period) == s
    depth = 4 * (len(pre) + len(per))
    raw = lambda k: pre[k] if k < len(pre) else per[(k - len(pre)) % len(per)]
    assert [s.letter_at(k) for k in range(depth)] == [raw(k) for k in range(depth)]


@given(s=upstrings, n=st.integers(0, 8))
def test_prefix_shift_reconstruction(s, n):
    tail = shift(s, n)
    rebuilt = UPString(s.prefix(n).letters + tail.preperiod, tail.period)
    assert [rebuilt.letter_at(k) for k in range(4 * n + 4)] == [
        s.letter_at(k) for k in range(4 * n + 4)
    ]


@given(u=upstrings, v=upstrings)
def test_exponent_is_exact_power_of_two(u, v):
    m = d_sigma_exponent(u, v)
    if m is not None:
        assert d_sigma(u, v) == math.ldexp(1.0, -m)
        assert u.prefix(m - 1) == v.prefix(m - 1)
        assert u.prefix(m) != v.prefix(m)


# arbitrary text, and near-misses of "PRE(PER)" (with a non-ASCII digit)
digit_texts = st.text(alphabet="0123٣", max_size=5)
strategy_texts = st.one_of(
    st.text(),
    st.tuples(
        st.sampled_from(["", " ", "x"]), digit_texts, st.sampled_from(["(", ""]),
        digit_texts, st.sampled_from([")", "", ")x", ")\n"]),
    ).map("".join),
)


@given(text=strategy_texts)
def test_parse_strategy_fuzz_round_trip(text):
    try:
        w = parse_strategy(text)
    except ValueError:
        return
    assert parse_strategy(str(w)) == w
