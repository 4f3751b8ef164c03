import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from choicedyn.sofic import SoficPresentation, builtin, language, start_vertices
from choicedyn.symbolic import UPString


def brute_golden_even(letters) -> bool:
    # between consecutive 1s: an even number of 0s, at least two
    ones = [i for i, s in enumerate(letters) if s == 1]
    for a, b in zip(ones, ones[1:]):
        gap = b - a - 1
        if gap < 2 or gap % 2:
            return False
    return True


def brute_golden(letters) -> bool:
    return all(not (a == 1 and b == 1) for a, b in zip(letters, letters[1:]))


def brute_even(letters) -> bool:
    ones = [i for i, s in enumerate(letters) if s == 1]
    return all((b - a - 1) % 2 == 0 for a, b in zip(ones, ones[1:]))


def test_builtin_shapes():
    gm = builtin("golden_mean")
    assert len(gm.vertices) == 2 and len(gm.edges) == 3
    fs = builtin("full_shift", 2)
    assert len(fs.vertices) == 1 and len(fs.edges) == 2
    ge = builtin("golden_even")
    assert len(ge.vertices) == 3
    with pytest.raises(ValueError):
        builtin("no_such_shift")
    assert len(builtin("full_shift", 3).edges) == 3
    for name in ("golden_mean", "even_shift", "golden_even"):
        for n_symbols in (1, 3):
            with pytest.raises(ValueError, match=f"over 2 symbols, not {n_symbols}"):
                builtin(name, n_symbols)


@pytest.mark.parametrize(
    "name,oracle",
    [("golden_mean", brute_golden), ("even_shift", brute_even), ("golden_even", brute_golden_even)],
)
def test_languages_against_brute_force(name, oracle):
    pres = builtin(name)
    got = language(pres, 8)
    want = {
        w
        for n in range(9)
        for w in itertools.product((0, 1), repeat=n)
        if oracle(w)
    }
    assert got == want


def test_acceptance_examples():
    ge = language(builtin("golden_even"), 10)
    assert (0, 0, 1, 0, 0, 0, 0, 1, 0, 0) in ge
    assert (1, 1) not in ge
    assert (1, 0, 0) in ge
    # factor of (100)^inf: the gap of exactly two 0s is allowed
    assert (1, 0, 0, 1) in ge
    assert () in ge
    assert language(SoficPresentation.make(2, []), 10) == set()


def test_start_vertices_examples():
    ge = builtin("golden_even")
    assert start_vertices(ge, UPString("", "100")) == frozenset({"C"})
    assert start_vertices(ge, UPString("", "001")) == frozenset({"A", "C"})
    assert start_vertices(ge, UPString("", "0")) == frozenset({"A", "B", "C"})
    assert start_vertices(ge, UPString("", "010")) == frozenset({"B"})
    assert start_vertices(builtin("full_shift", 2), UPString("01", "10")) == frozenset({"q"})
    assert start_vertices(builtin("golden_mean"), UPString("", "1")) == frozenset()


def test_start_vertices_shift_compatibility():
    rng = np.random.default_rng(7)
    presentations = [builtin(n) for n in ("golden_mean", "even_shift", "golden_even")]
    from choicedyn.symbolic import shift

    for _ in range(50):
        pre = tuple(rng.integers(0, 2, size=rng.integers(0, 3)))
        per = tuple(rng.integers(0, 2, size=rng.integers(1, 4)))
        u = UPString(pre, per)
        for pres in presentations:
            tails = start_vertices(pres, shift(u))
            expect = frozenset(
                src for (src, sym, dst) in pres.edges if sym == u.letter_at(0) and dst in tails
            )
            assert start_vertices(pres, u) == expect


def test_shift_invariance_of_language():
    for name in ("golden_mean", "even_shift", "golden_even"):
        pres = builtin(name)
        lang = language(pres, 9)
        for w in lang:
            if w:
                assert w[1:] in lang


def test_pruning_drops_dead_branches():
    pres = SoficPresentation.make(
        2, [("a", 0, "a"), ("a", 1, "b"), ("b", 0, "dead"), ("x", 0, "a")]
    )
    # "dead" has no outgoing edge, then "b" loses its only edge; "x" survives
    assert set(pres.vertices) == {"a", "x"}
    assert {src for src, _, _ in pres.edges} == set(pres.vertices)


def test_text_round_trip():
    for name in ("golden_mean", "golden_even"):
        pres = builtin(name)
        again = SoficPresentation.from_text(pres.to_text(), n_symbols=pres.n_symbols)
        assert again == pres
    with pytest.raises(ValueError):
        SoficPresentation.from_text("a 0\n")


edge_lines = st.tuples(
    st.sampled_from(["p", "q", "r", "#c"]),
    st.sampled_from(["0", "1", "2", "-1", "+1", "٣", "x"]),
    st.sampled_from(["p", "q", "r"]),
).map(" ".join)
graph_texts = st.one_of(
    st.text(),
    st.lists(edge_lines).map("\n".join),
    st.lists(st.one_of(edge_lines, st.text(max_size=6))).map("\n".join),
)


@given(text=graph_texts)
def test_from_text_fuzz_round_trip(text):
    try:
        pres = SoficPresentation.from_text(text)
    except ValueError:
        return
    assert SoficPresentation.from_text(pres.to_text(), n_symbols=pres.n_symbols) == pres
