import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from vptstream import (DelayPair, EmptySet, PremiseViolated, delay_mismatch,
                       delta, delta_extend, lcp)

words = st.lists(st.sampled_from("xy"), max_size=8).map(tuple)


def test_lcp_examples():
    assert lcp([("a", "b", "c"), ("a", "b", "d")]) == ("a", "b")
    assert lcp([("a",)]) == ("a",)
    assert lcp([(), ("a",)]) == ()
    assert lcp([("a", "b"), ("a", "b")]) == ("a", "b")
    with pytest.raises(EmptySet):
        lcp([])


def _lcp_by_loop(words):
    best = tuple(words[0])
    for word in words[1:]:
        i = 0
        while i < min(len(best), len(word)) and best[i] == word[i]:
            i += 1
        best = best[:i]
    return best


@st.composite
def lcp_families(draw):
    """1-4 lists and tuples around one base word: the base itself, a prefix
    of it, or the base with one token changed in its later half.  Half of
    the bases run to 10 000+ tokens."""
    if draw(st.booleans()):
        base = draw(st.lists(st.sampled_from("xyz"), max_size=40))
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        base = [rng.choice("xyz") for _ in range(draw(st.integers(10_000, 12_000)))]
    words = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("equal", "prefix", "late mismatch")))
        if kind == "equal":
            word = list(base)
        elif kind == "prefix" or not base:
            word = base[:draw(st.integers(0, len(base)))]
        else:
            cut = draw(st.integers(len(base) // 2, len(base) - 1))
            word = base[:cut] + ["w"] + base[cut + 1:]
        words.append(draw(st.sampled_from((list, tuple)))(word))
    return words


@given(lcp_families())
def test_lcp_matches_a_token_loop(words):
    got = lcp(words)
    assert type(got) is tuple
    assert got == _lcp_by_loop(words)
    assert lcp(iter(words)) == got


def test_delta_examples():
    assert delta(("a", "b"), ("a", "b")) == DelayPair((), ())
    assert delta(("a", "b", "c"), ("a", "b", "d")) == DelayPair(("c",), ("d",))
    assert delta((), ("x",)) == DelayPair((), ("x",))
    assert delta(("x", "y"), ("x",)) == DelayPair(("y",), ())


def test_delay_pair_contract():
    with pytest.raises(ValueError):
        DelayPair(("a", "x"), ("a",))
    d = DelayPair(("a",), ("b", "c"))
    same = DelayPair(("a",), ("b", "c"))
    assert d == same and hash(d) == hash(same)
    assert len({d, same, delta(("z", "a"), ("z", "b", "c"))}) == 1
    assert d != DelayPair(("b", "c"), ("a",))
    assert (d.left, d.right) == (("a",), ("b", "c"))
    assert repr(d) == "DelayPair(left=('a',), right=('b', 'c'))"
    assert repr(DelayPair((), ())) == "DelayPair(left=(), right=())"


def test_delta_extend_example():
    d = delta(("a",), ("b",))
    assert delta_extend(d, ("c",), ("c",)) == delta(("a", "c"), ("b", "c"))


@given(words, words, words, words)
def test_delta_extend_matches_direct_delta(u1, v1, u2, v2):
    assert delta_extend(delta(u1, v1), u2, v2) == delta(u1 + u2, v1 + v2)


@given(words, words, words, st.integers(min_value=0, max_value=4))
def test_delay_mismatch_matches_direct_inequality(b, d, filler, k):
    # build A, C so that |A| - |B| == |C| - |D| == k >= 0
    a = b + filler[:k] if len(filler) >= k else b + ("x",) * k
    c = d + tuple(reversed(filler))[:k] if len(filler) >= k else d + ("y",) * k
    assert delay_mismatch(a, b, c, d) == (delta(a, b) != delta(c, d))


def test_delay_mismatch_exhaustive_small_window():
    pool = [tuple(w) for n in range(4) for w in product("xy", repeat=n)]
    checked = 0
    for a, b in product(pool, repeat=2):
        k = len(a) - len(b)
        if k < 0:
            continue
        for c, d in product(pool, repeat=2):
            if len(c) - len(d) != k:
                continue
            assert delay_mismatch(a, b, c, d) == (delta(a, b) != delta(c, d)), \
                (a, b, c, d)
            checked += 1
    assert checked > 5000


def test_delay_mismatch_premise_enforced():
    with pytest.raises(PremiseViolated):
        delay_mismatch(("x",), ("x", "y"), (), ())   # |A|-|B| < 0
    with pytest.raises(PremiseViolated):
        delay_mismatch(("x", "y"), ("x",), (), ())   # unequal length gaps
