"""Longest common prefixes and output delays.

Output words are tuples of tokens.  The *delay* of two words is the pair of
suffixes left after removing their longest common prefix; delays compose:
extending both words extends the delay (``delta_extend``).  ``delay_mismatch``
decides whether two delays differ by comparing letters at fixed positions
only, without ever materializing the delays — the form a counter-based
decision procedure needs.  Both routes are kept and cross-tested.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

Word = tuple[str, ...]


class EmptySet(ValueError):
    """lcp of no words is undefined."""


class PremiseViolated(ValueError):
    """delay_mismatch requires |A|-|B| = |C|-|D| >= 0."""


def lcp(words: Iterable[Sequence[str]]) -> Word:
    """Longest common prefix of a non-empty collection of words.

    The words may be tuples or lists.  The first tokens are compared first,
    so a collection whose words part at once costs one comparison per word.
    Otherwise each word is matched against the first from its second token
    on in slices of 8, 16, 32, ... tokens, compared in C; the slice holding
    the first mismatch is bisected down to 8 tokens and scanned.  A prefix of
    n shared tokens thus costs O(n) in C and O(log n) Python steps per word.
    The slices are the only temporaries; the result is a new tuple (the
    first word itself when that is a whole tuple).
    """
    ws = words if type(words) is list else list(words)
    if len(ws) < 2:
        if not ws:
            raise EmptySet("lcp of an empty set")
        return tuple(ws[0])
    first = ws[0]
    kind = type(first)
    if kind is not list and kind is not tuple:
        first, kind = tuple(first), tuple
    n = len(first)
    if not n:
        return ()
    rest = ws[1:]
    head = first[0]
    for w in rest:
        if not w or w[0] != head:
            return ()
    for w in rest:
        if type(w) is not kind:
            w = kind(w)
        if len(w) < n:
            n = len(w)
        # invariant: first[:i] == w[:i]
        i = 1
        width = 8
        while i < n:
            j = i + width
            if j > n:
                j = n
            if first[i:j] != w[i:j]:
                while j - i > 8:
                    mid = (i + j) // 2
                    if first[i:mid] == w[i:mid]:
                        i = mid
                    else:
                        j = mid
                while first[i] == w[i]:
                    i += 1
                break
            i = j
            width *= 2
        n = i
    return tuple(first) if n == len(first) else tuple(first[:n])


class _Pair(NamedTuple):
    left: Word
    right: Word


class DelayPair(_Pair):
    """Suffix pair after removing the longest common prefix; lcp(left,right) = ε.

    A tuple underneath, so the twinning searches hash and compare delays in C;
    the constructor still rejects a shared first token.
    """

    __slots__ = ()

    def __new__(cls, left: Word, right: Word):
        if left and right and left[0] == right[0]:
            raise ValueError("delay components must not share a first token")
        return super().__new__(cls, left, right)


def delta(u: Sequence[str], v: Sequence[str]) -> DelayPair:
    """Delay of ``u`` and ``v``: the suffixes beyond their common prefix."""
    u, v = tuple(u), tuple(v)
    if not u or not v or u[0] != v[0]:
        return DelayPair(u, v)
    k = len(lcp((u, v)))
    return DelayPair(u[k:], v[k:])


def delta_extend(d: DelayPair, u2: Sequence[str], v2: Sequence[str]) -> DelayPair:
    """Delay after appending ``u2``/``v2`` to words whose delay is ``d``."""
    return delta(d.left + tuple(u2), d.right + tuple(v2))


def delay_mismatch(A: Sequence[str], B: Sequence[str],
                   C: Sequence[str], D: Sequence[str]) -> bool:
    """Positional test for ``delta(A, B) != delta(C, D)``.

    Requires |A|-|B| = |C|-|D| >= 0.  True iff one of four conditions holds,
    each comparing letters counted from the ends of the words (1-based; a
    comparison only counts when both positions exist):

      1. some k with A[l-k] != B[l-k], and k >= |C| or C[n-k] == D[n-k];
      2. some k with C[n-k] != D[n-k], and k >= |A| or A[l-k] == B[l-k];
      3. some k with A[l-k] != C[n-k], and k < l-m or a left-aligned
         mismatch A[k'] != B[k'] exists with k + k' <= l;
      4. some k, k' with B[m-k] != D[p-k], A[k'] != B[k'] and k + k' <= m.
    """
    A, B, C, D = tuple(A), tuple(B), tuple(C), tuple(D)
    l, m, n, p = len(A), len(B), len(C), len(D)
    if l - m != n - p or l < m:
        raise PremiseViolated(f"need |A|-|B| = |C|-|D| >= 0, got {l}-{m} vs {n}-{p}")

    # Smallest left-aligned mismatch position between A and B (1-based), if any.
    first_ab = None
    for j in range(min(l, m)):
        if A[j] != B[j]:
            first_ab = j + 1
            break

    # Condition 1: k ranges where both A[l-k] and B[l-k] exist.
    for k in range(l - m, l):
        if A[l - k - 1] != B[l - k - 1]:
            if k >= n:
                return True
            # here n-p <= k <= n-1, so C[n-k] and D[n-k] both exist
            if C[n - k - 1] == D[n - k - 1]:
                return True

    # Condition 2: symmetric, over C/D.
    for k in range(n - p, n):
        if C[n - k - 1] != D[n - k - 1]:
            if k >= l:
                return True
            if A[l - k - 1] == B[l - k - 1]:
                return True

    # Condition 3: A vs C, counted from the right.
    for k in range(min(l, n)):
        if A[l - k - 1] != C[n - k - 1]:
            if k < l - m:
                return True
            if first_ab is not None and k + first_ab <= l:
                return True

    # Condition 4: B vs D, counted from the right, plus any A/B mismatch.
    if first_ab is not None:
        for k in range(min(m, p)):
            if B[m - k - 1] != D[p - k - 1] and k + first_ab <= m:
                return True

    return False
