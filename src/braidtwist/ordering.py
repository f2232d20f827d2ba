"""Left-invariant order on braids, decided by handle reduction.

A sigma_i-handle is a subword sigma_i^e v sigma_i^(-e) (e = +-1) whose
interior v uses only generators of index greater than i.  Deleting the
two outer letters and replacing every sigma_(i+1)^d inside v by
sigma_(i+1)^(-e) sigma_i^d sigma_(i+1)^e is an identity in the braid
group, so each reduction preserves the braid.  Reducing handles whose
interior contains no nested sigma_(i+1)-handle always terminates
(Dehornoy's convergence theorem) in a word that is empty or
sigma-positive or sigma-negative, and that syntactic class decides the
order: a braid exceeds the identity iff it admits a word in which the
lowest occurring generator index appears only positively.

The engine scans left to right and reduces each handle the moment it
closes, so every reduced handle is innermost among those seen so far
and the nested-handle condition holds automatically.  The scan state is
a stack of open positions: bottom to top it holds the positions q with
no later letter of index <= index(q), which is exactly the set of
possible handle openers, in increasing index order.  Reading a letter
of index i pops every entry of larger index, then either closes a
handle against an opposite-sign index-i top, supersedes a same-sign
one, or pushes fresh.  The stack is persistent: immutable cons cells
(node, index, below, before), never changed once built, where before
is the whole stack as it was just before the node was read.  Closing a
handle at opener o restores o's before in O(1), with nothing copied or
recorded per letter, so after a splice the scan resumes just left of
the replacement with the exact stack for that prefix.  One sweep
therefore ends with no handle anywhere, and a handle-free nonempty word
is sigma-definite: both signs at the lowest index would put an
adjacent opposite pair of that index around an interior of strictly
larger index, which is a handle.

Words live in a doubly-linked list held as flat integer arrays, so a
splice is local: a reduction rewrites the interior's sigma_(i+1) letters
in place, links one new node on each side of each of them and unlinks
the two outer letters (zeroed, never reused within a sweep), so memory
follows the letters actually inserted.
"""

from __future__ import annotations

import enum
import os

from .braid import (
    DEFAULT_STEP_CAP,
    BraidWord,
    _free_reduce_letters,
    _permutation,
    exponent_counts,
)


class OrderSign(enum.Enum):
    LESS = "LT"
    EQUAL = "EQ"
    GREATER = "GT"


class ReductionCapError(RuntimeError):
    """Handle reduction ran past its step cap.

    The cap exists to distinguish runaway reduction from long but
    legitimate computations; hitting it is never a valid outcome.
    """


STEP_CAP_ENV = "BRAIDTWIST_STEP_CAP"

# When set, every handle_reduce call double-checks that the exponent sum
# and the underlying permutation survived the rewrite.  The test suite
# turns this on globally.
VERIFY_REDUCTIONS = False


def _effective_cap(cap: int | None) -> int:
    if cap is not None:
        if cap < 0:
            raise ValueError(f"step cap must be nonnegative, got {cap}")
        return cap
    return int(os.environ.get(STEP_CAP_ENV, DEFAULT_STEP_CAP))


def _sigma_class(letters) -> tuple[int, int] | None:
    """(lowest generator index, its sign) if that index is single-signed."""
    lowest = 0
    pos = neg = False
    for g in letters:
        i = g if g > 0 else -g
        if lowest == 0 or i < lowest:
            lowest = i
            pos = g > 0
            neg = not pos
        elif i == lowest:
            pos = pos or g > 0
            neg = neg or g < 0
    if lowest == 0 or (pos and neg):
        return None
    return lowest, 1 if pos else -1


def syntactic_sigma_class(w: BraidWord) -> tuple[int, int] | None:
    """(i, +1) if the lowest index i occurs only positively, (i, -1) if
    only negatively, None for the empty word or mixed signs at i."""
    return _sigma_class(w.letters)


_HEAD, _TAIL = 0, 1


def _scan_once(letters: list[int], cap: int, steps: int) -> tuple[list[int], int, int]:
    """One exact sweep, reducing every handle as it closes.

    Returns (new letters, number of reductions, updated step count).
    """
    count = len(letters)
    let = [0, 0]
    let.extend(letters)
    size = count + 2
    nxt = [0] * size
    prv = [0] * size
    previous = _HEAD
    for node in range(2, size):
        nxt[previous] = node
        prv[node] = previous
        previous = node
    nxt[previous] = _TAIL
    prv[_TAIL] = previous

    # Stack cells are (node, index, below, before): before is the stack as
    # it was just before the node was read.  Index 0 at the bottom stops
    # every pop loop.
    stack = (_HEAD, 0, None, None)
    reductions = 0
    cur = nxt[_HEAD]
    while cur != _TAIL:
        g = let[cur]
        i = g if g > 0 else -g
        top = stack
        while top[1] > i:
            top = top[2]
        o = top[0]  # the index-i stack entry left on top, if top[1] == i
        if top[1] == i and let[o] == -g:
            # A handle closes here.  Everything popped above sits inside
            # it and is read again once the interior is rewritten.
            steps += 1
            if steps > cap:
                raise ReductionCapError(
                    f"handle reduction exceeded the {cap}-step cap"
                )
            reductions += 1
            # Rewrite the interior in place: each sigma_(i+1)^d becomes
            # sigma_i^d with one new node on each side, letters of index
            # > i+1 stay, and the opener and the closer are unlinked.
            ip1 = i + 1
            left, right = (ip1, -ip1) if g > 0 else (-ip1, ip1)
            y = nxt[o]
            while y != cur:
                h = let[y]
                hi = h if h > 0 else -h
                after = nxt[y]
                if hi == ip1:
                    let[y] = i if h > 0 else -i
                    before = prv[y]
                    idx = len(let)
                    let.append(left)
                    let.append(right)
                    nxt.append(y)
                    nxt.append(after)
                    prv.append(before)
                    prv.append(y)
                    nxt[before] = idx
                    prv[y] = idx
                    nxt[y] = idx + 1
                    prv[after] = idx + 1
                elif hi <= i:
                    raise RuntimeError(
                        "handle interior holds an index <= that of the handle (engine bug)"
                    )
                y = after
            b = prv[o]
            first = nxt[o]
            nxt[b] = first
            prv[first] = b
            last = prv[cur]
            after = nxt[cur]
            nxt[last] = after
            prv[after] = last
            let[o] = 0
            let[cur] = 0
            stack = top[3]  # the stack exactly as before the opener was read
            cur = nxt[b]
        else:
            if top[1] == i:  # same sign: supersede the old index-i entry
                top = top[2]
            stack = (cur, i, top, stack)
            cur = nxt[cur]

    out: list[int] = []
    y = nxt[_HEAD]
    while y != _TAIL:
        out.append(let[y])
        y = nxt[y]
    return out, reductions, steps


def _reduce_core(letters, cap: int) -> list[int]:
    word = _free_reduce_letters(letters)
    steps = 0
    while word and _sigma_class(word) is None:
        word, reductions, steps = _scan_once(word, cap, steps)
        if not reductions:
            break
    return word


def handle_reduce(w: BraidWord, *, cap: int | None = None) -> BraidWord:
    """Rewrite w into an order-deciding representative of the same braid.

    The output is empty, sigma-positive, or sigma-negative.  Exponent sum
    and underlying permutation are preserved; with VERIFY_REDUCTIONS set
    both are checked on every call.  The permutations are compared only
    on the strands up to the highest index either word uses, plus one:
    both words fix every strand above.
    """
    out = tuple(_reduce_core(w.letters, _effective_cap(cap)))
    # A reduction writes only indices its input holds; one pass keeps that
    # checked without validating each letter again in BraidWord.
    if max(map(abs, out), default=0) >= w.strands:
        raise RuntimeError("reduction wrote a letter beyond the strands (engine bug)")
    reduced = BraidWord._unchecked(w.strands, out)
    if VERIFY_REDUCTIONS:
        if exponent_counts(w)[2] != exponent_counts(reduced)[2]:
            raise RuntimeError("reduction changed the exponent sum (engine bug)")
        moved = max(map(abs, w.letters + reduced.letters), default=1) + 1
        if _permutation(w.letters, moved) != _permutation(reduced.letters, moved):
            raise RuntimeError("reduction changed the permutation (engine bug)")
    return reduced


def order_sign(w: BraidWord, *, cap: int | None = None) -> OrderSign:
    """Position of the braid of w relative to the identity."""
    reduced = handle_reduce(w, cap=cap)
    if not reduced.letters:
        return OrderSign.EQUAL
    sigma = syntactic_sigma_class(reduced)
    if sigma is None:
        raise RuntimeError("reduction returned an unclassifiable word (engine bug)")
    return OrderSign.GREATER if sigma[1] > 0 else OrderSign.LESS


def compare(a: BraidWord, b: BraidWord, *, cap: int | None = None) -> OrderSign:
    """Order sign of a relative to b, i.e. of b^-1 a relative to 1.

    A strict total order on braids (not on words): words that represent
    the same braid compare EQUAL.
    """
    if a.strands != b.strands:
        raise ValueError(f"strand counts differ: {a.strands} vs {b.strands}")
    return order_sign(b.inverse() * a, cap=cap)
