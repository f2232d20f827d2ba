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
(position, index, below, before), never changed once built, where
before is the whole stack as it was just before that letter was read.
Closing a handle at opener o restores o's before in O(1), with nothing
copied or recorded per letter, so after a splice the scan resumes just
left of the replacement with the exact stack for that prefix.  One sweep
therefore ends with no handle anywhere, and a handle-free nonempty word
is sigma-definite: both signs at the lowest index would put an
adjacent opposite pair of that index around an interior of strictly
larger index, which is a handle.  So a reduction sweeps at most once:
not at all if the freely reduced word is already empty or
sigma-definite, and a swept word that is neither raises RuntimeError.

A sweep holds two plain lists: the letters read, and those still to
read, reversed so that the next is last.  A handle closing against the
opener at position o cuts the first list back to o and pushes its
rewritten interior onto the second; no stack entry below o moves.  So
a splice costs O(interior) and a sweep holds only the current letters.
"""

from __future__ import annotations

import enum

from .braid import (
    DEFAULT_STEP_CAP,
    BraidWord,
    _free_reduce_letters,
    _moved,
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


# When set, every handle_reduce call double-checks that the exponent sum
# and the underlying permutation survived the rewrite.  The test suite
# turns this on globally.
VERIFY_REDUCTIONS = False


def _effective_cap(cap: int | None) -> int:
    """cap, else DEFAULT_STEP_CAP; ValueError if cap is negative."""
    if cap is None:
        return DEFAULT_STEP_CAP
    if cap < 0:
        raise ValueError(f"step cap must be nonnegative, got {cap}")
    return cap


def _sigma_class(letters) -> tuple[int, int] | None:
    """(lowest generator index, its sign) if that index is single-signed;
    letters is a list or a tuple."""
    if not letters:
        return None
    lowest = min(map(abs, letters))
    pos, neg = lowest in letters, -lowest in letters
    if pos and neg:
        return None
    return lowest, 1 if pos else -1


def _scan_once(letters: list[int], cap: int) -> tuple[list[int], int]:
    """One exact sweep, reducing every handle as it closes; returns (new
    letters, number of reductions), at most cap reductions."""
    done: list[int] = []  # the letters read so far
    todo = letters[::-1]  # the letters still to read, the next one last
    # Stack cells are (position in done, index, below, before): before is
    # the stack as it was just before the letter was read.  Index 0 at the
    # bottom stops every pop loop.
    stack = (-1, 0, None, None)
    reductions = 0
    while todo:
        g = todo.pop()
        i = g if g > 0 else -g
        top = stack
        while top[1] > i:
            top = top[2]
        o = top[0]  # the index-i stack entry left on top, if top[1] == i
        if top[1] == i and done[o] == -g:
            # A handle closes here.  Everything popped above sits inside
            # it and is read again once the interior is rewritten.
            reductions += 1
            if reductions > cap:
                raise ReductionCapError(f"handle reduction exceeded the {cap}-step cap")
            # Push the interior back to be read, rewritten: each
            # sigma_(i+1)^d becomes sigma_(i+1)^-e sigma_i^d sigma_(i+1)^e,
            # letters of index > i+1 stay, and the opener and the closer go.
            ip1 = i + 1
            left, right = (ip1, -ip1) if g > 0 else (-ip1, ip1)
            for h in done[:o:-1]:
                hi = h if h > 0 else -h
                if hi == ip1:
                    todo += (right, i if h > 0 else -i, left)
                elif hi > i:
                    todo.append(h)
                else:
                    raise RuntimeError(
                        "handle interior holds an index <= that of the handle (engine bug)"
                    )
            del done[o:]
            stack = top[3]  # the stack exactly as before the opener was read
        else:
            if top[1] == i:  # same sign: supersede the old index-i entry
                top = top[2]
            stack = (len(done), i, top, stack)
            done.append(g)
    return done, reductions


def _reduce_core(letters, cap: int) -> list[int]:
    """The freely reduced letters if they are empty or sigma-definite,
    else one sweep of them, which leaves no handle: its result must be
    empty or sigma-definite."""
    word = _free_reduce_letters(letters)
    if not word or _sigma_class(word) is not None:
        return word
    word = _scan_once(word, cap)[0]
    if word and _sigma_class(word) is None:
        raise RuntimeError(
            "a sweep left a word that is neither empty nor sigma-definite (engine bug)"
        )
    return word


def handle_reduce(w: BraidWord, *, cap: int | None = None) -> BraidWord:
    """Rewrite w into an order-deciding representative of the same braid.

    The output is empty, sigma-positive, or sigma-negative; a sweep that
    leaves anything else raises RuntimeError.  Exponent sum
    and underlying permutation are preserved; with VERIFY_REDUCTIONS set
    both are checked on every call.  The permutations are compared only
    on the strands the words move (braid._moved).
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
        if _moved(w.letters) != _moved(reduced.letters):
            raise RuntimeError("reduction changed the permutation (engine bug)")
    return reduced


def order_sign(w: BraidWord, *, cap: int | None = None) -> OrderSign:
    """Position of the braid of w relative to the identity: the sign of a
    lowest-index letter of the reduced word, which handle_reduce has
    already found empty or sigma-definite."""
    reduced = handle_reduce(w, cap=cap).letters
    if not reduced:
        return OrderSign.EQUAL
    return OrderSign.GREATER if min(reduced, key=abs) > 0 else OrderSign.LESS


def compare(a: BraidWord, b: BraidWord, *, cap: int | None = None) -> OrderSign:
    """Order sign of a relative to b, i.e. of b^-1 a relative to 1.

    A strict total order on braids (not on words): words that represent
    the same braid compare EQUAL.
    """
    if a.strands != b.strands:
        raise ValueError(f"strand counts differ: {a.strands} vs {b.strands}")
    return order_sign(b.inverse() * a, cap=cap)
