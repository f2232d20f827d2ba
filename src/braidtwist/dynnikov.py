"""Dehornoy order by Dynnikov coordinates: a second, independent engine.

B_n acts on Z^(2n) by piecewise-linear integer maps (I. A. Dynnikov,
"On a Yang-Baxter map and the Dehornoy ordering", Russian Math. Surveys
57, 2002; Dehornoy, Dynnikov, Rolfsen, Wiest, *Ordering Braids*, AMS
2008).  The coordinates (a_1, b_1, ..., a_n, b_n) of the standard
lamination start at (0, 1, ..., 0, 1), and letters act left to right.
With x+ = max(x, 0) and x- = min(x, 0), sigma_i^(+-1) changes only
(a, b, a', b') = (a_i, b_i, a_(i+1), b_(i+1)):

    sigma_i:     c = a - b- - a' + b'+
                 (a + b+ + (b'+ - c)+,  b' - c+,  a' + b'- + (b- + c)-,  b + c+)
    sigma_i^-1:  d = a + b- - a' - b'+
                 (a - b+ - (b'+ + d)+,  b' + d-,  a' - b'- - (b- - d)-,  b - d-)

The braid is sigma-positive, sigma-negative or trivial as the first
nonzero entry of (coordinates - start) is positive, negative or absent.
A word costs O(len) integer operations on 4 entries each and nothing is
rewritten, so a state can be kept and extended letter by letter; the
entries grow at most exponentially in the word length, so their bit
length grows at most linearly.  Handle reduction (the ordering module)
stays the engine that certifies results; this one searches and serves
as a differential oracle.
"""

from __future__ import annotations


def start(n: int) -> list[int]:
    """Coordinates of the standard lamination on n strands (the identity braid)."""
    return [0, 1] * n


def act(coords: list[int], letters) -> list[int]:
    """Apply the letters left to right to coords, in place, and return coords."""
    for g in letters:
        j = 2 * g - 2 if g > 0 else -2 * g - 2
        a = coords[j]
        b = coords[j + 1]
        a2 = coords[j + 2]
        b2 = coords[j + 3]
        bm = b if b < 0 else 0  # b- (and b+ = b - b-)
        b2p = b2 if b2 > 0 else 0  # b'+ (and b'- = b' - b'+)
        if g > 0:
            c = a - bm - a2 + b2p
            cp = c if c > 0 else 0
            x = b2p - c
            y = bm + c
            coords[j] = a + b - bm + (x if x > 0 else 0)
            coords[j + 1] = b2 - cp
            coords[j + 2] = a2 + b2 - b2p + (y if y < 0 else 0)
            coords[j + 3] = b + cp
        else:
            d = a + bm - a2 - b2p
            dm = d if d < 0 else 0
            x = b2p + d
            y = bm - d
            coords[j] = a - b + bm - (x if x > 0 else 0)
            coords[j + 1] = b2 + dm
            coords[j + 2] = a2 - b2 + b2p - (y if y < 0 else 0)
            coords[j + 3] = b - dm
    return coords


def sign(coords: list[int]) -> int:
    """+1, -1 or 0 as the braid that moved the start to coords is >, < or = 1."""
    for k, x in enumerate(coords):
        x -= k & 1  # the start is 0 at even positions, 1 at odd ones
        if x:
            return 1 if x > 0 else -1
    return 0

