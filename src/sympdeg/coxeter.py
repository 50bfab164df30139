"""Words and elements in the Weyl groups of types A and C.

Elements are stored in one-line notation: a permutation of 1..m for type
A, a signed permutation (images may be negated) for type C.  A word is a
sequence of simple-reflection letters; evaluation processes the letters
left to right, each acting on positions of the running image tuple.
Letter a < m swaps positions a and a+1; in type C the letter m flips the
sign at position m.

Lengths are computed from the geometry (inversions, respectively the
count of positive roots sent to negative ones), so reducedness checks do
not depend on any word combinatorics.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterable, List, NamedTuple, Tuple


def _smaller_to_the_right(values: Iterable[int]) -> List[int]:
    """For distinct values v_1, ..., v_m, the number of b > a with v_b <
    v_a, for each a.  The values right of a are kept sorted, so each
    count is one binary search: O(m log m) comparisons, and m list
    inserts that move at most m pointers each."""
    seen: List[int] = []
    counts = []
    for v in reversed(list(values)):
        counts.append(bisect_left(seen, v))
        insort(seen, v)
    counts.reverse()
    return counts


class PermutationA:
    """A permutation of 1..m in one-line notation."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if any(type(x) is not int for x in images) \
                or sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError("not a permutation of 1..%d: %r" % (len(images), images))
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("PermutationA is immutable")

    @property
    def m(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def length(self) -> int:
        """The number of inversions a < b with w(a) > w(b)."""
        return sum(_smaller_to_the_right(self.images))

    def __eq__(self, other):
        return isinstance(other, PermutationA) and self.images == other.images

    def __hash__(self):
        return hash(("A", self.images))

    def __repr__(self):
        return "PermutationA(%r)" % (self.images,)


class SignedPermutation:
    """A signed permutation: images are +-1..+-m with distinct absolute
    values.  Acts on e_i by e_i -> sign(w(i)) e_|w(i)|."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if any(type(x) is not int or x == 0 for x in images) \
                or sorted(abs(x) for x in images) != list(range(1, len(images) + 1)):
            raise ValueError("not a signed permutation: %r" % (images,))
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("SignedPermutation is immutable")

    @property
    def m(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def length(self) -> int:
        """Number of positive roots of C_m whose image is a negative root.

        A root vector is negative exactly when its first nonzero
        coordinate is, so no chamber combinatorics enters here, and each
        root's verdict reads off the images in O(1), with no vector
        built.  2e_a goes to 2w(a)e_|w(a)|, negative iff w(a) < 0.  For
        a < b, the images of e_a - e_b and e_a + e_b have their first
        nonzero coordinate at min(|w(a)|, |w(b)|).  If |w(a)| is the
        smaller, both take the sign of w(a).  Otherwise e_a - e_b goes
        negative iff w(b) > 0 and e_a + e_b iff w(b) < 0: exactly one
        of the two.
        """
        images = self.images
        m = len(images)
        count = 0
        # below: the b > a with |w(b)| < |w(a)|, which send exactly one root each
        for a, (x, below) in enumerate(zip(images, _smaller_to_the_right(map(abs, images)))):
            count += below
            if x < 0:
                # 2e_a, and both roots e_a -+ e_b for every other b > a
                count += 1 + 2 * (m - 1 - a - below)
        return count

    def __eq__(self, other):
        return isinstance(other, SignedPermutation) and self.images == other.images

    def __hash__(self):
        return hash(("C", self.images))

    def __repr__(self):
        return "SignedPermutation(%r)" % (self.images,)


class WeylWord(NamedTuple):
    """A word in simple reflections: kind "A" or "C", rank m, letters.

    Type A words act on m symbols (letters 1..m-1); type C words have
    letters 1..m, where the letter m is the sign flip.
    """

    kind: str
    m: int
    letters: Tuple[int, ...]

    @classmethod
    def make(cls, kind: str, m: int, letters) -> "WeylWord":
        letters = tuple(letters)
        if kind not in ("A", "C"):
            raise ValueError("kind must be 'A' or 'C', got %r" % (kind,))
        if type(m) is not int or m < 1:
            raise ValueError("rank must be a positive integer, got %r" % (m,))
        top = m - 1 if kind == "A" else m
        for a in letters:
            if not (type(a) is int and 1 <= a <= top):
                raise ValueError("letter %r out of range 1..%d" % (a, top))
        return cls(kind, m, letters)


def evaluate(word: WeylWord):
    """One-line element of a word, letters applied left to right."""
    images = list(range(1, word.m + 1))
    for a in word.letters:
        if word.kind == "C" and a == word.m:
            images[a - 1] = -images[a - 1]
        else:
            images[a - 1], images[a] = images[a], images[a - 1]
    if word.kind == "A":
        return PermutationA(images)
    return SignedPermutation(images)


def is_reduced(word: WeylWord) -> bool:
    return len(word.letters) == evaluate(word).length()


def word_to_str(word: WeylWord) -> str:
    return " ".join("s%d" % a for a in word.letters)
