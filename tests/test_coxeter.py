import itertools
import random

import pytest

from sympdeg.coxeter import (
    PermutationA, SignedPermutation, WeylWord, evaluate, is_reduced,
)


# --- convention-free brute force: lengths from inversions and root signs ---

def _a_length(images):
    n = len(images)
    return sum(1 for i in range(n) for j in range(i + 1, n)
               if images[i] > images[j])


def _c_length(images):
    m = len(images)
    count = 0
    for a in range(1, m + 1):
        value = [0] * m
        value[abs(images[a - 1]) - 1] = 2 if images[a - 1] > 0 else -2
        if value[next(i for i, x in enumerate(value) if x)] < 0:
            count += 1
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            for cb in (-1, 1):
                value = [0] * m
                value[abs(images[a - 1]) - 1] += 1 if images[a - 1] > 0 else -1
                idx = abs(images[b - 1]) - 1
                sign = cb if images[b - 1] > 0 else -cb
                value[idx] += sign
                first = next((x for x in value if x), 0)
                if first < 0:
                    count += 1
    return count


def test_word_make_validation():
    WeylWord.make("A", 3, [1, 2, 1])
    WeylWord.make("C", 3, [3, 2, 3])
    with pytest.raises(ValueError):
        WeylWord.make("A", 3, [3])
    with pytest.raises(ValueError):
        WeylWord.make("C", 3, [4])
    with pytest.raises(ValueError):
        WeylWord.make("B", 3, [1])
    with pytest.raises(ValueError):
        WeylWord.make("A", 3, [0])


@pytest.mark.parametrize("kind, m, letters", [
    ("A", 3, [True, 2]), ("C", 3, [1, 2.0]), ("C", True, [1]),
    ("A", 3.0, [1]), ("C", 2.5, []),
])
def test_word_make_rejects_bools_and_non_integers(kind, m, letters):
    with pytest.raises(ValueError):
        WeylWord.make(kind, m, letters)


def test_evaluate_type_a():
    w = WeylWord.make("A", 3, [1, 2])
    p = evaluate(w)
    assert isinstance(p, PermutationA)
    assert p.images == (2, 3, 1)
    assert p.length() == 2
    assert is_reduced(w)


def test_evaluate_type_c_anchors():
    w = WeylWord.make("C", 2, [2, 1, 2])
    s = evaluate(w)
    assert isinstance(s, SignedPermutation)
    assert s.images == (-2, -1)
    assert s.length() == 3
    assert is_reduced(w)

    w = WeylWord.make("C", 4, [4, 3, 4, 2, 3, 4, 1])
    s = evaluate(w)
    assert s.images == (-4, 1, -3, -2)
    assert s.length() == 7
    assert is_reduced(w)


def test_evaluate_long_type_a_anchor():
    w = WeylWord.make("A", 8, [3, 4, 5, 6, 7, 2, 3, 4, 5, 2, 3, 4, 2, 3, 1])
    p = evaluate(w)
    assert p.images == (6, 1, 7, 5, 4, 2, 8, 3)
    assert p.length() == 15
    assert is_reduced(w)


def test_not_reduced():
    assert not is_reduced(WeylWord.make("A", 2, [1, 1]))
    assert not is_reduced(WeylWord.make("C", 2, [2, 2]))
    assert is_reduced(WeylWord.make("C", 2, []))


def test_signed_length_matches_brute():
    """The O(1)-per-root sign rule of length against the root vectors
    themselves: every signed permutation with m <= 6."""
    for m in range(1, 7):
        for images in itertools.permutations(range(1, m + 1)):
            for signs in itertools.product((1, -1), repeat=m):
                signed = tuple(v * s for v, s in zip(images, signs))
                assert SignedPermutation(signed).length() == _c_length(signed)


def test_signed_length_matches_brute_seeded():
    rng = random.Random(1407)
    for _ in range(500):
        m = rng.randint(7, 30)
        images = list(range(1, m + 1))
        rng.shuffle(images)
        signed = tuple(v * rng.choice((1, -1)) for v in images)
        assert SignedPermutation(signed).length() == _c_length(signed)


@pytest.mark.parametrize("images", [
    [True, 2], [2, True], [1.0, 2], [2.0, 1.0], ["1"],
])
def test_permutation_rejects_bools_and_non_integers(images):
    """sorted() compares True and 1.0 equal to 1, so these looked like
    permutations and kept the bool or float as an image."""
    with pytest.raises(ValueError):
        PermutationA(images)


@pytest.mark.parametrize("images", [
    [-2, True], [True], [-1.0], [2, -1.0], ["1"],
])
def test_signed_permutation_rejects_bools_and_non_integers(images):
    with pytest.raises(ValueError):
        SignedPermutation(images)


def test_a_length_matches_inversions():
    for images in itertools.permutations(range(1, 5)):
        assert PermutationA(images).length() == _a_length(images)


@pytest.mark.parametrize("cls, images, other, tag", [
    (PermutationA, (2, 3, 1), (3, 2, 1), "A"),
    (SignedPermutation, (-2, 3, 1), (2, 3, 1), "C"),
])
def test_permutation_value_classes(cls, images, other, tag):
    """Equality, hash and repr go by the one-line images; m is their
    number and w(i) the image of i; assignment raises."""
    w = cls(images)
    assert w == cls(list(images)) and hash(w) == hash(cls(images)) == hash((tag, images))
    assert w != cls(other) and w != images
    assert repr(w) == "%s(%r)" % (cls.__name__, images)
    assert w.m == 3 and [w(i) for i in (1, 2, 3)] == list(images)
    with pytest.raises(AttributeError, match="^%s is immutable$" % cls.__name__):
        w.images = other


def test_a_length_matches_inversions_seeded():
    """The binary-search count against the double loop, m = 5..200."""
    rng = random.Random(1408)
    for _ in range(300):
        images = list(range(1, rng.randint(5, 200) + 1))
        rng.shuffle(images)
        assert PermutationA(images).length() == _a_length(images)
