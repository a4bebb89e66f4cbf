"""The Q-orders the suites run over, grown one point at a time from the
lower and upper sets of the orders one point smaller, against the
product of every hom table that they replaced."""

import itertools

import pytest

from qideal.qorder import QOrderedSet, qorder_violation
from qideal.quantale import (
    boolean4,
    godel_chain,
    lukasiewicz_chain,
    nilpotent_minimum_chain,
)
from qideal.suites import _qorder_layers

from test_quantale import m3_with_top

LABELS = ("x0", "x1", "x2")


def product_oracle(q, labels, separated):
    """Every hom table on labels, in lexicographic order of its
    off-diagonal entries row by row, that is reflexive and transitive
    and, with separated, has no two points with hom 1 both ways."""
    n = len(labels)
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for entries in itertools.product(range(q.n), repeat=len(off)):
        hom = [[q.unit] * n for _ in range(n)]
        for (i, j), v in zip(off, entries):
            hom[i][j] = v
        if separated and any(hom[i][j] == hom[j][i] == q.unit for i, j in off):
            continue
        if qorder_violation(q, hom) is None:
            out.append(QOrderedSet(q, labels, tuple(map(tuple, hom))))
    return out


QUANTALES = [boolean4(), lukasiewicz_chain(3), godel_chain(4), nilpotent_minimum_chain(3),
             nilpotent_minimum_chain(5), m3_with_top()]


@pytest.mark.parametrize("separated", [False, True])
@pytest.mark.parametrize("q", QUANTALES,
                         ids=["boolean4", "L3", "godel4", "NM3", "NM5", "M3-with-top"])
def test_layers_match_the_product_of_hom_tables(q, separated):
    layers = _qorder_layers(q, LABELS, None, separated)
    assert [list(layer) for layer in layers] == [
        product_oracle(q, LABELS[:k], separated) for k in (1, 2, 3)]


def test_crisp_posets_match_the_product_up_to_four_points():
    labels = ("p0", "p1", "p2", "p3")
    b2 = godel_chain(2)
    layers = _qorder_layers(b2, labels, None, True)
    assert [list(layer) for layer in layers] == [
        product_oracle(b2, labels[:k], True) for k in (1, 2, 3, 4)]


def test_crisp_posets_on_five_points_are_the_labeled_posets():
    # OEIS A001035; the product over 2^20 tables is left out for time
    layers = _qorder_layers(godel_chain(2), tuple(f"p{i}" for i in range(5)), None, True)
    assert [len(layer) for layer in layers] == [1, 3, 19, 219, 4231]
