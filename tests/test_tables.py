"""Hilbert function, Betti table, and cohomology table containers."""

from fractions import Fraction

import pytest

from seqcm.errors import InconsistencyError
from seqcm.tables import BettiTable, CohomologyTable, HilbertFunction


def test_hilbert_window_and_values():
    h = HilbertFunction((0, 4), {0: 1, 1: 3, 2: 6, 3: 0})
    assert h.values == {0: 1, 1: 3, 2: 6}
    assert h.value(3) == 0
    with pytest.raises(ValueError):
        HilbertFunction((2, 1), {})
    with pytest.raises(ValueError):
        HilbertFunction((0, 2), {5: 1})
    with pytest.raises(ValueError):
        HilbertFunction((0, 2), {1: -1})


def test_hilbert_tails():
    h = HilbertFunction((0, 4), {d: d + 1 for d in range(5)},
                        tails=(None, (1, 1)))
    assert h.value(10) == 11
    with pytest.raises(KeyError):
        h.value(-1)
    # A tail that contradicts the outermost window values is rejected.
    with pytest.raises(InconsistencyError):
        HilbertFunction((0, 4), {d: d + 1 for d in range(5)}, tails=(None, (7,)))
    # A tail evaluating to a non-integer outside the window is caught on use.
    h = HilbertFunction((0, 1), {0: 1, 1: 1}, tails=(None, (1, 0, 0)))
    assert h.value(5) == 1


def test_tail_checks_keep_their_strength():
    # The left tail gives 1/3 at degree 0, where the window says 1.
    with pytest.raises(InconsistencyError):
        HilbertFunction((0, 2), {0: 1}, ((Fraction(1, 3), Fraction(2, 3)), None))
    # 1/2 - 3/4 d + 1/4 d^2 is 0 at degrees 1 and 2, so the window accepts
    # it, but it is 1/2 at degree 3 and 3/2 at degree 4: not dimensions.
    h = HilbertFunction((0, 2), {}, (None, (Fraction(1, 2), Fraction(-3, 4),
                                            Fraction(1, 4))))
    for d in (3, 4):
        with pytest.raises(InconsistencyError):
            h.value(d)
    # 1 - d is 0 at degree 1 and -1 at degree 2: a negative dimension.
    h = HilbertFunction((0, 1), {0: 1}, (None, (1, -1)))
    with pytest.raises(InconsistencyError):
        h.value(2)
    # Mixed denominators: 1 + 3/2 d + 1/2 d^2 is dim K[x1, x2, x3]_d.
    h = HilbertFunction((0, 1), {0: 1, 1: 3},
                        (None, (1, Fraction(3, 2), Fraction(1, 2))))
    assert [h.value(d) for d in range(2, 6)] == [6, 10, 15, 21]


def test_hilbert_json_is_pinned():
    h = HilbertFunction((-3, 2), {-3: 2, -2: 1},
                        tails=((Fraction(-1), Fraction(-1)), ()))
    assert h.to_json() == {"window": [-3, 2], "values": [[-3, 2], [-2, 1]],
                           "tails": {"left": ["-1", "-1"], "right": []}}
    assert h.value(-12) == 11
    # dim K[x1, x2, x3]_d = 1 + 3/2 d + 1/2 d^2; no tail prints as null.
    h = HilbertFunction((0, 1), {0: 1, 1: 3},
                        tails=(None, (1, Fraction(3, 2), Fraction(1, 2))))
    assert h.to_json() == {"window": [0, 1], "values": [[0, 1], [1, 3]],
                           "tails": {"left": None,
                                     "right": ["1", "3/2", "1/2"]}}


def test_equality_reads_the_tails():
    # Equal window values with different right tails (1 and 1 + d(d - 1))
    # are different functions, as their JSON is, and so are their tables.
    a = HilbertFunction((0, 1), {0: 1, 1: 1}, tails=(None, (1,)))
    b = HilbertFunction((0, 1), {0: 1, 1: 1}, tails=(None, (1, -1, 1)))
    assert a.to_json() != b.to_json() and a.value(2) != b.value(2)
    assert a != b
    assert a == HilbertFunction((0, 1), {0: 1, 1: 1}, tails=(None, (1,)))
    assert CohomologyTable((0, 1), {0: a}) != CohomologyTable((0, 1), {0: b})
    assert CohomologyTable((0, 1), {0: a}) == CohomologyTable((0, 1), {0: a})


def test_hilbert_comparisons():
    a = HilbertFunction((0, 3), {0: 1, 1: 2})
    b = HilbertFunction((0, 3), {0: 1, 1: 2, 2: 1})
    assert a.leq_on(b, (0, 3))
    assert not b.leq_on(a, (0, 3))
    assert not a.equal_on(b, (0, 3))
    assert a.equal_on(b, (0, 1))


def test_betti_basics():
    t = BettiTable("quotient", {(0, 0): 1, (1, 2): 2, (2, 3): 1, (1, 5): 0})
    assert t.value(1, 2) == 2 and t.value(1, 5) == 0
    assert t.projective_dimension() == 2
    with pytest.raises(ValueError):
        BettiTable("module", {})
    with pytest.raises(ValueError):
        BettiTable("ideal", {(0, 1): -2})


def test_betti_comparisons():
    a = BettiTable("ideal", {(0, 2): 2, (1, 4): 1})
    b = BettiTable("ideal", {(0, 2): 2, (0, 3): 1, (1, 3): 1, (1, 4): 1})
    assert a.entrywise_leq(b)
    assert not b.entrywise_leq(a)
    assert a.first_difference(b) == (0, 3)
    assert a.first_difference(a) is None
    assert a != b


def test_betti_json_and_tsv():
    t = BettiTable("quotient", {(0, 0): 1, (1, 2): 1})
    assert t.to_json() == {"module": "quotient",
                           "entries": [[0, 0, 1], [1, 2, 1]]}
    tsv = t.to_tsv()
    lines = tsv.strip().split("\n")
    assert lines[0].split("\t") == ["i\\j", "0", "1", "2"]
    assert lines[1].split("\t") == ["0", "1", "0", "0"]
    assert lines[2].split("\t") == ["1", "0", "0", "1"]


def _table(window, data, tails=None):
    funcs = {}
    for i, values in data.items():
        funcs[i] = HilbertFunction(window, values,
                                   (tails or {}).get(i, (None, None)))
    return CohomologyTable(window, funcs)


def test_cohomology_value_and_indices():
    t = _table((-3, 1), {1: {0: 1, -1: 2}, 2: {-3: 1}})
    assert t.value(1, -1) == 2
    assert t.value(0, 0) == 0
    assert t.value(5, -2) == 0
    assert t.indices() == [1, 2]
    with pytest.raises(ValueError):
        CohomologyTable((0, 1), {1: HilbertFunction((0, 2), {})})


def test_cohomology_diff_and_equal():
    a = _table((-2, 1), {1: {0: 1}})
    b = _table((-2, 1), {1: {0: 1, -1: 1}})
    assert not a.equal_on(b)
    assert a.leq_on(b)
    assert a.diff(b) == [(1, -1, 0, 1)]
    assert b.diff(a) == [(1, -1, 1, 0)]
    assert a.equal_on(b, window=(0, 1))


def test_cohomology_shared_window():
    a = _table((-4, 0), {1: {0: 1}})
    b = _table((-2, 2), {1: {0: 1}})
    assert a.equal_on(b)
    with pytest.raises(ValueError):
        _table((-4, -2), {}).equal_on(_table((0, 1), {}))


def test_cohomology_tails_reach_outside():
    # The zero right tail must match the two outermost window degrees.
    tails = {1: ((Fraction(2),), ())}
    a = _table((-3, 2), {1: {-3: 2, -2: 2, -1: 2, 0: 1}}, tails)
    assert a.value(1, -9) == 2
    assert a.value(1, 7) == 0


def test_cohomology_json_is_pinned():
    tails = {1: ((Fraction(2),), ())}
    a = _table((-3, 2), {1: {-3: 2, -2: 2, -1: 2, 0: 1}, 2: {-3: 1}}, tails)
    assert a.to_json() == {
        "window": [-3, 2],
        "h": {"1": [[-3, 2], [-2, 2], [-1, 2], [0, 1]], "2": [[-3, 1]]},
        "tails": {"1": {"left": ["2"], "right": []},
                  "2": {"left": None, "right": None}}}
    assert a.value(1, -11) == 2
