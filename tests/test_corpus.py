"""Built-in corpus sanity."""

import json

from corpus_entries import (
    COMPLEXES,
    IDEALS,
    PATHS,
    corpus_complex,
    corpus_ideal,
)
from seqcm.cli import _load
from seqcm.groebner import PolynomialIdeal
from seqcm.simplicial import SimplicialComplex


def test_sizes_and_bounds():
    # Each file loads as the kind its keys name, and carries its own name
    # (the file stem) and a note.
    kinds = {"generators": ("ideal", PolynomialIdeal),
             "facets": ("complex", SimplicialComplex)}
    for name, path in PATHS.items():
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        (key,) = set(data) & set(kinds)
        kind, cls = kinds[key]
        assert isinstance(_load(path, kind), cls), name
        assert data["name"] == name and data["note"], name
    assert len(IDEALS) == 12
    assert len(COMPLEXES) == 17
    for name in IDEALS:
        ideal = corpus_ideal(name)
        assert 1 <= ideal.n <= 4
        assert ideal.max_gen_degree() <= 3
        assert not ideal.is_zero()
    for name in COMPLEXES:
        assert corpus_complex(name).n <= 6


def test_entries_load():
    assert str(corpus_ideal("A2")) == "(x1*x2)"
    assert corpus_complex("C6").facets == ((1, 2), (3, 4))
    assert corpus_complex("C3").is_irrelevant()
    assert corpus_complex("C15").f_vector() == (1, 6, 12, 8)
