"""Built-in corpus sanity."""

import json
import os

from seqcm.corpus import COMPLEXES, IDEALS, corpus_complex, corpus_ideal, write_corpus


def test_sizes_and_bounds():
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


def test_write_corpus(tmp_path):
    written = write_corpus(str(tmp_path))
    assert len(written) == 29
    with open(tmp_path / "A1.json") as fh:
        data = json.load(fh)
    assert data["generators"] == ["x1^2", "x2^2"]
    with open(tmp_path / "C4.json") as fh:
        data = json.load(fh)
    assert data["facets"] == [[1, 2], [1, 3], [2, 3]]


def test_write_corpus_reproduces_the_corpus_directory(tmp_path):
    # corpus/ holds the entries of seqcm.corpus a second time, byte for byte.
    corpus = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
    written = {os.path.basename(p): p for p in write_corpus(str(tmp_path))}
    assert sorted(written) == sorted(os.listdir(corpus))
    for name, path in written.items():
        with open(path, "rb") as new, open(os.path.join(corpus, name), "rb") as old:
            assert new.read() == old.read(), name
