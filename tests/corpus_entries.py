"""The corpus entries, read from corpus/*.json by the command line's loader.

The JSON files are the one copy of the corpus; each entry's name is its
file stem, and the keys of the file make it an ideal or a complex.
"""

import os

from seqcm.cli import _load
from seqcm.groebner import PolynomialIdeal
from seqcm.simplicial import SimplicialComplex

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")

# name -> path of every corpus file
PATHS = {f[:-len(".json")]: os.path.join(CORPUS, f)
         for f in sorted(os.listdir(CORPUS)) if f.endswith(".json")}
_VALUES = {name: _load(path) for name, path in PATHS.items()}
IDEALS = {name: value for name, value in _VALUES.items()
          if isinstance(value, PolynomialIdeal)}
COMPLEXES = {name: value for name, value in _VALUES.items()
             if isinstance(value, SimplicialComplex)}


def corpus_ideal(name):
    return IDEALS[name]


def corpus_complex(name):
    return COMPLEXES[name]
