"""The examples in the package's docstrings are part of the suite."""

import doctest
import importlib
import pkgutil

import seqcm


def test_module_doctests():
    failed = attempted = 0
    for info in pkgutil.iter_modules(seqcm.__path__):
        module = importlib.import_module("seqcm." + info.name)
        result = doctest.testmod(module)
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted > 0
