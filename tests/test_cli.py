"""Command line behavior: payloads, determinism, exit codes."""

from fractions import Fraction
import hashlib
import io
import json
from math import comb
import os
import re
import sys
import tempfile
import time

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from seqcm import cli, errors, groebner, simplicial
from seqcm.cli import _load, build_parser, main
from seqcm.decide import MAX_WINDOW_WIDTH, widen_window
from seqcm.groebner import GinCache, PolynomialIdeal
from seqcm.oracles import KOSZUL_MAX_BOUND
from seqcm.tables import CohomologyTable, HilbertFunction
from test_decide import (
    direct_dual_verdict,
    flip_the_skeleta,
    lower_the_shifted_side,
    raise_a_hochster_entry,
)
from test_groebner import counted_engine_runs
from test_oracles import _random_complex

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def edge_ideal(tmp_path):
    return write_json(tmp_path, "edge.json", {"n": 2, "generators": ["x1*x2"]})


@pytest.fixture
def hollow_complex(tmp_path):
    return write_json(tmp_path, "hollow.json",
                      {"n": 3, "facets": [[1, 2], [1, 3], [2, 3]]})


@pytest.fixture
def edges_complex(tmp_path):
    return write_json(tmp_path, "edges.json",
                      {"n": 4, "facets": [[1, 2], [3, 4]]})


def test_gin_payload_and_determinism(capsys, edge_ideal):
    code, out, err = run(capsys, "gin", edge_ideal, "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["gin"] == {"n": 2, "generators": ["x1^2"]}
    assert payload["seed"] == 5
    code, again, _ = run(capsys, "gin", edge_ideal, "--seed", "5")
    assert code == 0 and again == out


def test_gin_tsv(capsys, edge_ideal):
    code, out, _ = run(capsys, "gin", edge_ideal, "--seed", "5",
                       "--format", "tsv")
    assert code == 0
    assert out == "x1^2\n"


def test_gin_entropy_seed(capsys, edge_ideal):
    code, out, err = run(capsys, "gin", edge_ideal)
    assert code == 0
    assert "chosen from entropy" in err
    payload = json.loads(out)
    assert payload["gin"]["generators"] == ["x1^2"]
    assert isinstance(payload["seed"], int)


def test_gin_cache_dir(capsys, edge_ideal, tmp_path):
    cache = tmp_path / "cache"
    code, first, _ = run(capsys, "gin", edge_ideal, "--seed", "5",
                         "--cache-dir", str(cache))
    assert code == 0
    assert any(name.endswith(".json") for name in os.listdir(cache))
    code, second, _ = run(capsys, "gin", edge_ideal, "--seed", "5",
                          "--cache-dir", str(cache))
    assert code == 0 and second == first


def test_gin_cache_corrupt_entry_is_rewritten(capsys, edge_ideal, tmp_path):
    cache = tmp_path / "cache"
    code, first, _ = run(capsys, "gin", edge_ideal, "--seed", "5",
                         "--cache-dir", str(cache))
    assert code == 0
    (entry,) = os.listdir(cache)
    (cache / entry).write_text("{garbage")
    code, second, err = run(capsys, "gin", edge_ideal, "--seed", "5",
                            "--cache-dir", str(cache))
    assert code == 0 and second == first and err == ""
    assert os.listdir(cache) == [entry]
    assert json.loads((cache / entry).read_text())["gin"]["generators"] == ["x1^2"]


def test_gin_cache_entry_with_a_non_monomial_generator_is_rewritten(
        capsys, monkeypatch, tmp_path):
    # Read by its leading monomial, ["x1 + x2"] would pass as the strongly
    # stable (x1); a gin has monomial generators, so the entry is corrupt.
    monkeypatch.setattr(GinCache, "_memory", {})
    path = write_json(tmp_path, "ideal.json",
                      {"n": 3, "generators": ["x1*x2 - x3^2", "x2^2"]})
    cache = tmp_path / "cache"
    code, first, _ = run(capsys, "gin", path, "--seed", "5",
                         "--cache-dir", str(cache))
    assert code == 0
    (entry,) = os.listdir(cache)
    data = json.loads((cache / entry).read_text())
    data["gin"]["generators"] = ["x1 + x2"]
    (cache / entry).write_text(json.dumps(data))
    monkeypatch.setattr(GinCache, "_memory", {})
    code, second, err = run(capsys, "gin", path, "--seed", "5",
                            "--cache-dir", str(cache))
    assert code == 0 and second == first and err == ""
    assert json.loads((cache / entry).read_text())["gin"] == \
        json.loads(first)["gin"]


def test_gin_cache_entry_that_is_not_strongly_stable_is_rewritten(
        capsys, edge_ideal, tmp_path):
    # In characteristic zero a gin is strongly stable; (x2^2) is not.
    cache = tmp_path / "cache"
    code, first, _ = run(capsys, "gin", edge_ideal, "--seed", "5",
                         "--cache-dir", str(cache))
    assert code == 0
    (entry,) = os.listdir(cache)
    data = json.loads((cache / entry).read_text())
    data["gin"]["generators"] = ["x2^2"]
    (cache / entry).write_text(json.dumps(data))
    code, second, err = run(capsys, "gin", edge_ideal, "--seed", "5",
                            "--cache-dir", str(cache))
    assert code == 0 and second == first and err == ""
    assert json.loads((cache / entry).read_text())["gin"]["generators"] == ["x1^2"]


@pytest.mark.parametrize("field", ["version", "seed", "n"])
def test_gin_cache_entry_of_another_version_seed_or_n_is_rewritten(
        capsys, monkeypatch, edge_ideal, tmp_path, field):
    # An entry at the right path that names another version, seed or n is
    # a miss: the gin is recomputed and the entry rewritten.
    cache = tmp_path / "cache"
    code, first, _ = run(capsys, "gin", edge_ideal, "--seed", "5",
                         "--cache-dir", str(cache))
    assert code == 0
    (entry,) = os.listdir(cache)
    written = (cache / entry).read_text()
    data = json.loads(written)
    if field == "n":
        data["gin"]["n"] = 3
    else:
        data[field] = {"version": "0.0.0", "seed": 6}[field]
    (cache / entry).write_text(json.dumps(data))
    monkeypatch.setattr(GinCache, "_memory", {})
    runs = counted_engine_runs(monkeypatch)
    code, second, err = run(capsys, "gin", edge_ideal, "--seed", "5",
                            "--cache-dir", str(cache))
    assert (code, second, err) == (0, first, "")
    assert runs and (cache / entry).read_text() == written


def test_gin_cache_dir_that_cannot_be_made_is_refused_before_any_gin(
        capsys, monkeypatch, edge_ideal, tmp_path):
    def no_engine(*args, **kwargs):
        raise AssertionError("gin ran")

    monkeypatch.setattr(GinCache, "_memory", {})
    monkeypatch.setattr(groebner, "_groebner", no_engine)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for cache in (blocker, blocker / "below"):
        code, out, err = run(capsys, "gin", edge_ideal, "--seed", "5",
                             "--cache-dir", str(cache))
        assert (code, out) == (2, "")
        assert err.startswith("error[parse-error]: %s: cannot use as the gin "
                              "cache: " % cache), err


def test_one_parser_and_no_state_between_calls(capsys, edge_ideal):
    assert build_parser() is build_parser()
    code, out, err = run(capsys, "gin", edge_ideal, "--seed", "5")
    assert code == 0 and json.loads(out)["seed"] == 5 and err == ""
    code, out, err = run(capsys, "gin", edge_ideal)
    assert code == 0 and "chosen from entropy" in err
    assert json.loads(out)["seed"] == int(err.split()[1])


def test_ideal_files_load_as_from_json_reads_them(capsys, tmp_path):
    for name in sorted(os.listdir(CORPUS)):
        path = os.path.join(CORPUS, name)
        with open(path) as fh:
            data = json.load(fh)
        if "generators" in data:
            assert _load(path) == PolynomialIdeal.from_json(data), name
    unit = write_json(tmp_path, "unit.json", {"n": 2, "generators": [1]})
    assert _load(unit) == PolynomialIdeal.from_json({"n": 2, "generators": [1]})
    code, out, _ = run(capsys, "hilbert", unit)
    assert code == 0 and json.loads(out)["hilbert"]["values"] == []
    text = write_json(tmp_path, "text.json", {"n": 2, "generators": "x1"})
    code, out, err = run(capsys, "hilbert", text)
    assert code == 2 and out == "" and "error[parse-error]" in err


def test_gin_of_zero_is_usage_error(capsys, tmp_path):
    path = write_json(tmp_path, "zero.json", {"n": 2, "generators": []})
    code, out, err = run(capsys, "gin", path, "--seed", "1")
    assert code == 2
    assert "error[undefined-input]" in err and out == ""


def test_hilbert_default_window(capsys, edge_ideal):
    code, out, _ = run(capsys, "hilbert", edge_ideal)
    assert code == 0
    payload = json.loads(out)
    assert payload["window"] == [0, 10]
    assert payload["hilbert"]["values"][0] == [0, 1]
    assert [1, 2] in payload["hilbert"]["values"]


def test_hilbert_tsv_and_window(capsys, edge_ideal):
    code, out, _ = run(capsys, "hilbert", edge_ideal, "--window=0..3",
                       "--format", "tsv")
    assert code == 0
    assert out == "0\t1\n1\t2\n2\t2\n3\t2\n"


def cycle_face_ideal(tmp_path, n):
    cx = simplicial.SimplicialComplex(n, [(i, i % n + 1) for i in range(1, n + 1)])
    face = simplicial.stanley_reisner_ideal(cx)
    return write_json(tmp_path, "cycle%d.json" % n, face.to_json()), cx


def test_hilbert_of_the_9_cycle_face_ideal(capsys, tmp_path):
    # 27 generators; the face ring's Hilbert function is
    # sum_i f_{i-1} C(d-1, i-1) in degree d >= 1.
    path, cx = cycle_face_ideal(tmp_path, 9)
    code, out, err = run(capsys, "hilbert", path, "--window=0..12")
    assert code == 0, err
    f = cx.f_vector()

    def series(d):
        return sum(f[i] * comb(d - 1, i - 1) for i in range(1, len(f))) if d else 1

    hilbert = json.loads(out)["hilbert"]
    assert dict(hilbert["values"]) == {d: series(d) for d in range(13)}
    right = [Fraction(c) for c in hilbert["tails"]["right"]]
    assert all(sum(c * d ** k for k, c in enumerate(right)) == series(d)
               for d in range(1, 40))


def test_verify_main_theorem_on_the_8_cycle_face_ideal(capsys, tmp_path):
    # 21 generators: the Hilbert target and the filtration layers all need
    # the Hilbert series of ideals of this size.
    path, _ = cycle_face_ideal(tmp_path, 8)
    code, out, err = run(capsys, "verify", "main-theorem", path, "--seed", "7")
    assert code == 0, err
    assert json.loads(out)["report"]["verdict"] == "equal"


@pytest.mark.parametrize("command", ["main-theorem", "thm41"])
def test_verify_on_the_9_cycle(capsys, tmp_path, command):
    # 3^9 steps of the Cech spot pass; the 9-cycle is sequentially CM.
    # thm41 shifts the face ideal only, well under a second.
    path, cx = cycle_face_ideal(tmp_path, 9)
    if command == "thm41":
        path = write_json(tmp_path, "cycle9-complex.json", cx.to_json())
    code, out, err = run(capsys, "verify", command, path, "--seed", "7")
    assert code == 0, err
    assert json.loads(out)["report"]["verdict"] == "equal"


@pytest.mark.ladder
@pytest.mark.parametrize("cx", [
    simplicial.SimplicialComplex(10, [(i, i % 10 + 1) for i in range(1, 11)]),
    _random_complex(1, 9), _random_complex(2, 9)],
    ids=["cycle-10", "random-9-seed-1", "random-9-seed-2"])
def test_seqcm_and_thm41_match_the_direct_dual_oracle_on_the_ladder(
        capsys, tmp_path, cx):
    # Both read the one shift of the face ideal; the oracle shifts the
    # dual's ideal, which took about 7, 12 and 40 s on a 2-CPU x86-64 host.
    oracle = direct_dual_verdict(cx).to_json()
    path = write_json(tmp_path, "cx.json", cx.to_json())
    code, out, err = run(capsys, "seqcm", path, "--seed", "7")
    assert code == 0, err
    verdict = json.loads(out)["verdict"]
    assert (verdict["value"], verdict["details"]) == (oracle["value"],
                                                      oracle["details"])
    code, out, err = run(capsys, "verify", "thm41", path, "--seed", "7")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["seqcm"] == verdict
    assert (payload["report"]["verdict"] == "equal") is oracle["value"]


def test_window_equals_form_accepts_negatives(capsys, edge_ideal):
    code, out, _ = run(capsys, "localcoh", edge_ideal, "--window=-4..1")
    assert code == 0
    assert json.loads(out)["window"] == [-4, 1]


def test_window_separate_token_with_dash_is_rejected_by_argparse(edge_ideal):
    # argparse reads "-4..1" as an option; the = form is the supported one.
    with pytest.raises(SystemExit) as exc:
        main(["localcoh", edge_ideal, "--window", "-4..1"])
    assert exc.value.code == 2


def test_bad_window_text(capsys, edge_ideal):
    # A bound is ASCII digits with an optional minus sign, as in polynomial
    # text: no other digits, no underscores and no spaces.
    for window in ("oops", "\u0660..\u0663", "1_0..1_2", " 0 .. 3 ",
                   "0..%s" % ("9" * 4301)):
        code, out, err = run(capsys, "hilbert", edge_ideal, "--window=" + window)
        assert (code, out) == (2, ""), window
        assert err.startswith("error[parse-error]: window must look like")


def test_empty_window_is_parse_error(capsys, edge_ideal):
    for argv in (("hilbert", edge_ideal, "--window=5..2"),
                 ("localcoh", edge_ideal, "--window=3..-3")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "error[parse-error]" in err


def test_window_wider_than_cap_is_capacity_error(capsys, edge_ideal):
    code, out, err = run(capsys, "hilbert", edge_ideal,
                         "--window=0..%d" % MAX_WINDOW_WIDTH)
    assert code == 3 and out == ""
    assert "error[capacity]" in err


def test_negative_koszul_bound_is_rejected(capsys, edge_ideal):
    code, out, err = run(capsys, "betti", edge_ideal, "--oracle", "--bound", "-5")
    assert code == 2 and out == ""
    assert "error[bound-too-small]" in err


def test_koszul_bound_above_cap_is_capacity_error(capsys, tmp_path):
    path = write_json(tmp_path, "q.json", {"n": 2, "generators": ["x1^2 + x2^2"]})
    code, out, err = run(capsys, "betti", path, "--oracle",
                         "--bound", str(KOSZUL_MAX_BOUND + 1))
    assert code == 3 and out == ""
    assert "error[capacity]" in err
    code, out, _ = run(capsys, "betti", path, "--oracle",
                       "--bound", str(KOSZUL_MAX_BOUND))
    assert code == 0 and out


def test_non_integer_n_is_parse_error(capsys, tmp_path):
    cases = (("hilbert", {"n": "a", "generators": ["x1"]}),
             ("hilbert", {"n": True, "generators": ["x1"]}),
             ("dual", {"n": 2.5, "facets": [[1]]}))
    for command, data in cases:
        code, out, err = run(capsys, command, write_json(tmp_path, "n.json", data))
        assert code == 2 and out == ""
        assert "error[parse-error]" in err and "Traceback" not in err


def test_invalid_json_cites_the_line_and_column(capsys, tmp_path):
    # A trailing comma on line 3: the error cites where the decoder stopped.
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3,\n  "facets": [\n  [1, 2],]\n}\n')
    code, out, err = run(capsys, "dual", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error[parse-error]: line 3, column 10: "), err


def test_file_with_generators_and_facets_is_parse_error(capsys, tmp_path):
    # Neither key wins, whichever kinds of input the command takes.
    data = {"n": 2, "generators": ["x1*x2"], "facets": [[1], [2]]}
    (tmp_path / "both").mkdir()
    path = write_json(tmp_path / "both", "both.json", data)
    for argv in (("seqcm", path, "--seed", "7"), ("localcoh", path),
                 ("betti", path), ("dual", path), ("shift", path, "--seed", "7"),
                 ("verify", "corpus", str(tmp_path / "both"), "--seed", "7")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error[parse-error]: ") and "both.json" in err
        assert '"generators"' in err and '"facets"' in err, err


def test_non_integer_vertex_is_parse_error(capsys, tmp_path):
    for vertex in ("a", 1.5):
        path = write_json(tmp_path, "v.json", {"n": 2, "facets": [[vertex, 2]]})
        code, out, err = run(capsys, "dual", path)
        assert code == 2 and out == ""
        assert "error[parse-error]" in err


def test_betti_routes_agree(capsys, tmp_path):
    path = write_json(tmp_path, "de.json",
                      {"n": 4, "generators": ["x1*x3", "x1*x4", "x2*x3", "x2*x4"]})
    code, out, _ = run(capsys, "betti", path)
    assert code == 0
    hochster = json.loads(out)
    assert hochster["route"] == "hochster"
    code, out, _ = run(capsys, "betti", path, "--oracle")
    koszul = json.loads(out)
    assert koszul["route"] == "koszul"
    assert koszul["betti"]["entries"] == hochster["betti"]["entries"]
    assert hochster["betti"]["entries"] == [[0, 0, 1], [1, 2, 4], [2, 3, 4], [3, 4, 1]]


def test_betti_non_squarefree_uses_oracle(capsys, tmp_path):
    path = write_json(tmp_path, "sq.json", {"n": 2, "generators": ["x1^2"]})
    code, out, _ = run(capsys, "betti", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["route"] == "koszul"
    assert payload["betti"]["entries"] == [[0, 0, 1], [1, 2, 1]]


def test_betti_tsv(capsys, tmp_path):
    path = write_json(tmp_path, "pt.json", {"n": 2, "generators": ["x1"]})
    code, out, _ = run(capsys, "betti", path)
    assert json.loads(out)["betti"]["entries"] == [[0, 0, 1], [1, 1, 1]]
    code, out, _ = run(capsys, "betti", path, "--format", "tsv")
    assert code == 0
    assert out.splitlines()[0] == "i\\j\t0\t1"


def test_betti_bound_selects_the_koszul_route(capsys, tmp_path):
    # Squarefree input takes Hochster unless a bound is given; a bound is
    # the Koszul route's, so it is always checked.
    path = write_json(tmp_path, "path.json",
                      {"n": 3, "generators": ["x1*x2", "x2*x3"]})
    code, out, _ = run(capsys, "betti", path)
    hochster = json.loads(out)
    assert code == 0 and hochster["route"] == "hochster"
    code, out, _ = run(capsys, "betti", path, "--bound", "6")
    assert code == 0 and json.loads(out) == dict(hochster, route="koszul")
    for bound, exit_code in (("-5", 2), ("99", 3)):
        code, out, _ = run(capsys, "betti", path, "--bound", bound)
        assert (code, out) == (exit_code, "")


def test_betti_bound_too_small(capsys, tmp_path):
    path = write_json(tmp_path, "ci.json", {"n": 3, "generators": ["x1^2", "x2^2"]})
    code, _, err = run(capsys, "betti", path, "--oracle", "--bound", "2")
    assert code == 2
    assert "error[bound-too-small]" in err


def test_capacity_exit_three(capsys, tmp_path):
    path = write_json(tmp_path, "wide.json",
                      {"n": 11, "generators": ["x1*x2"]})
    code, _, err = run(capsys, "betti", path, "--oracle")
    assert code == 3
    assert "error[capacity]" in err


def test_engine_degree_cap_exits_three(capsys, tmp_path):
    # Engine monomials hold degrees up to 2^15 - 1.
    over = write_json(tmp_path, "over.json", {"n": 1, "generators": ["x1^32768"]})
    code, out, err = run(capsys, "gin", over, "--seed", "5")
    assert (code, out) == (3, "")
    assert "error[capacity]: engine monomial degree" in err
    at = write_json(tmp_path, "at.json", {"n": 1, "generators": ["x1^32767"]})
    code, out, _ = run(capsys, "gin", at, "--seed", "5")
    assert code == 0
    assert json.loads(out)["gin"] == {"n": 1, "generators": ["x1^32767"]}


def test_cech_over_the_work_cap_exits_three(capsys, tmp_path):
    # 3^13 steps of the Cech spot pass, refused before any pattern.
    path = write_json(tmp_path, "wide.json",
                      {"n": 13, "generators": ["*".join(
                          "x%d" % i for i in range(1, 14))]})
    code, out, err = run(capsys, "localcoh", path)
    assert (code, out) == (3, "")
    assert "error[capacity]: Cech oracle work" in err


def test_koszul_over_the_basis_cap_exits_three(capsys, tmp_path):
    # 8.1 * 10^10 basis elements up to degree 32, refused before any.
    path = write_json(tmp_path, "k10.json", {"n": 10, "generators": [
        "x1^2 + x2*x3", "x4*x5 - x6^2"]})
    code, out, err = run(capsys, "betti", path, "--bound", "32")
    assert (code, out) == (3, "")
    assert err == ("error[capacity]: Koszul complex basis elements exceeds "
                   "cap: requested 81311391216, limit 1000000\n")


def test_koszul_over_the_work_cap_exits_three(capsys, tmp_path):
    # 7^8 steps of the Koszul spot pass, refused before any multidegree.
    path = write_json(tmp_path, "cubes.json", {"n": 8, "generators": [
        "x%d^3" % i for i in range(1, 9)] + ["*".join(
            "x%d" % i for i in range(1, 9))]})
    code, out, err = run(capsys, "betti", path, "--oracle")
    assert (code, out) == (3, "")
    assert "error[capacity]: Koszul oracle work" in err


def cofacets_of(tmp_path, n):
    """The complex with facets [n] - {k} for k = 4..n, whose face ideal has
    the one generator x4*...*xn, and the single facet {1, 2, 3}, its dual."""
    return (write_json(tmp_path, "cofacets.json", {"n": n, "facets": [
        [v for v in range(1, n + 1) if v != k] for k in range(4, n + 1)]}),
            write_json(tmp_path, "facet.json", {"n": n, "facets": [[1, 2, 3]]}))


def test_seqcm_over_the_gin_term_cap_exits_three(capsys, tmp_path):
    # Shifting the face ideal x4*...*x14 would take C(24, 11) terms under
    # gin's coordinate change; on 13 vertices it takes C(22, 10), admitted.
    path, _ = cofacets_of(tmp_path, 14)
    code, out, err = run(capsys, "shift", path, "--seed", "7")
    assert (code, out) == (3, "")
    assert "error[capacity]: gin coordinate-change terms" in err
    assert "requested %d" % comb(24, 11) in err


def test_seqcm_shifts_the_side_with_fewer_gin_terms(capsys, tmp_path):
    # Each of these complexes has its face ideal or its dual's past the gin
    # term cap; seqcm shifts the other, so each answers.  All three are
    # sequentially Cohen-Macaulay: a simplex, its Alexander dual and the
    # boundary of the 12-simplex, a sphere.
    sphere = write_json(tmp_path, "sphere.json", {"n": 13, "facets": [
        [v for v in range(1, 14) if v != k] for k in range(1, 14)]})
    for path in cofacets_of(tmp_path, 14) + (sphere,):
        code, out, err = run(capsys, "seqcm", path, "--seed", "7")
        assert code == 0, err
        assert json.loads(out)["verdict"]["value"] is True


def test_verify_over_the_cech_work_cap_exits_three_before_gin(
        capsys, tmp_path, monkeypatch):
    # The 13-cycle's face ideal takes 3^13 spot-pass steps; the cap refuses
    # it before the shift's gin.
    def no_gin(*args, **kwargs):
        raise AssertionError("gin ran before the Cech work cap")

    monkeypatch.setattr(simplicial, "gin", no_gin)
    path = write_json(tmp_path, "cycle.json", {
        "n": 13, "facets": [[i, i % 13 + 1] for i in range(1, 14)]})
    code, out, err = run(capsys, "verify", "thm41", path, "--seed", "7")
    assert (code, out) == (3, "")
    assert "error[capacity]: Cech oracle work" in err


@pytest.mark.parametrize("route", ["cech", "filtration"])
def test_localcoh_default_window_is_held_to_the_cap(capsys, tmp_path,
                                                    monkeypatch, route):
    # The default window of x1^d in 2 variables spans 2d + 5 degrees; past
    # MAX_WINDOW_WIDTH it is refused before any route work, as a --window
    # that wide is, and up to it the route gets that window.
    class Reached(Exception):
        pass

    def reached(ideal, window):
        raise Reached(window)

    monkeypatch.setattr(cli, "cech_local_cohomology", reached)
    monkeypatch.setattr(cli, "local_cohomology_strongly_stable", reached)
    for d in (5000, 4998):
        path = write_json(tmp_path, "deep.json",
                          {"n": 2, "generators": ["x1^%d" % d]})
        code, out, err = run(capsys, "localcoh", path, "--route", route)
        assert (code, out) == (3, "")
        assert ("error[capacity]: window width exceeds cap: requested %d"
                % (2 * d + 5)) in err
    path = write_json(tmp_path, "deep.json", {"n": 2, "generators": ["x1^4997"]})
    with pytest.raises(Reached) as exc:
        run(capsys, "localcoh", path, "--route", route)
    assert exc.value.args[0] == (-5001, 4997)


def test_localcoh_routes_match(capsys, tmp_path):
    path = write_json(tmp_path, "ss.json", {"n": 2, "generators": ["x1^2"]})
    code, out, _ = run(capsys, "localcoh", path, "--window=-4..1")
    cech = json.loads(out)
    code2, out2, _ = run(capsys, "localcoh", path, "--route", "filtration",
                         "--window=-4..1")
    filtration = json.loads(out2)
    assert code == 0 and code2 == 0
    assert cech["table"]["h"] == filtration["table"]["h"]
    assert cech["table"]["h"]["1"] == [[-4, 2], [-3, 2], [-2, 2], [-1, 2], [0, 1]]


@pytest.mark.parametrize("route", ["cech", "filtration"])
def test_localcoh_far_below_window_is_the_left_tail(capsys, tmp_path, route):
    # Two degrees near -10^8 are read off the polynomial below every
    # summand, at a cost that follows the window's width, not its place.
    path = write_json(tmp_path, "far.json",
                      {"n": 3, "generators": ["x1^2", "x1*x2^2"]})
    lo = -10 ** 8
    start = time.perf_counter()
    code, out, _ = run(capsys, "localcoh", path, "--route", route,
                       "--window=%d..%d" % (lo, lo + 1))
    assert code == 0 and time.perf_counter() - start < 5
    table = json.loads(out)["table"]
    assert sorted(table["h"]) == ["1", "2"]
    for i, values in table["h"].items():
        tail = [Fraction(c) for c in table["tails"][i]["left"]]
        assert values == [[e, sum(c * e ** k for k, c in enumerate(tail))]
                          for e in (lo, lo + 1)]
    assert table["h"]["2"] == [[lo, 10 ** 8 - 1], [lo + 1, 10 ** 8 - 2]]


def test_localcoh_filtration_rejects_complex(capsys, hollow_complex):
    code, _, err = run(capsys, "localcoh", hollow_complex, "--route", "filtration")
    assert code == 2
    assert err == ("error[parse-error]: %s: expected an ideal file\n"
                   % hollow_complex)


def test_localcoh_filtration_rejects_unstable(capsys, edge_ideal):
    code, _, err = run(capsys, "localcoh", edge_ideal, "--route", "filtration")
    assert code == 2
    assert "error[not-strongly-stable]" in err


def test_localcoh_enrico_cross_checks(capsys, hollow_complex):
    code, out, _ = run(capsys, "localcoh", hollow_complex, "--route", "enrico")
    assert code == 0
    payload = json.loads(out)
    assert payload["cech_diff"] == []
    assert payload["table"]["h"]["2"][-1] == [0, 1]
    assert "cech" in payload


def test_localcoh_enrico_accepts_squarefree_ideal(capsys, edge_ideal):
    code, out, _ = run(capsys, "localcoh", edge_ideal, "--route", "enrico")
    assert code == 0
    assert json.loads(out)["cech_diff"] == []


def test_localcoh_enrico_builds_the_dual_once(capsys, tmp_path, monkeypatch):
    # The face-ring table and its Cech check share one Alexander dual, so
    # the one subset enumeration is the dual's.
    calls = []
    real = simplicial.complex_of

    def counted(ideal):
        calls.append(ideal)
        return real(ideal)

    monkeypatch.setattr(simplicial, "complex_of", counted)
    monkeypatch.setattr(cli, "complex_of", counted)
    bowtie = write_json(tmp_path, "bowtie.json",
                        {"n": 5, "facets": [[1, 2, 3], [1, 4, 5]]})
    code, out, _ = run(capsys, "localcoh", bowtie, "--route", "enrico")
    assert code == 0
    assert json.loads(out)["cech_diff"] == []
    assert len(calls) == 1


def test_localcoh_enrico_compares_whole_tables_with_cech(
        capsys, hollow_complex, monkeypatch):
    # Equal window values with another left tail is still a failed check.
    real = cli._face_ring_cohomology

    def other_tail(dual, window):
        table = real(dual, window)
        funcs = {i: HilbertFunction(hf.window, hf.values, (None, hf.tails[1]))
                 for i, hf in table.functions.items()}
        return CohomologyTable(table.window, funcs)

    monkeypatch.setattr(cli, "_face_ring_cohomology", other_tail)
    code, out, err = run(capsys, "localcoh", hollow_complex, "--route", "enrico")
    assert (code, out) == (4, "")
    assert "error[inconsistency]: face-ring table differs" in err


def test_localcoh_on_complex_uses_face_ideal(capsys, edges_complex):
    code, out, _ = run(capsys, "localcoh", edges_complex, "--window=-3..1")
    assert code == 0
    payload = json.loads(out)
    assert payload["table"]["h"]["2"] == [[-3, 4], [-2, 2]]


def test_dual_payload(capsys, hollow_complex, edges_complex):
    code, out, _ = run(capsys, "dual", hollow_complex)
    assert code == 0
    assert json.loads(out)["dual"] == {"n": 3, "facets": [[]]}
    code, out, _ = run(capsys, "dual", edges_complex, "--format", "tsv")
    assert code == 0
    assert out == "1\t3\n1\t4\n2\t3\n2\t4\n"


def test_shift_payload(capsys, edges_complex):
    code, out, _ = run(capsys, "shift", edges_complex, "--seed", "21")
    assert code == 0
    payload = json.loads(out)
    assert payload["shifted"]["facets"] == [[1], [2, 4], [3, 4]]


def test_seqcm_verdicts(capsys, hollow_complex, edges_complex):
    code, out, _ = run(capsys, "seqcm", hollow_complex, "--seed", "11")
    assert code == 0
    assert json.loads(out)["verdict"]["value"] is True
    code, out, _ = run(capsys, "seqcm", edges_complex, "--seed", "11")
    assert code == 0  # a mathematical "no" is still a success
    assert json.loads(out)["verdict"]["value"] is False


def test_seqcm_accepts_squarefree_ideal(capsys, tmp_path):
    path = write_json(tmp_path, "sr.json",
                      {"n": 4, "generators": ["x1*x3", "x1*x4", "x2*x3", "x2*x4"]})
    code, out, _ = run(capsys, "seqcm", path, "--seed", "11")
    assert code == 0
    assert json.loads(out)["verdict"]["value"] is False


# A8, the two skew lines (x1, x2) and (x3, x4), moved by the unipotent
# change x1 -> x1, x2 -> x1 + x2, x3 -> x2 + x3, x4 -> x1 + x3 + x4.
A8_GENERATORS = ["x1*x3", "x1*x4", "x2*x3", "x2*x4"]
MOVED_A8_GENERATORS = [
    "x1*x2 + x1*x3", "x1^2 + x1*x3 + x1*x4",
    "x1*x2 + x2^2 + x1*x3 + x2*x3",
    "x1^2 + x1*x2 + x1*x3 + x2*x3 + x1*x4 + x2*x4"]


@pytest.mark.parametrize("argv", [
    ("localcoh", "--route", "cech"), ("localcoh", "--route", "filtration"),
    ("localcoh", "--route", "enrico"), ("seqcm", "--seed", "7")],
    ids=["cech", "filtration", "enrico", "seqcm"])
def test_cohomology_commands_refuse_a_non_monomial_ideal(capsys, tmp_path,
                                                        argv):
    # Local cohomology is invariant under a linear change of coordinates,
    # but R/in(g.I) is not R/g.I: the moved A8 has no answer here, where A8
    # itself has H^1 = K in degree 0.
    moved = write_json(tmp_path, "moved.json",
                       {"n": 4, "generators": MOVED_A8_GENERATORS})
    code, out, err = run(capsys, argv[0], moved, *argv[1:])
    assert code == 2 and out == ""
    assert "error[undefined-input]" in err
    a8 = write_json(tmp_path, "a8.json", {"n": 4, "generators": A8_GENERATORS})
    code, out, _ = run(capsys, argv[0], a8, *argv[1:])
    if argv[-1] == "filtration":
        assert code == 2  # A8 is not strongly stable
    else:
        assert code == 0
    if argv[-1] == "cech":
        assert json.loads(out)["table"]["h"]["1"] == [[0, 1]]


def test_hilbert_of_a_non_monomial_ideal_reads_its_initial_ideal(capsys,
                                                                 tmp_path):
    # Hilbert functions do survive the change of coordinates and in(I).
    outputs = []
    for generators in (A8_GENERATORS, MOVED_A8_GENERATORS):
        path = write_json(tmp_path, "ideal.json",
                          {"n": 4, "generators": generators})
        code, out, _ = run(capsys, "hilbert", path, "--format", "tsv")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def refuse_loading(monkeypatch):
    def no_load(*args):
        raise AssertionError("the input was loaded")

    monkeypatch.setattr(cli, "_load", no_load)


def test_seqcm_has_no_tsv_form(capsys, monkeypatch, hollow_complex):
    # Refused before the input is read, so before any work.
    refuse_loading(monkeypatch)
    code, out, err = run(capsys, "seqcm", hollow_complex, "--seed", "11",
                         "--format", "tsv")
    assert (code, out) == (2, "")
    assert err == ("error[parse-error]: this command has no tsv form; use "
                   "--format json\n")


@pytest.mark.parametrize("what", ["main-theorem", "thm41", "corpus"])
def test_verify_has_no_tsv_form(capsys, monkeypatch, tmp_path, what):
    refuse_loading(monkeypatch)
    code, out, err = run(capsys, "verify", what, str(tmp_path), "--seed", "7",
                         "--format", "tsv")
    assert (code, out) == (2, "")
    assert err == ("error[parse-error]: this command has no tsv form; use "
                   "--format json\n")


def test_verify_main_theorem(capsys, tmp_path):
    path = write_json(tmp_path, "de.json",
                      {"n": 4, "generators": ["x1*x3", "x1*x4", "x2*x3", "x2*x4"]})
    code, out, _ = run(capsys, "verify", "main-theorem", path, "--seed", "11")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["verdict"] == "unequal"
    assert report["diff"]


def test_verify_thm41(capsys, edges_complex):
    code, out, _ = run(capsys, "verify", "thm41", edges_complex, "--seed", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["verdict"] == "unequal"
    assert payload["seqcm"]["value"] is False


def test_verify_corpus(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_json(corpus, "a_edge.json", {"n": 2, "generators": ["x1*x2"]})
    write_json(corpus, "b_hollow.json", {"n": 3, "facets": [[1, 2], [1, 3], [2, 3]]})
    code, out, _ = run(capsys, "verify", "corpus", str(corpus), "--seed", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["ideals"] == 1
    assert payload["summary"]["complexes"] == 1
    assert payload["summary"]["equal"] == 2
    assert payload["results"]["a_edge.json"]["verdict"] == "equal"
    assert payload["results"]["b_hollow.json"]["sequentially_cm"] is True


def test_verify_corpus_stdout_digest(capsys):
    # Pins the seed-7 corpus verdicts byte for byte.
    code, out, _ = run(capsys, "verify", "corpus", CORPUS, "--seed", "7")
    assert code == 0 and len(out.encode()) == 1931
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0943de1160fc24d38484e890e720677517e99f987317be83e1e9addc7760aa83")


@pytest.mark.parametrize(
    "name", sorted(f for f in os.listdir(CORPUS) if f.endswith(".json")))
def test_verify_verdict_does_not_depend_on_window(capsys, name):
    # A --window may widen what is compared, never narrow it: every window
    # gives the default run's verdict, and one that already contains the
    # derived window is compared on exactly its own widening.
    path = os.path.join(CORPUS, name)
    with open(path) as handle:
        data = json.load(handle)
    what = "thm41" if "facets" in data else "main-theorem"
    argv = ["verify", what, path, "--seed", "7"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    verdict = json.loads(out)["report"]["verdict"]
    for window in ("1..2", "3..4", "-1..0", "50..60"):
        code, out, err = run(capsys, *argv, "--window=" + window)
        assert code == 0, (window, err)
        assert json.loads(out)["report"]["verdict"] == verdict, window
    code, out, err = run(capsys, *argv, "--window=-20..8")
    assert code == 0, err
    report = json.loads(out)["report"]
    assert report["verdict"] == verdict and report["window"] == [-20, 8]
    if verdict == "left-skipped":  # nothing is compared
        assert report["wide_window"] is None
    else:
        assert tuple(report["wide_window"]) == widen_window((-20, 8), data["n"])


@pytest.mark.parametrize("argv", [("seqcm",), ("verify", "thm41")],
                         ids=["seqcm", "thm41"])
def test_skeleta_disagreement_exits_four(capsys, edges_complex, monkeypatch,
                                         argv):
    flip_the_skeleta(monkeypatch)
    code, out, err = run(capsys, *argv, edges_complex, "--seed", "7")
    assert (code, out) == (4, "")
    assert "error[inconsistency]: the shifting decider says False" in err


def test_verify_thm41_exits_four_when_left_exceeds_right(
        capsys, edges_complex, monkeypatch):
    lower_the_shifted_side(monkeypatch)
    code, out, err = run(capsys, "verify", "thm41", edges_complex, "--seed", "7")
    assert (code, out) == (4, "")
    assert "error[inconsistency]: cohomology of cech face ring exceeds" in err


def test_verify_thm41_exits_four_when_a_betti_table_is_off(
        capsys, edges_complex, monkeypatch):
    raise_a_hochster_entry(monkeypatch)
    code, out, err = run(capsys, "verify", "thm41", edges_complex, "--seed", "7")
    assert (code, out) == (4, "")
    assert "error[inconsistency]: the left Cech table gives" in err


def test_verify_far_window_is_capacity_error(capsys):
    # The compared window joins the given one to the derived one, so a far
    # window is refused before it costs a hundred thousand degrees.
    path = os.path.join(CORPUS, "A1.json")
    code, _, err = run(capsys, "verify", "main-theorem", path, "--seed", "7",
                       "--window=100000..100001")
    assert code == 3
    assert "error[capacity]" in err


def test_verify_corpus_empty_dir(capsys, tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    code, _, err = run(capsys, "verify", "corpus", str(empty), "--seed", "1")
    assert code == 2
    assert "error[parse-error]" in err


@pytest.mark.parametrize("argv", [
    ("localcoh",), ("seqcm", "--seed", "7"), ("gin", "--seed", "7"),
    ("verify", "main-theorem", "--seed", "7")])
def test_stdin_input_prints_what_the_path_prints(capsys, monkeypatch, argv):
    path = os.path.join(CORPUS, "A8.json")
    code, expected, _ = run(capsys, *argv, path)
    assert code == 0
    with open(path) as fh:
        monkeypatch.setattr(sys, "stdin", io.StringIO(fh.read()))
    code, out, err = run(capsys, *argv, "-")
    assert (code, err) == (0, "")
    assert out == expected


def test_parse_errors_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "hilbert", str(bad))
    assert code == 2
    code, _, err = run(capsys, "hilbert", str(tmp_path / "missing.json"))
    assert code == 2
    path = write_json(tmp_path, "nokey.json", {"n": 2})
    code, _, err = run(capsys, "hilbert", path)
    assert code == 2
    path = write_json(tmp_path, "badpoly.json", {"n": 2, "generators": ["x1 +"]})
    code, _, err = run(capsys, "hilbert", path)
    assert code == 2
    assert "error[parse-error]" in err
    # Only ASCII digits are digits, an integer may have at most 4,300 of
    # them, in polynomial text or as a JSON literal, and a file must be
    # UTF-8; a JSON error names the file, in `verify corpus` too.
    digits = str(tmp_path / "digits.json")
    for text, message in (
            ("x1^\u00b2",
             "column 4: %s: generator 1: expected an integer" % digits),
            ("\u00b2*x1", "column 1: "),
            (_LONG + "*x1",
             "column 1: %s: generator 1: integer of more than" % digits)):
        path = write_json(tmp_path, "digits.json", {"n": 2, "generators": [text]})
        code, out, err = run(capsys, "hilbert", path)
        assert (code, out) == (2, "") and message in err, text
        assert err.startswith("error[parse-error]: line 1, ")
    # the error names the generator it is in, after the file; a "*" must
    # be followed by a factor
    for generators, where, message in (
            (["x1*x2", "x1^"], "column 4: %s: generator 2", "an integer"),
            (["x1*x2*"], "column 7: %s: generator 1", "a variable like x2")):
        path = write_json(tmp_path, "f.json", {"n": 2, "generators": generators})
        code, out, err = run(capsys, "hilbert", path)
        assert (code, out) == (2, "")
        assert err == ("error[parse-error]: line 1, %s: expected %s\n"
                       % (where % path, message))
    (tmp_path / "latin").mkdir()
    latin = tmp_path / "latin" / "latin.json"
    latin.write_bytes('{"n": 2, "generators": ["x1"], "by": "M\u00fcller"}'
                      .encode("latin-1"))
    literal = tmp_path / "literal.json"
    literal.write_text('{"n": 2, "generators": [%s]}' % _LONG)
    for argv, name in ((("hilbert", str(literal)), "literal.json"),
                       (("hilbert", str(latin)), "latin.json"),
                       (("verify", "corpus", str(latin.parent), "--seed", "7"),
                        "latin.json")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error[parse-error]: ")
        assert name + ": invalid JSON: " in err, err


def test_parse_error_without_a_position_cites_none(capsys, tmp_path,
                                                  edge_ideal):
    # Only polynomial text and JSON text have lines and columns.
    latin = tmp_path / "latin.json"
    latin.write_bytes('{"n": 2, "generators": ["M\u00fcller"]}'.encode("latin-1"))
    both = write_json(tmp_path, "both.json",
                      {"n": 2, "generators": ["x1"], "facets": [[1]]})
    (tmp_path / "none").mkdir()
    missing = str(tmp_path / "missing.json")
    for argv, start in (
            (("hilbert", missing), missing + ": cannot read: "),
            (("hilbert", str(latin)), str(latin) + ": invalid JSON: "),
            (("hilbert", both), both + ": both "),
            (("hilbert", edge_ideal, "--window=0..x"), "window must look like "),
            (("verify", "corpus", str(tmp_path / "none"), "--seed", "1"),
             "no .json files under "),
            (("verify", "corpus", missing, "--seed", "1"),
             missing + ": cannot list: No such file or directory\n")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error[parse-error]: " + start), err
        assert not re.search(r"line \d+, column \d+", err), err


def test_each_error_class_carries_its_exit_status():
    # The README's rule: 2 for usage errors, 3 for capacity or certification
    # limits, 4 for internal cross-check failures.
    statuses = {
        "SeqcmError": 4, "_WitnessedError": 4, "InconsistencyError": 4,
        "StrongStabilityViolationError": 4, "ShiftedViolationError": 4,
        "ParseError": 2, "UndefinedInputError": 2, "NotHomogeneousError": 2,
        "NotSquarefreeError": 2, "AmbientMismatchError": 2,
        "AmbientGrowthError": 2, "NotStronglyStableError": 2,
        "BoundTooSmallError": 2,
        "CapacityError": 3, "GenericityError": 3, "CertificationError": 3,
    }
    classes = {name: value for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert {name: cls.exit_status for name, cls in classes.items()} == statuses
    # Each concrete class names its own code; only the base is abstract.
    concrete = [cls for name, cls in classes.items() if name[0] != "_"]
    assert all("code" in vars(cls) for cls in concrete)
    assert len({cls.code for cls in concrete}) == len(concrete) == 15


def test_not_homogeneous_exit_two(capsys, tmp_path):
    path = write_json(tmp_path, "inhom.json", {"n": 2, "generators": ["x1 + 1"]})
    code, _, err = run(capsys, "gin", path, "--seed", "1")
    assert code == 2
    assert "error[not-homogeneous]" in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# Well-formed files on at most 3 (ideals) or 5 (complexes) vertices, and
# files whose pieces are misused or of the wrong type.
_QUADRICS = st.lists(
    st.tuples(st.sampled_from(["", "2*", "-3*", "1/2*"]),
              st.sampled_from(["x1^2", "x1*x2", "x2^2", "x1*x3", "x3^2"])
              ).map("".join), min_size=1, max_size=3).map(" - ".join)
_LONG = "9" * 4301  # one digit past int()'s limit on a string
_TERMS = st.tuples(
    st.sampled_from(["", "0*", "1/0*", "x", "2", "2*", "\u00b2*", _LONG + "*"]),
    st.sampled_from(["x0", "x9", "y", "1", "x1", "x1^-1", "x2^", "x1*", "x3^3",
                     "x1^\u00b2"])
).map("".join)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 20),
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.text(max_size=3))
_GOOD_IDEALS = st.fixed_dictionaries({
    "n": st.just(3), "generators": st.lists(_QUADRICS, min_size=1, max_size=3)})
_BAD_IDEALS = st.fixed_dictionaries({
    "n": st.one_of(st.integers(-1, 4), st.sampled_from([17, 99]), _SCALARS),
    "generators": st.one_of(
        st.lists(st.one_of(_QUADRICS, st.lists(_TERMS, max_size=3).map(" + ".join),
                           _SCALARS), max_size=3),
        _SCALARS)})
_GOOD_COMPLEXES = st.fixed_dictionaries({
    "n": st.integers(3, 5),
    "facets": st.lists(st.lists(st.integers(1, 3), max_size=3), max_size=4)})
_BAD_COMPLEXES = st.fixed_dictionaries({
    "n": st.one_of(st.integers(-1, 5), st.sampled_from([17, 99]), _SCALARS),
    "facets": st.one_of(
        st.lists(st.lists(st.one_of(st.integers(-1, 6), _SCALARS), max_size=3),
                 max_size=4),
        _SCALARS)})
_DOCUMENTS = st.one_of(
    _GOOD_IDEALS.map(json.dumps), _GOOD_COMPLEXES.map(json.dumps),
    _BAD_IDEALS.map(json.dumps), _BAD_COMPLEXES.map(json.dumps),
    st.recursive(_SCALARS, lambda kids: st.lists(kids, max_size=2)
                 | st.dictionaries(st.sampled_from(["n", "facets", "x"]), kids,
                                   max_size=2)).map(json.dumps),
    st.text(max_size=12),
    st.sampled_from(['{"n": %s, "generators": ["x1"]}' % _LONG,
                     '{"n": 3, "facets": [[%s]]}' % _LONG]),
    # bytes that are not UTF-8, written as they are
    st.tuples(st.text(max_size=6), st.sampled_from([b"\xff", b"\xc3", b"\x80"])
              ).map(lambda t: t[0].encode() + t[1]))
_WINDOWS = st.one_of(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map("%d..%d".__mod__),
    st.just("0..%d" % MAX_WINDOW_WIDTH),
    st.text(alphabet="0123456789-. a", max_size=8))
_COMMANDS = st.sampled_from(
    ["gin", "hilbert", "betti", "localcoh", "dual", "shift", "seqcm",
     "verify main-theorem", "verify thm41"])


@given(command=_COMMANDS, document=_DOCUMENTS, data=st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_fuzz_exits_with_typed_errors(capsys, tmp_path, command, document,
                                           data):
    # Malformed files, options and windows end in exit 0, 2 or 3, and every
    # failure is one error[code] line on stderr, never a traceback.
    path = tmp_path / "input.json"
    if isinstance(document, bytes):
        path.write_bytes(document)
    else:
        path.write_text(document, encoding="utf-8")
    verify = command.startswith("verify ")
    argv = command.split() + [str(path), "--format",
                              data.draw(st.sampled_from(["json", "tsv"]))]
    if verify or command in ("gin", "shift", "seqcm"):
        argv += ["--seed", str(data.draw(st.integers(0, 9)))]
    if command == "gin":
        # absent, a fresh directory, or a regular file
        cache = data.draw(st.sampled_from([None, "fresh", "file"]))
        if cache is not None:
            argv += ["--cache-dir", str(path) if cache == "file"
                     else tempfile.mkdtemp(dir=tmp_path)]
    if (verify or command in ("hilbert", "localcoh")) and data.draw(st.booleans()):
        argv.append("--window=" + data.draw(_WINDOWS))
    if command == "localcoh":
        argv += ["--route",
                 data.draw(st.sampled_from(["cech", "filtration", "enrico"]))]
    if command == "betti":
        if data.draw(st.booleans()):
            argv.append("--oracle")
        bound = data.draw(st.sampled_from(
            [None, -5, 0, 2, 4, KOSZUL_MAX_BOUND + 1]))
        if bound is not None:
            argv += ["--bound", str(bound)]
    code, _, err = run(capsys, *argv)
    assert code in (0, 2, 3), (argv, document, err)
    assert "Traceback" not in err
    if code:
        assert re.search(r"^error\[[a-z-]+\]: ", err, re.M), (argv, err)
