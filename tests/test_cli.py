"""Command line behavior: payloads, determinism, exit codes."""

import hashlib
import json
import os

import pytest

from seqcm.cli import MAX_WINDOW_WIDTH, main
from seqcm.oracles import KOSZUL_MAX_BOUND

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
    code, _, err = run(capsys, "hilbert", edge_ideal, "--window=oops")
    assert code == 2
    assert "error[parse-error]" in err


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


def test_localcoh_filtration_rejects_complex(capsys, hollow_complex):
    code, _, err = run(capsys, "localcoh", hollow_complex, "--route", "filtration")
    assert code == 2
    assert "error[parse-error]" in err


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


def test_seqcm_has_no_tsv_form(capsys, hollow_complex):
    code, _, err = run(capsys, "seqcm", hollow_complex, "--seed", "11",
                       "--format", "tsv")
    assert code == 2
    assert "error[parse-error]" in err


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


def test_verify_corpus_empty_dir(capsys, tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    code, _, err = run(capsys, "verify", "corpus", str(empty), "--seed", "1")
    assert code == 2
    assert "error[parse-error]" in err


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
