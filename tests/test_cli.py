import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import GAP_GOLDEN
from santagap import allocation_graph, subsets
from santagap.cli import cli_main

INSTANCE_DOC = """\
players p1 p2
resource a 1/2
resource b 1/2
resource c 1/2
resource d 1/2
covets p1 a b c d
covets p2 a b c d
"""


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(INSTANCE_DOC)
    return str(path)


def test_tstar(instance_file):
    code, out, _ = run_cli(["tstar", instance_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["t_star"] == "1"


def test_opt(instance_file):
    code, out, _ = run_cli(["opt", instance_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["opt"] == "1"


MIXED_DENOMINATOR_DOC = """\
players p1 p2
resource a 1/6
resource b 4/9
resource c 1
resource d 4/9
resource e 1/6
covets p1 a b c
covets p2 b c d e
"""


@pytest.mark.parametrize(
    "doc, opt, witness",
    [
        (INSTANCE_DOC, "1", {"p1": ["a", "b"], "p2": ["c", "d"]}),
        (MIXED_DENOMINATOR_DOC, "19/18", {"p1": ["a", "c"], "p2": ["b", "d", "e"]}),
    ],
    ids=["halves", "mixed-denominators"],
)
def test_opt_output_is_exact(tmp_path, doc, opt, witness):
    """The whole document, byte for byte, bundles printed as sorted lists.
    Both T* witnesses are 0/1, so OPT = T* and the witness is the T*
    probe's allocation, taken at the first leaf of the OPT search.  For
    "halves" the probe's integral search found it, so it is the first
    optimal allocation in search order."""
    path = tmp_path / "inst.txt"
    path.write_text(doc)
    code, out, err = run_cli(["opt", str(path)])
    assert code == 0 and err == ""
    expected = {"schema": "santa-gap/1", "opt": opt, "witness": witness}
    assert out == json.dumps(expected, indent=2) + "\n"


def test_gap(instance_file):
    code, out, _ = run_cli(["gap", instance_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["gap"] == "1" and doc["bound_respected"] is True


def test_gap_missing_file_exits_one():
    code, out, _ = run_cli(["gap", "does-not-exist.txt"])
    assert code == 1
    assert "error" in json.loads(out)


def test_unknown_subcommand_exits_64():
    code, _, err = run_cli(["frobnicate"])
    assert code == 64


def test_unknown_flag_exits_64():
    code, _, _ = run_cli(["rc-table", "--nope"])
    assert code == 64


def test_rc_table_json_and_tsv():
    code, out, _ = run_cli(["rc-table", "--max", "30"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 30
    assert rows[3] == {"c": 4, "r_c": 2, "ratio": "2"}
    code, out, _ = run_cli(["rc-table", "--max", "5", "--tsv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c\tr_c\tratio"
    assert lines[5] == "5\t2\t5/2"


def test_f_gap_cli():
    code, out, _ = run_cli(["f-gap", "1/3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["f"] == "3"


def test_verify_coefficients_cli():
    code, out, _ = run_cli(["verify-coefficients", "--T", "53/15", "--m", "1"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc["per_variable"].values()) == {"1"}
    assert doc["weights_sum"] == "1"


@pytest.mark.parametrize(
    "T, m, message",
    [("1", "1", "need T > 3m"), ("3", "1", "need T > 3m"), ("1", "-1", "need m >= 0")],
)
def test_verify_coefficients_out_of_range_is_json_error(T, m, message):
    """T <= 3m has no phase inequalities, and no m(alpha) is negative."""
    code, out, err = run_cli(["verify-coefficients", "--T", T, "--m", m])
    assert code == 1 and err == ""
    assert json.loads(out)["error"].startswith(message)


@pytest.mark.parametrize(
    "argv",
    [
        ["tstar", "DIR"],
        ["opt", "DIR"],
        ["gap", "DIR"],
        ["hypergraph", "DIR", "--alpha", "1"],
        ["eta", "DIR"],
        ["de-search", "DIR"],
        ["de-verify", "DIR", "TRACE"],
        ["de-verify", "GRAPH", "DIR"],
        ["dual-check", "DIR", "1", "DUAL"],
        ["dual-check", "INST", "1", "DIR"],
    ],
    ids=[
        "tstar", "opt", "gap", "hypergraph", "eta", "de-search",
        "de-verify-graph", "de-verify-trace", "dual-check-instance", "dual-check-dual",
    ],
)
@pytest.mark.parametrize("kind", ["directory", "under-a-file"])
def test_directory_as_input_file_is_json_error(instance_file, tmp_path, argv, kind):
    """Every file argument (DIR), given a directory or a path through a
    file, fails as a missing file does: a JSON error and exit 1."""
    _k2(tmp_path)
    (tmp_path / "trace.json").write_text("[]")
    (tmp_path / "dual.json").write_text('{"y": {}, "z": {}}')
    files = {
        "DIR": str(tmp_path) if kind == "directory" else f"{instance_file}/x",
        "INST": instance_file,
        "GRAPH": str(tmp_path / "k2.json"),
        "TRACE": str(tmp_path / "trace.json"),
        "DUAL": str(tmp_path / "dual.json"),
    }
    code, out, err = run_cli([files.get(a, a) for a in argv])
    assert code == 1 and err == ""
    assert "error" in json.loads(out)


def test_hypergraph_eta_and_trace_pipeline(instance_file, tmp_path):
    code, out, _ = run_cli(
        ["hypergraph", instance_file, "--alpha", "2/3", "--thin"]
    )
    assert code == 0
    gdoc = json.loads(out)
    assert len(gdoc["vertices"]) == 12
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(gdoc))

    code, out, _ = run_cli(["eta", str(gpath)])
    assert code == 0
    assert json.loads(out)["eta"] == 2

    code, out, _ = run_cli(["de-search", str(gpath), "--objective", "edgeless"])
    assert code == 0
    search = json.loads(out)
    assert search["found"]
    tpath = tmp_path / "trace.json"
    tpath.write_text(json.dumps(search["trace"]))

    code, out, _ = run_cli(["de-verify", str(gpath), str(tpath)])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["valid"] and verdict["eta_drop_certified"]
    assert verdict["final_edges"] == 0


def test_de_verify_rejects_bad_trace(instance_file, tmp_path):
    code, out, _ = run_cli(
        ["hypergraph", instance_file, "--alpha", "2/3", "--thin"]
    )
    gdoc = json.loads(out)
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(gdoc))
    u, v = gdoc["vertices"][0], gdoc["vertices"][1]
    bad = {"schema": "santa-trace/1", "steps": [{"op": "explode", "edge": [u, u]}]}
    tpath = tmp_path / "bad.json"
    tpath.write_text(json.dumps(bad))
    code, out, _ = run_cli(["de-verify", str(gpath), str(tpath)])
    assert code == 1
    assert json.loads(out)["valid"] is False


@pytest.mark.parametrize(
    "edge",
    [[0, 2], ["0", 1], [{"owner": "p", "resources": [[1]]}, 0]],
    ids=["absent-edge", "label-of-another-type", "unhashable-label"],
)
def test_de_verify_step_on_an_edge_the_graph_lacks_is_invalid(tmp_path, edge):
    """A well-formed step whose edge is not in the graph fails at its index."""
    gpath = tmp_path / "k2.json"
    gpath.write_text(json.dumps({"vertices": [0, 1, 2], "edges": [[0, 1]]}))
    tpath = tmp_path / "trace.json"
    tpath.write_text(json.dumps({"steps": [{"op": "delete", "edge": edge}]}))
    code, out, err = run_cli(["de-verify", str(gpath), str(tpath)])
    assert code == 1 and err == ""
    verdict = json.loads(out)
    assert verdict["valid"] is False and verdict["failed_at"] == 0


def test_dual_check_cli(instance_file, tmp_path):
    dual = {"y": {"p1": "0", "p2": "0"}, "z": {"a": "0", "b": "0", "c": "0", "d": "0"}}
    dpath = tmp_path / "dual.json"
    dpath.write_text(json.dumps(dual))
    code, out, _ = run_cli(["dual-check", instance_file, "1", str(dpath)])
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True and doc["objective"] == "0"


def test_dual_check_negative_rational_target(instance_file, tmp_path):
    """A target of -1/2 is a negative rational, not an option: the verdict
    is the one for -0.5 (every configuration at a negative target is the
    empty set, whose z-weight 0 is below y_p1 = 1)."""
    dual = {"y": {"p1": "1", "p2": "0"}, "z": {"a": "0", "b": "0", "c": "0", "d": "0"}}
    dpath = tmp_path / "dual.json"
    dpath.write_text(json.dumps(dual))
    outs = []
    for target in ("-1/2", "-0.5", "-5e-1"):
        code, out, err = run_cli(["dual-check", instance_file, target, str(dpath)])
        assert code == 0 and err == ""
        outs.append(json.loads(out))
    assert outs[0] == outs[1] == outs[2]
    assert outs[0]["feasible"] is False
    assert outs[0]["violated"] == {"owner": "p1", "resources": []}


def test_gap_golden_4x6():
    code, out, _ = run_cli(["gap", GAP_GOLDEN])
    assert code == 0
    doc = json.loads(out)
    assert (doc["t_star"], doc["opt"], doc["gap"]) == ("1", "1/2", "2")
    assert doc["bound_respected"] is True


def test_experiment_cli_tsv():
    code, out, _ = run_cli(
        ["experiment", "--count", "3", "--players", "2", "--resources", "5", "--tsv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("instance\t")
    assert len(lines) == 4


def test_json_instance_input(tmp_path):
    doc = {
        "players": ["p1"],
        "resources": {"a": "1/2"},
        "covets": {"p1": ["a"]},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["tstar", str(path)])
    assert code == 0
    assert json.loads(out)["t_star"] == "1/2"


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"players": ["p1"], "resources": {"a": "0"}, "covets": {"p1": ["a"]}},
            "resource 'a' has non-positive value 0",
        ),
        (
            {"players": ["p1"], "resources": {"a": "1"}, "covets": {"p2": ["a"]}},
            "covet list for undeclared player 'p2'",
        ),
        (
            {"players": ["p1"], "resources": {"a": "1"}, "covets": {"p1": ["a", "b"]}},
            "covet list of 'p1' references undeclared resource 'b'",
        ),
        (
            {"players": ["p1", "p1"], "resources": {"a": "1"}, "covets": {"p1": ["a"]}},
            "duplicate player id",
        ),
    ],
    ids=["non-positive-value", "undeclared-player", "undeclared-resource", "duplicate-player"],
)
def test_json_instance_model_errors(tmp_path, doc, message):
    """The JSON parser checks shape and ids; ``Instance`` refuses these."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["tstar", str(path)])
    assert code == 1 and err == ""
    assert json.loads(out) == {"error": message}


@pytest.mark.parametrize("command", ["tstar", "opt", "gap"])
@pytest.mark.parametrize(
    "name, text, message",
    [
        (
            "inst.json",
            '{"players": [], "resources": {"a": "1"}, "covets": {}}',
            "instance lists no players",
        ),
        ("inst.txt", "players\nresource a 1\n", "line 1: players line lists no players"),
    ],
    ids=["json", "text"],
)
def test_instance_without_players_is_json_error(tmp_path, command, name, text, message):
    """Both formats refuse an instance with no player, so ``gap`` never
    reports an infinite gap, or a broken bound, for one."""
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli([command, str(path)])
    assert code == 1 and err == ""
    assert json.loads(out) == {"error": message}


@pytest.mark.parametrize(
    "doc",
    [
        {"vertices": [0, 1, 2], "edges": [[0, 1], [0, -1]]},
        {"vertices": [0, 1, 2], "edges": [[0, 1], [True, 2]]},
        {"vertices": [0, 1, 2], "edges": [[0, 1], [0, 5]]},
        {"vertices": [0, 1, 2], "edges": [[0, 1, 2]]},
        {"vertices": [{"owner": "p"}, 1], "edges": []},
        {"vertices": [0, 1], "edges": [[0, 1]], "parts": {"a": 3}},
    ],
    ids=[
        "negative-index",
        "boolean-index",
        "out-of-range-index",
        "not-a-pair",
        "bad-descriptor",
        "bad-parts",
    ],
)
def test_eta_rejects_malformed_graph(tmp_path, doc):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["eta", str(path)])
    assert code == 1
    assert "error" in json.loads(out)


def test_eta_rejects_invalid_json(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"vertices": [0, 1], "edges": [[0, 1]')
    code, out, _ = run_cli(["eta", str(path)])
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize(
    "doc",
    [
        {"vertices": [0, "a"], "edges": []},
        {"vertices": [None, 1], "edges": [[0, 1]]},
        {"vertices": [{"owner": "p", "resources": ["a", 1]}], "edges": []},
    ],
    ids=["int-and-string", "null-and-int", "resources-string-and-int"],
)
def test_eta_rejects_labels_that_do_not_sort(tmp_path, doc):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["eta", str(path)])
    assert code == 1
    assert "error" in json.loads(out)
    assert err == ""


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"vertices": [true, 1, 2], "edges": [[0, 2], [1, 2]]}', "duplicate vertex 1"),
        ('{"vertices": [1, 1], "edges": [[0, 1]]}', "duplicate vertex 1"),
        (
            '{"vertices": [{"owner": "p", "resources": ["a", "b"]},'
            ' {"owner": "p", "resources": ["b", "a"]}], "edges": []}',
            "duplicate vertex ('p', ('a', 'b'))",
        ),
        ('{"vertices": [0, 1], "edges": [[0, 1]], "edges": []}', "duplicate key 'edges'"),
        ('{"vertices": [{"owner": "p", "owner": "q", "resources": ["a"]}]}', "duplicate key 'owner'"),
        (
            '{"vertices": [0, 1, 2], "edges": [[0, 1], [1, 0]], "parts": {"a": [0, 0], "b": [0]}}',
            "edge [1, 0] is listed twice",
        ),
        ('{"vertices": [0, 1, 2], "edges": [[1, 2], [0, 1], [1, 2]]}', "edge [1, 2] is listed twice"),
        (
            '{"vertices": [0, 1, 2], "edges": [[0, 1]], "parts": {"a": [2, 0, 2], "b": [0]}}',
            "part 'a' lists vertex index 2 twice",
        ),
    ],
    ids=[
        "true-and-1", "1-and-1", "permuted-resources", "repeated-key", "repeated-descriptor-key",
        "edge-reversed", "edge-same-orientation", "part-index",
    ],
)
def test_eta_rejects_equal_vertices_and_repeated_keys(tmp_path, text, message):
    """Equal labels are refused, not merged into one vertex ("true-and-1"
    would read as 2 vertices and eta 1) or reported as a self-loop; a
    repeated key is refused, not read as its last value; an edge or a part
    entry listed twice is refused, not merged ("edge-reversed" would read as
    one edge and a part of one vertex)."""
    path = tmp_path / "g.json"
    path.write_text(text)
    code, out, err = run_cli(["eta", str(path)])
    assert code == 1 and err == ""
    assert message in json.loads(out)["error"]


def test_json_instance_with_a_repeated_key_is_json_error(tmp_path):
    """Read as its last value of a, this document would have T* = 1."""
    path = tmp_path / "inst.json"
    path.write_text(
        '{"players": ["p1"], "resources": {"a": "1/2", "a": "1"}, "covets": {"p1": ["a"]}}'
    )
    for command in ("tstar", "opt", "gap"):
        code, out, err = run_cli([command, str(path)])
        assert code == 1 and err == ""
        assert "duplicate key 'a'" in json.loads(out)["error"]


def test_trace_and_dual_with_a_repeated_key_are_json_errors(instance_file, tmp_path):
    gpath = tmp_path / "k2.json"
    gpath.write_text(json.dumps({"vertices": [0, 1], "edges": [[0, 1]]}))
    tpath = tmp_path / "trace.json"
    tpath.write_text('{"steps": [{"op": "delete", "edge": [0, 1], "edge": [1, 0]}]}')
    code, out, _ = run_cli(["de-verify", str(gpath), str(tpath)])
    assert code == 1 and "duplicate key 'edge'" in json.loads(out)["error"]
    dpath = tmp_path / "dual.json"
    dpath.write_text(
        '{"y": {"p1": "1", "p2": "1"}, "z": {"a": "1/3", "b": "1/3", "c": "1/3",'
        ' "d": "1/3", "a": "0"}}'
    )
    code, out, _ = run_cli(["dual-check", instance_file, "3/2", str(dpath)])
    assert code == 1 and "duplicate key 'a'" in json.loads(out)["error"]


def _not_utf8(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"\xff")
    return str(path)


def _k2(tmp_path):
    path = tmp_path / "k2.json"
    path.write_text(json.dumps({"vertices": [0, 1], "edges": [[0, 1]]}))
    return str(path)


def test_eta_non_utf8_graph_is_json_error(tmp_path):
    code, out, err = run_cli(["eta", _not_utf8(tmp_path, "g.json")])
    assert code == 1
    assert "UTF-8" in json.loads(out)["error"]
    assert err == ""


@pytest.mark.parametrize("bad", ["graph", "trace"])
def test_de_verify_non_utf8_file_is_json_error(tmp_path, bad):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"steps": []}))
    argv = ["de-verify", _k2(tmp_path), str(trace)]
    argv[1 if bad == "graph" else 2] = _not_utf8(tmp_path, "bad.json")
    code, out, err = run_cli(argv)
    assert code == 1
    assert "UTF-8" in json.loads(out)["error"]
    assert err == ""


def test_dual_check_non_utf8_dual_is_json_error(instance_file, tmp_path):
    code, out, err = run_cli(
        ["dual-check", instance_file, "1", _not_utf8(tmp_path, "dual.json")]
    )
    assert code == 1
    assert "UTF-8" in json.loads(out)["error"]
    assert err == ""


def test_de_verify_unknown_op_is_json_error(tmp_path):
    gpath = tmp_path / "k2.json"
    gpath.write_text(json.dumps({"vertices": [0, 1], "edges": [[0, 1]]}))
    tpath = tmp_path / "trace.json"
    tpath.write_text(json.dumps({"steps": [{"op": "flip", "edge": [0, 1]}]}))
    code, out, _ = run_cli(["de-verify", str(gpath), str(tpath)])
    assert code == 1
    assert "flip" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "trace",
    [
        {"foo": 1},
        {"steps": {"op": "delete", "edge": [0, 1]}},
        [{"op": "delete"}],
        [{"edge": [0, 1]}],
        ["delete"],
        [[0, 1]],
        [{"op": "delete", "edge": [0]}],
        [{"op": "delete", "edge": 0}],
        7,
    ],
    ids=[
        "no-steps",
        "steps-not-a-list",
        "step-without-edge",
        "step-without-op",
        "step-a-string",
        "step-a-list",
        "edge-not-a-pair",
        "edge-a-scalar",
        "trace-a-number",
    ],
)
def test_de_verify_malformed_trace_is_json_error(tmp_path, trace):
    gpath = tmp_path / "k2.json"
    gpath.write_text(json.dumps({"vertices": [0, 1], "edges": [[0, 1]]}))
    tpath = tmp_path / "trace.json"
    tpath.write_text(json.dumps(trace))
    code, out, err = run_cli(["de-verify", str(gpath), str(tpath)])
    assert code == 1
    assert "error" in json.loads(out)
    assert err == ""


@pytest.mark.parametrize(
    "doc",
    [
        {"y": {"p1": "0", "p2": "0"}},
        {"z": {"a": "0", "b": "0", "c": "0", "d": "0"}},
        [1, 2],
        {"y": [0, 0], "z": {"a": "0"}},
        {"y": {"p1": "0"}, "z": {"a": "0", "b": "0", "c": "0", "d": "0"}},
    ],
    ids=["no-z", "no-y", "not-an-object", "y-not-an-object", "missing-player"],
)
def test_dual_check_rejects_bad_document(instance_file, tmp_path, doc):
    dpath = tmp_path / "dual.json"
    dpath.write_text(json.dumps(doc))
    code, out, _ = run_cli(["dual-check", instance_file, "1", str(dpath)])
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        ["rc-table", "--max", "0"],
        ["f-gap", "0"],
        ["f-gap", "3/2"],
        ["experiment", "--count", "-1"],
        ["de-search", "g.json", "--budget", "0"],
        ["de-search", "g.json", "--budget", "-5"],
        ["experiment", "--players", "0"],
        ["experiment", "--resources", "-1"],
        ["experiment", "--kind", "random", "--eps", "7"],
        ["experiment", "--kind", "two_value", "--resources", "40"],
        ["experiment", "--kind", "two_value", "--density", "nan"],
        ["experiment", "--kind", "two_value", "--density", "7"],
        ["experiment", "--count", "abc"],
        ["experiment", "--density", "abc"],
        ["gap", "two.txt", "--bound", "-1"],
        ["gap", "two.txt", "--bound", "abc"],
        ["experiment", "--bound", "0"],
        ["experiment", "--bound", "abc"],
    ],
    ids=[
        "rc-table-max-0",
        "f-gap-0",
        "f-gap-above-1",
        "experiment-count-negative",
        "de-search-budget-0",
        "de-search-budget-negative",
        "experiment-players-0",
        "experiment-resources-negative",
        "experiment-random-eps",
        "experiment-two-value-resources",
        "experiment-density-nan",
        "experiment-density-7",
        "experiment-count-not-integer",
        "experiment-density-not-number",
        "gap-bound-negative",
        "gap-bound-not-rational",
        "experiment-bound-0",
        "experiment-bound-not-rational",
    ],
)
def test_out_of_range_arguments_exit_64(argv):
    code, out, err = run_cli(argv)
    assert code == 64
    assert out == ""
    assert "error:" in err
    assert not re.search(r"\b_[a-z]", err), err  # no private function named
    # the usage of the subcommand whose argument was wrong
    assert err.startswith(f"usage: santagap {argv[0]} "), err


WIDE_COVET_DOC = (
    "players p\n"
    + "".join(f"resource r{i} 1\n" for i in range(21))
    + "covets p " + " ".join(f"r{i}" for i in range(21)) + "\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["--alpha", "0", "--target", "1"],
        ["--alpha=-1/2", "--target", "1"],
        ["--alpha", "1/2", "--target", "0"],
    ],
    ids=["alpha-0", "alpha-negative", "target-0"],
)
def test_hypergraph_non_positive_threshold_is_json_error(instance_file, argv):
    code, out, err = run_cli(["hypergraph", instance_file, *argv])
    assert code == 1
    assert json.loads(out) == {"error": "alpha*T must be positive"}
    assert err == ""


@pytest.mark.parametrize(
    "command",
    [["hypergraph", "--alpha", "1", "--target", "1"], ["gap"], ["opt"]],
    ids=["hypergraph", "gap", "opt"],
)
def test_over_cap_covet_list_is_cap_error(tmp_path, command):
    path = tmp_path / "wide.txt"
    path.write_text(WIDE_COVET_DOC)
    code, out, err = run_cli([command[0], str(path), *command[1:]])
    assert code == 1
    assert json.loads(out)["error"].startswith("cap exceeded: ")
    assert err == ""


@pytest.mark.parametrize("command", ["opt", "gap"])
def test_over_node_cap_opt_is_cap_error(monkeypatch, command):
    """The 4x6 golden's OPT scan takes 12 nodes, one over a cap of 11."""
    monkeypatch.setattr(subsets, "DEFAULT_NODE_CAP", 11)
    code, out, err = run_cli([command, GAP_GOLDEN])
    assert code == 1
    assert json.loads(out) == {"error": "cap exceeded: more than 11 search nodes"}
    assert err == ""


def test_rc_cap_answers_at_the_cap_and_fails_above():
    code, out, _ = run_cli(["f-gap", "1/200"])
    assert code == 0
    assert json.loads(out)["f"] == "200/81"
    for argv in (["f-gap", "1/201"], ["rc-table", "--max", "201"]):
        code, out, err = run_cli(argv)
        assert code == 1
        assert json.loads(out) == {"error": "cap exceeded: c = 201 exceeds cap 200"}
        assert err == ""


def test_over_edge_cap_hypergraph_is_cap_error(monkeypatch, instance_file):
    """H of two players coveting four halves has 30 edges at alpha*T = 1."""
    monkeypatch.setattr(allocation_graph, "DEFAULT_EDGE_CAP", 29)
    code, out, err = run_cli(["hypergraph", instance_file, "--alpha", "1", "--target", "1"])
    assert code == 1
    assert json.loads(out) == {"error": "cap exceeded: more than 29 edges"}
    assert err == ""


def test_gap_zero_opt_is_infinite(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("players p1 p2\nresource a 1\ncovets p1 a\n")
    code, out, _ = run_cli(["gap", str(path)])
    assert code == 0
    assert json.loads(out) == {
        "schema": "santa-gap/1",
        "t_star": "0",
        "opt": "0",
        "gap": "inf",
        "bound_respected": False,
    }


@pytest.mark.parametrize(
    "command", [["eta"], ["de-search"], ["de-verify", "trace"]], ids=lambda c: c[0]
)
def test_over_cap_graph_is_cap_error(tmp_path, command):
    """A 25-vertex cycle is one vertex over the eta cap."""
    n = 25
    graph = tmp_path / "cycle.json"
    edges = [[i, (i + 1) % n] for i in range(n)]
    graph.write_text(json.dumps({"vertices": list(range(n)), "edges": edges}))
    trace = tmp_path / "trace"
    trace.write_text(json.dumps({"steps": [{"op": "delete", "edge": [0, 1]}]}))
    argv = [command[0], str(graph)] + [str(tmp_path / f) for f in command[1:]]
    code, out, err = run_cli(argv)
    assert code == 1
    assert json.loads(out) == {"error": "cap exceeded: 25 vertices exceeds cap 24"}
    assert err == ""
