"""Fuzzing ``tstar``, ``opt`` and ``gap`` through ``cli_main`` on instance
documents, in the text format and in its JSON mirror, ``eta`` on graph
documents, ``de-verify`` on DE-sequence traces and ``dual-check`` on dual
documents.

Every input must end with a documented exit code and a JSON document on
stdout, never with a traceback: 0 with the command's report for a valid
document, 1 with ``{"error": ...}`` for a malformed one (``de-verify`` also
exits 1 with its report for a well-formed trace with an illegal step).
The runs are derandomized, so every run tries the same inputs.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import delete_edge, explode_edge, rational_min_cost_subset_reaching
from santagap import topology
from santagap.cli import cli_main
from santagap.graphs import Graph, graph_from_json
from santagap.instance import parse_instance
from santagap.rational import parse_rational

REPORT_KEYS = {
    "tstar": {"schema", "t_star", "candidates", "probes"},
    "opt": {"schema", "opt", "witness"},
    "gap": {"schema", "t_star", "opt", "gap", "bound_respected"},
}

FUZZ = settings(max_examples=80, deadline=None, derandomize=True, database=None)

_values = st.builds(
    lambda n, d: f"{n}/{d}" if d > 1 else str(n), st.integers(1, 12), st.integers(1, 12)
)
# Short tokens and lines of any text.
_tokens = st.text(max_size=10)
_lines = st.lists(_tokens, max_size=4).map(" ".join)


@st.composite
def instance_lines(draw):
    """A valid instance document of at most 3 players and 6 resources."""
    players = [f"p{i}" for i in range(draw(st.integers(1, 3)))]
    resources = [f"r{i}" for i in range(draw(st.integers(0, 6)))]
    lines = ["players " + " ".join(players)]
    lines += [f"resource {r} {draw(_values)}" for r in resources]
    for p in players:
        wants = draw(st.lists(st.sampled_from(resources), unique=True)) if resources else []
        if wants:
            lines.append(f"covets {p} " + " ".join(wants))
    return lines


@st.composite
def mutated_text(draw):
    """A valid document with lines dropped, duplicated, inserted or with one
    token replaced by arbitrary text."""
    lines = draw(instance_lines())
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("drop", "duplicate", "insert", "token")))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "insert" or not lines:
            lines.insert(i, draw(_lines))
        elif op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_tokens)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "inst.txt"


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    assert err.getvalue() == "", (argv, err.getvalue())
    return code, json.loads(out.getvalue())


def _run_all(text, path):
    """Each command's (exit code, document), checked against the contract."""
    path.write_text(text, encoding="utf-8")
    results = {}
    for command in REPORT_KEYS:
        code, doc = _run(command, path)
        if code == 0:
            assert set(doc) == REPORT_KEYS[command], (command, text, doc)
        else:
            assert code == 1 and set(doc) == {"error"}, (command, text, code, doc)
            assert isinstance(doc["error"], str)
        results[command] = code, doc
    return results


@FUZZ
@given(lines=instance_lines())
def test_valid_instances_report_and_agree(lines, doc_path):
    results = _run_all("\n".join(lines) + "\n", doc_path)
    assert {code for code, _ in results.values()} == {0}, results
    tstar, opt, gap = (results[c][1] for c in ("tstar", "opt", "gap"))
    assert gap["t_star"] == tstar["t_star"] and gap["opt"] == opt["opt"]
    assert Fraction(opt["opt"]) <= Fraction(tstar["t_star"])
    assert 1 <= tstar["probes"]


@FUZZ
@given(text=mutated_text())
def test_mutated_instances_exit_zero_or_one(text, doc_path):
    results = _run_all(text, doc_path)
    # One parser serves all three commands: they accept or reject together.
    assert len({code for code, _ in results.values()}) == 1, results


@FUZZ
@given(text=st.lists(_lines, max_size=6).map("\n".join))
def test_arbitrary_text_exits_zero_or_one(text, doc_path):
    _run_all(text, doc_path)


# -- the JSON mirror ------------------------------------------------------------

# Any JSON value, NaN and the infinities included (``json.dumps`` writes them).
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=10,
)
_json_values = st.one_of(
    _values, st.integers(1, 12), st.sampled_from([0.5, 0.25, 1.5, 1e-05, 1e16])
)


@st.composite
def instance_docs(draw):
    """A valid JSON instance of at most 3 players and 6 resources."""
    players = [f"p{i}" for i in range(draw(st.integers(1, 3)))]
    resources = [f"r{i}" for i in range(draw(st.integers(0, 6)))]
    wants = st.lists(st.sampled_from(resources), unique=True) if resources else st.just([])
    return {
        "players": players,
        "resources": {r: draw(_json_values) for r in resources},
        "covets": {p: draw(wants) for p in players},
    }


def _as_text(doc):
    lines = ["players " + " ".join(doc["players"])]
    lines += [f"resource {r} {v}" for r, v in doc["resources"].items()]
    lines += [f"covets {p} " + " ".join(w) for p, w in doc["covets"].items() if w]
    return "\n".join(lines) + "\n"


@st.composite
def mutated_docs(draw):
    """A valid JSON instance with top-level keys dropped or replaced, or one
    entry of a players list, resources object or covets object replaced,
    by arbitrary JSON."""
    doc = draw(instance_docs())
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(("players", "resources", "covets")))
        op = draw(st.sampled_from(("drop", "replace", "entry")))
        part = doc.get(key)
        if op == "drop":
            doc.pop(key, None)
        elif op == "replace" or not part or not isinstance(part, (list, dict)):
            doc[key] = draw(_json)
        elif isinstance(part, list):
            part[draw(st.integers(0, len(part) - 1))] = draw(_json)
        else:
            part[draw(st.sampled_from(sorted(part)) | st.text(max_size=3))] = draw(_json)
    return doc


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "inst.json"


@FUZZ
@given(doc=instance_docs())
def test_valid_json_instances_match_the_text_format(doc, json_path, doc_path):
    results = _run_all(json.dumps(doc), json_path)
    assert {code for code, _ in results.values()} == {0}, results
    assert results == _run_all(_as_text(doc), doc_path)


@FUZZ
@given(doc=mutated_docs())
def test_mutated_json_instances_exit_zero_or_one(doc, json_path):
    results = _run_all(json.dumps(doc), json_path)
    assert len({code for code, _ in results.values()}) == 1, results


@FUZZ
@given(doc=_json)
def test_arbitrary_json_exits_zero_or_one(doc, json_path):
    _run_all(json.dumps(doc), json_path)


@pytest.mark.parametrize(
    "doc",
    [
        {"players": 5, "resources": {}, "covets": {}},
        {"players": ["p"], "resources": [], "covets": {}},
        {"players": ["p"], "resources": {"a": 1}, "covets": {"p": 3}},
        {"players": ["p"], "resources": {"a": 1}, "covets": {"p": "a"}},
        {"players": ["p", 1], "resources": {}, "covets": {}},
        {"players": ["p"], "resources": {"a": True}, "covets": {}},
        {"players": ["p"], "resources": {"a": [1]}, "covets": {}},
        {"players": ["p"], "resources": {"a": 1}, "covets": {"p": [["a"]]}},
        {"players": ["p q"], "resources": {}, "covets": {}},
        {"players": ["p"], "resources": {"": 1}, "covets": {}},
        ["players", "resources", "covets"],
    ],
    ids=[
        "players-a-number", "resources-a-list", "covets-a-number", "covets-a-string",
        "player-a-number", "value-a-bool", "value-a-list", "covet-a-list",
        "player-with-a-space", "resource-an-empty-id", "not-an-object",
    ],
)
def test_json_wrong_shapes_exit_one(doc, json_path):
    """Most of these shapes ended in a traceback, and "covets-a-string" read
    "a" as a list of one-letter ids."""
    for code, out in _run_all(json.dumps(doc), json_path).values():
        assert code == 1 and "error" in out


@pytest.mark.parametrize(
    "text", ["[" * 100_000, '{"a": 1' + "0" * 5000 + "}"],
    ids=["deep-nesting", "long-int"],
)
def test_json_decoder_failures_exit_one(text, json_path):
    for code, out in _run_all(text, json_path).values():
        assert code == 1 and out["error"].startswith("invalid JSON")


def test_non_utf8_instance_exits_one(doc_path, json_path):
    for path in (doc_path, json_path):
        path.write_bytes(b"players p\xff\n")
        for command in REPORT_KEYS:
            code, doc = _run(command, path)
            assert code == 1 and doc["error"].startswith("not UTF-8 text")


@pytest.mark.parametrize(
    "value, exact",
    [("1E5", "100000"), ("2e0", "2"), ("1.5e-1", "3/20"), ("1e-05", "1/100000"),
     ("1e+16", "10000000000000000"), ("1e-400", "1/" + "1" + "0" * 400)],
)
def test_exponent_values_parse_exactly(value, exact, doc_path):
    text = f"players p\nresource a {value}\ncovets p a\n"
    for command, (code, doc) in _run_all(text, doc_path).items():
        assert code == 0 and doc["t_star" if command == "tstar" else "opt"] == exact


@pytest.mark.parametrize("value", ["1e-20000", "1E401", "1e99999999", "1e-0000000000001"])
def test_large_exponents_exit_one(value, doc_path):
    """An exponent past MAX_EXPONENT is refused; accepted, "1e-20000" made a
    T* too long to print."""
    text = f"players p\nresource a {value}\ncovets p a\n"
    for code, doc in _run_all(text, doc_path).values():
        assert code == 1 and "bad value" in doc["error"]


def test_json_float_values_parse_exactly(tmp_path):
    """JSON numbers reach the parser through their repr, which for small and
    large floats is exponent notation ('1e-05', '1e+16')."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "players": ["p", "q"],
        "resources": {"a": 0.00001, "b": 1e16, "c": 0.5},
        "covets": {"p": ["a", "c"], "q": ["b"]},
    }))
    code, doc = _run("tstar", path)
    assert code == 0 and doc["t_star"] == "50001/100000"


def test_values_too_long_to_print_exit_one(doc_path):
    """Two values with coprime 2200-digit denominators sum to a T*, OPT and
    gap numerator of about 4400 digits: past Python's default limit on int
    to string conversion, where one exists, that is an error document."""
    a, b = 10**2199 + 1, 10**2199 + 3
    text = f"players p\nresource a 1/{a}\nresource b 1/{b}\ncovets p a b\n"
    key = {"tstar": "t_star", "opt": "opt", "gap": "t_star"}
    for command, (code, doc) in _run_all(text, doc_path).items():
        if code == 1:
            assert "too long to print" in doc["error"]
        else:
            assert doc[key[command]] == f"{a + b}/{a * b}"


# -- graph documents through ``eta`` ---------------------------------------------

_labels = st.one_of(
    st.lists(st.integers(-5, 40), unique=True, max_size=8),
    st.lists(st.text(max_size=3), unique=True, max_size=8),
    st.lists(
        st.tuples(st.sampled_from("pq"), st.lists(st.sampled_from("abcde"), min_size=1,
                                                  max_size=3, unique=True)),
        unique_by=lambda v: (v[0], tuple(sorted(v[1]))),
        max_size=8,
    ).map(lambda vs: [{"owner": o, "resources": rs} for o, rs in vs]),
)


@st.composite
def graph_docs(draw, min_edges=0):
    """A valid santa-graph/1 document of at most 8 distinct vertices and at
    least ``min_edges`` edges, as index pairs in either order, and some
    parts."""
    vertices = draw(_labels.filter(lambda vs: len(vs) * (len(vs) - 1) >= 2 * min_edges))
    n = len(vertices)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=min_edges)) if pairs else []
    edges = [[j, i] if draw(st.booleans()) else [i, j] for i, j in chosen]
    doc = {"schema": "santa-graph/1", "vertices": vertices, "edges": edges}
    if n and draw(st.booleans()):
        doc["parts"] = {"p": draw(st.lists(st.integers(0, n - 1), unique=True))}
    return doc


def _oracle_eta(doc):
    """eta from the full homology profile of the same structure on 0..n-1."""
    n = len(doc["vertices"])
    g = Graph(range(n), [tuple(e) for e in doc["edges"]])
    value = topology.eta_from_profile(topology.homology_profile(g))
    return "inf" if value == topology.INF else value


@st.composite
def mutated_graph_docs(draw):
    """A valid graph document with top-level keys dropped or replaced, or one
    vertex, edge or edge end replaced, by arbitrary JSON."""
    doc = draw(graph_docs())
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(("vertices", "edges", "parts")))
        op = draw(st.sampled_from(("drop", "replace", "entry", "end")))
        part = doc.get(key)
        if op == "drop":
            doc.pop(key, None)
        elif op == "replace" or not part or not isinstance(part, list):
            doc[key] = draw(_json)
        elif op == "end" and isinstance(part[0], list) and part[0]:
            part[0][draw(st.integers(0, len(part[0]) - 1))] = draw(_json)
        else:
            part[draw(st.integers(0, len(part) - 1))] = draw(_json)
    return doc


def _run_eta(doc, path):
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = _run("eta", path)
    if code == 0:
        assert set(out) == {"eta"}, (doc, out)
    else:
        assert code == 1 and set(out) == {"error"}, (doc, code, out)
        assert isinstance(out["error"], str)
    return code, out


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph.json"


@FUZZ
@given(doc=graph_docs())
def test_valid_graphs_give_the_oracle_eta(doc, graph_path):
    assert _run_eta(doc, graph_path) == (0, {"eta": _oracle_eta(doc)})


@FUZZ
@given(doc=mutated_graph_docs())
def test_mutated_graphs_exit_zero_or_one(doc, graph_path):
    _run_eta(doc, graph_path)


@FUZZ
@given(doc=_json)
def test_arbitrary_json_graphs_exit_zero_or_one(doc, graph_path):
    _run_eta(doc, graph_path)


@pytest.mark.parametrize(
    "doc",
    [
        {"vertices": [], "edges": None},
        {"vertices": [0], "edges": 5},
        {"vertices": [0, 1], "edges": {"0": 1}},
        {"vertices": [0, "a"], "edges": []},
        {"vertices": [None, 1], "edges": [[0, 1]]},
        {"vertices": [{"owner": "p", "resources": ["a", 1]}], "edges": []},
        {"vertices": [{"owner": [], "resources": ["a"]}], "edges": []},
        {"vertices": [{"owner": "p", "resources": [{}, {}]}], "edges": []},
        {"vertices": [{"owner": "p", "resources": [[]]}], "edges": []},
        {"vertices": [1, True], "edges": [[0, 1]]},
    ],
    ids=[
        "edges-null", "edges-a-number", "edges-an-object", "labels-int-and-string",
        "labels-null-and-int", "resources-string-and-int", "owner-a-list",
        "resources-objects", "resource-a-list", "labels-equal-as-values",
    ],
)
def test_graph_wrong_shapes_exit_one(doc, graph_path):
    """All but "edges-an-object" and "labels-equal-as-values" (a duplicate
    vertex, since 1 == True) ended in a traceback."""
    code, out = _run_eta(doc, graph_path)
    assert code == 1, out


# -- DE-sequence traces through ``de-verify`` --------------------------------------

REPLAY_KEYS = {"valid", "ell", "final_vertices", "final_edges", "eta_drop_certified"}


@st.composite
def legal_traces(draw):
    """A graph document, a legal sequence on it, each step drawn among the
    legal moves of a random edge of the current graph, its edge in either
    orientation, and the report of its replay."""
    doc = draw(graph_docs(min_edges=3))
    g, _ = graph_from_json(doc)
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        if not g.edges:
            break
        edge = draw(st.sampled_from(g.edges))
        cls = topology.classify_edge(g, edge)
        ops = [op for op, ok in ((topology.DELETE, cls.deletable),
                                 (topology.EXPLODE, cls.explodable)) if ok]
        op = draw(st.sampled_from(ops))
        steps.append(topology.DeStep(op, edge[::-1] if draw(st.booleans()) else edge))
        g = delete_edge(g, edge) if op == topology.DELETE else explode_edge(g, edge)
    report = {
        "valid": True,
        "ell": sum(step.op == topology.EXPLODE for step in steps),
        "final_vertices": len(g.vertices),
        "final_edges": len(g.edges),
        "eta_drop_certified": True,
    }
    return doc, [step.to_json() for step in steps], report


@st.composite
def mutated_traces(draw):
    """A legal trace with steps dropped, duplicated or swapped, ops flipped,
    or a step, an op, an edge or an edge end replaced by arbitrary JSON."""
    doc, steps, _ = draw(legal_traces())
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("drop", "duplicate", "swap", "flip", "step", "op",
                                   "edge", "end")))
        if not steps:
            steps.append(draw(_json))
            continue
        i = draw(st.integers(0, len(steps) - 1))
        step = steps[i]
        if op == "drop":
            del steps[i]
        elif op == "duplicate":
            steps.insert(i, step)
        elif op == "swap":
            j = draw(st.integers(0, len(steps) - 1))
            steps[i], steps[j] = steps[j], steps[i]
        elif not isinstance(step, dict) or op == "step":
            steps[i] = draw(_json)
        elif op == "flip":
            steps[i] = dict(step, op="explode" if step.get("op") == "delete" else "delete")
        elif op == "op":
            steps[i] = dict(step, op=draw(_json))
        elif op == "edge" or not isinstance(step.get("edge"), list) or not step["edge"]:
            steps[i] = dict(step, edge=draw(_json))
        else:
            edge = list(step["edge"])
            edge[draw(st.integers(0, len(edge) - 1))] = draw(_json)
            steps[i] = dict(step, edge=edge)
    trace = {"schema": "santa-trace/1", "steps": steps} if draw(st.booleans()) else steps
    return doc, trace


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "trace.json"


def _run_de_verify(doc, trace, graph_path, trace_path):
    graph_path.write_text(json.dumps(doc), encoding="utf-8")
    trace_path.write_text(json.dumps(trace), encoding="utf-8")
    code, out = _run("de-verify", graph_path, trace_path)
    if code == 0:
        assert set(out) == REPLAY_KEYS and out["valid"] is True, (doc, trace, out)
    elif "error" in out:
        assert code == 1 and set(out) == {"error"}, (doc, trace, code, out)
        assert isinstance(out["error"], str)
    else:
        assert code == 1 and set(out) == REPLAY_KEYS | {"failed_at"}, (doc, trace, out)
        assert out["valid"] is False and isinstance(out["failed_at"], int)
    return code, out


@FUZZ
@given(case=legal_traces())
def test_legal_traces_replay(case, graph_path, trace_path):
    """A legal trace replays with its explosion count and end graph, and
    certifies the eta drop."""
    doc, steps, report = case
    assert _run_de_verify(doc, {"steps": steps}, graph_path, trace_path) == (0, report)


@FUZZ
@given(case=mutated_traces())
def test_mutated_traces_exit_zero_or_one(case, graph_path, trace_path):
    _run_de_verify(*case, graph_path, trace_path)


@FUZZ
@given(doc=graph_docs(), trace=_json)
def test_arbitrary_json_traces_exit_zero_or_one(doc, trace, graph_path, trace_path):
    _run_de_verify(doc, trace, graph_path, trace_path)


def test_de_search_trace_replays(graph_path, trace_path):
    """The trace ``de-search`` prints for the five-cycle replays as valid."""
    doc = {"vertices": list(range(5)), "edges": [[i, (i + 1) % 5] for i in range(5)]}
    graph_path.write_text(json.dumps(doc), encoding="utf-8")
    code, found = _run("de-search", graph_path, "--objective", "edgeless")
    assert code == 0 and found["found"]
    code, out = _run_de_verify(doc, found["trace"], graph_path, trace_path)
    assert out["valid"] and out["ell"] == 2 and out["eta_drop_certified"]


# -- dual documents through ``dual-check`` ------------------------------------------

DUAL_KEYS = {"feasible", "objective"}
_dual_values = st.one_of(st.just("0"), _values, _values.map(lambda v: "-" + v))
_targets = st.one_of(_values, st.sampled_from(["0", "-1", "1e-05", "x", "1/0", ""]))


@st.composite
def dual_cases(draw):
    """A valid instance, a target, and a dual document over its players and
    resources, values drawn as strings or JSON numbers."""
    text = "\n".join(draw(instance_lines())) + "\n"
    inst = parse_instance(text)
    value = st.one_of(_dual_values, _dual_values.map(Fraction).map(float))
    dual = {
        "y": {p: draw(value) for p in inst.players},
        "z": {r: draw(value) for r in inst.resource_ids},
    }
    return text, draw(_targets), dual


@st.composite
def mutated_dual_cases(draw):
    """A dual case with "y" or "z" dropped or replaced by arbitrary JSON, an
    entry added to one of them, or the value of one entry replaced by
    arbitrary JSON or by another value string."""
    text, target, dual = draw(dual_cases())
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from(("y", "z")))
        op = draw(st.sampled_from(("drop", "replace", "add", "value", "value")))
        part = dual.get(key)
        if op == "drop":
            dual.pop(key, None)
        elif op == "replace" or not isinstance(part, dict):
            dual[key] = draw(_json)
        elif op == "add" or not part:
            part[draw(st.text(max_size=3))] = draw(_json)
        else:
            part[draw(st.sampled_from(sorted(part)))] = draw(_dual_values | _json)
    return text, target, dual


@pytest.fixture(scope="module")
def dual_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "dual.json"


def _run_dual_check(text, target, dual, doc_path, dual_path):
    doc_path.write_text(text, encoding="utf-8")
    dual_path.write_text(json.dumps(dual), encoding="utf-8")
    code, out = _run("dual-check", doc_path, target, dual_path)
    if code == 0:
        assert DUAL_KEYS <= set(out) <= DUAL_KEYS | {"violated"}, (dual, out)
        assert isinstance(out["feasible"], bool)
        assert not (out["feasible"] and "violated" in out), out
    else:
        assert code == 1 and set(out) == {"error"}, (text, target, dual, code, out)
        assert isinstance(out["error"], str)
    return code, out


def _reference_feasible(inst, target, y, z):
    """DCLP(target) feasibility from the Fraction min-cost covering search."""
    if any(v < 0 for v in (*y.values(), *z.values())):
        return False
    for p in inst.players:
        pool = {r: inst.resources[r] for r in inst.covets[p]}
        found = rational_min_cost_subset_reaching(pool, {r: z[r] for r in pool}, target)
        if y[p] > 0 and found is not None and found[0] < y[p]:
            return False
    return True


@FUZZ
@given(case=dual_cases())
def test_valid_duals_match_the_min_cost_reference(case, doc_path, dual_path):
    """A dual over the instance's ids is checked whenever the target parses;
    the verdict is the min-cost reference's, the objective is sum y - sum z,
    and a reported violation is a coveted set of its owner that reaches the
    target with z-weight below the owner's y."""
    text, target, dual = case
    code, out = _run_dual_check(text, target, dual, doc_path, dual_path)
    try:
        t = parse_rational(target)
    except ValueError:
        assert code == 1
        return
    inst = parse_instance(text)
    y = {p: parse_rational(str(v)) for p, v in dual["y"].items()}
    z = {r: parse_rational(str(v)) for r, v in dual["z"].items()}
    assert code == 0, out
    assert out["feasible"] == _reference_feasible(inst, t, y, z), (text, target, dual, out)
    assert parse_rational(out["objective"]) == sum(y.values()) - sum(z.values())
    if "violated" in out:
        owner, cfg = out["violated"]["owner"], out["violated"]["resources"]
        assert set(cfg) <= inst.covets[owner] and inst.value(cfg) >= t
        assert sum((z[r] for r in cfg), Fraction(0)) < y[owner]


@FUZZ
@given(case=mutated_dual_cases())
def test_mutated_duals_exit_zero_or_one(case, doc_path, dual_path):
    _run_dual_check(*case, doc_path, dual_path)


@FUZZ
@given(lines=instance_lines(), target=_targets, dual=_json)
def test_arbitrary_json_duals_exit_zero_or_one(lines, target, dual, doc_path, dual_path):
    _run_dual_check("\n".join(lines) + "\n", target, dual, doc_path, dual_path)
