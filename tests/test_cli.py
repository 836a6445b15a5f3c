import hashlib
import json
import time
from pathlib import Path

import pytest

from severi.base import BudgetExceeded
from tests.cold import run, run_cli
from tests.test_hurwitz import DOT_SHA256

FIXTURES = Path(__file__).parent / "fixtures"


def test_dim():
    proc = run_cli("dim", "--d", "3", "--g", "2", "--b", "3")
    assert json.loads(proc.stdout)["dimension"] == 6


def test_gamma_product_model():
    proc = run_cli(
        "gamma", "--model", "elliptic_times_p1", "--D", "0,1", "--tau", "3,2",
        "--b", "0", "--g", "2",
    )
    data = json.loads(proc.stdout)
    assert data == {
        "applicable": True,
        "dim_bound": 4,
        "gamma": 3,
        "model": "elliptic_times_p1",
    }


def test_gamma_not_applicable():
    proc = run_cli(
        "gamma", "--model", "elliptic_times_p1", "--D", "0,3", "--tau", "1,1",
        "--b", "0", "--g", "2",
    )
    data = json.loads(proc.stdout)
    assert data["applicable"] is False and data["dim_bound"] is None


def test_terms_simple_and_general():
    state = str(FIXTURES / "state_simple.json")
    simple = json.loads(run_cli("terms", "--state", state, "--simple").stdout)
    general = json.loads(run_cli("terms", "--state", state).stdout)
    assert simple["dimension"] == 6
    assert len(simple["terms"]) == 1
    assert simple["terms"][0]["kind"] == "I"
    assert len(general["terms"]) == 1


def test_terms_invalid_state_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": 3, "N": 1, "g": 0, "alpha": [], "betas": []}))
    proc = run_cli("terms", "--state", str(bad), expect=1)
    assert "class equation" in proc.stderr


def test_usage_error_exit_code():
    run_cli("dim", "--d", "3", expect=2)


def test_budget_exit_code():
    # (d, b) = (5, 6) has 243,765,360 tuples: refused by its count, before
    # enumerating any
    args = ("hurwitz", "orbits", "--d", "5", "--g", "4")
    proc = run_cli(*args, expect=3, timeout=5)
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("budget exceeded:")


def test_hurwitz_orbits_checks_the_domain_before_the_budget():
    # d = 0 is out of the domain (exit 1), whatever b is: b = 102 would be
    # over the branch bound
    for g in ("5", "52"):
        proc = run_cli("hurwitz", "orbits", "--d", "0", "--g", g, expect=1)
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: need d >= 1, b >= 0"]


@pytest.mark.parametrize(
    "d,g,expect,stderr",
    [
        ("3", "5", 0, ""),
        ("2", "51", 0, ""),
        ("3", "7", 3, "budget exceeded: enumeration guard: N(3, 12) = 6377292 > 3000000"),
        ("2", "52", 3, "budget exceeded: enumeration guard: b=102 > 100"),
    ],
    ids=["d3-g5", "d2-g51", "d3-g7", "d2-g52"],
)
def test_hurwitz_orbits_shares_the_scan_branch_bound(d, g, expect, stderr):
    # the orbit count reaches as far as the scan's bound on b and the tuple
    # count allow: (3, 8) has 78,720 tuples in one orbit, (2, 100) four
    proc = run_cli("hurwitz", "orbits", "--d", d, "--g", g, expect=expect)
    assert proc.stderr.strip() == stderr
    if expect == 0:
        assert '"orbit_count":1' in proc.stdout
    else:
        assert proc.stdout == ""


def test_empty_hurwitz_space_is_an_orbit_error_and_a_zero_scan():
    # no cover of one sheet has branch points: the orbit count partitions a
    # given tuple set and refuses the empty one, as hurwitz_component_count
    # refuses d < 2, while the scan totals whatever its class walk yields
    proc = run_cli("hurwitz", "orbits", "--d", "1", "--g", "2", expect=1)
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: no tuples to partition"]
    proc = run_cli("mono", "scan", "--d", "1", "--b", "2")
    assert '"tuples":0' in proc.stdout and json.loads(proc.stdout)["ok"]


def test_tuple_sheet_count_over_budget_exit_code(tmp_path):
    # refused before any permutation of a billion sheets is built
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"d": 1_000_000_000}))
    proc = run_cli("mono", "check", "--tuple", str(big), expect=3)
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget exceeded:") and proc.stderr.count("\n") == 1


def test_mono_factor_group_order_over_budget_exit_code(tmp_path):
    # valid ramified 9-sheet tuples, one with e = 1 and one with e = 3: the
    # kernel check closes only G, so each meets the closure budget of 8!
    nines = [
        {"d": 9, "A": [list(range(1, 10))], "B": [], "T": [[[1, 2]], [[1, 2]]]},
        {
            "d": 9, "A": [[1, 4, 7], [2, 5, 8], [3, 6, 9]], "B": [],
            "T": [[[1, 2]], [[2, 3]], [[2, 3]], [[1, 2]]],
        },
    ]
    for i, document in enumerate(nines):
        nine = tmp_path / f"nine{i}.json"
        nine.write_text(json.dumps(document))
        assert json.loads(run_cli("mono", "check", "--tuple", str(nine)).stdout)["valid"]
        proc = run_cli("mono", "factor", "--tuple", str(nine), expect=3)
        assert proc.stdout == ""
        assert proc.stderr == "budget exceeded: group closure needs 362880 > budget 40320\n"


def test_mono_factor_unramified_tuple_skips_the_kernel_check(tmp_path):
    # no branch letters, so no kernel claim to check: skipped, not failed
    unramified = tmp_path / "unramified.json"
    unramified.write_text(json.dumps({"d": 2, "A": [[1, 2]]}))
    proc = run_cli("mono", "factor", "--tuple", str(unramified))
    assert '"applicable":false' in proc.stdout and '"ok":true' in proc.stdout


@pytest.mark.parametrize(
    "flags",
    [("--key-mode", "symbolic"), ("--simple", "--key-mode", "symbolic")],
    ids=["symbolic", "simple-symbolic"],
)
def test_fixed_point_walk_over_budget_exit_code(flags):
    # 22 order-one fixed points: in symbolic mode both statements walk 2^22
    # kept subsets and are refused before listing one
    start = time.monotonic()
    proc = run_cli("terms", "--state", str(FIXTURES / "state_many_points.json"), *flags, expect=3)
    assert time.monotonic() - start < 5
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("budget exceeded:")


@pytest.mark.parametrize("flags", [(), ("--simple",)], ids=["degree", "simple-degree"])
def test_fixed_point_walk_over_run_prefixes_exit_code(flags):
    # the same 22 points in degree mode: both statements walk one prefix per
    # count of kept points, 23 in all, and stay under the budget
    start = time.monotonic()
    proc = run_cli("terms", "--state", str(FIXTURES / "state_many_points.json"), *flags)
    assert time.monotonic() - start < 5
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["terms"]


# fixed points p1, p2 and one transverse group 1^2, for the simple statement
TRANSVERSE = {
    "d": 4,
    "g": 3,
    "alpha": [{"mult": 1, "point": "p1"}, {"mult": 1, "point": "p2"}],
    "betas": [
        {"profile": [1, 1], "L": {"degree": 2, "expr": [
            {"kind": "sym", "name": "L", "deg": 2, "coeff": 1}]}}
    ],
}


@pytest.mark.parametrize(
    "document,flags",
    [
        (json.loads((FIXTURES / "state_two_groups.json").read_text()), ()),
        (TRANSVERSE, ("--simple",)),
    ],
    ids=["general", "simple"],
)
def test_terms_output_over_budget_exit_code(tmp_path, document, flags):
    # each type II row gives one term per m = 1..N: at N = 10^12 the terms
    # are refused before the first is built
    path = tmp_path / "state.json"
    path.write_text(json.dumps({**document, "N": 10**12}))
    start = time.monotonic()
    proc = run_cli("terms", "--state", str(path), *flags, expect=3)
    assert time.monotonic() - start < 5
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("budget exceeded: terms: ")


@pytest.mark.parametrize("mass", [55, 70])
def test_type_two_partitions_over_budget_exit_code(tmp_path, mass):
    # one fixed point of order m, released at once: p(m) - 1 type II rows,
    # 451,275 at m = 55, refused before any partition is listed
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"d": mass, "N": 1, "g": 0, "alpha": [{"mult": mass, "point": "p1"}]}))
    for command in ("terms", "--state"), ("forest", "--root"):
        proc = run_cli(*command, str(path), expect=3, timeout=5)
        assert proc.stdout == ""
        assert proc.stderr == f"budget exceeded: terms: p({mass}) - 1 type II rows > 100000\n"


def test_type_two_walk_over_budget_exit_code(tmp_path):
    # sixteen groups 1^2: 2^16 choices of kept groups and drops, refused
    # before the walk lists one
    groups = [
        {"profile": [1, 1], "L": {"degree": 2, "expr": [
            {"kind": "sym", "name": f"L{j}", "deg": 2, "coeff": 1}]}}
        for j in range(1, 17)
    ]
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"d": 32, "N": 1, "g": 0, "betas": groups}))
    proc = run_cli("terms", "--state", str(path), expect=3, timeout=2)
    assert proc.stdout == ""
    assert proc.stderr == "budget exceeded: type II walk: 65536 choices > 2048\n"


@pytest.mark.parametrize(
    "builder,args",
    [
        ("severi.degeneration.forest_to_dot",
         ("forest", "--root", str(FIXTURES / "state_simple.json"), "--floor", "0")),
        ("severi.hurwitz.move_graph_dot", ("hurwitz", "orbits", "--d", "3", "--g", "2")),
    ],
    ids=["forest", "hurwitz"],
)
def test_dot_file_kept_when_its_text_fails(tmp_path, monkeypatch, capsys, builder, args):
    # the text is built before the file is opened, so a refusal leaves an
    # existing file as it was
    from severi import cli

    def refuse(_):
        raise BudgetExceeded("dot: refused")

    monkeypatch.setattr(builder, refuse)
    out = tmp_path / "graph.dot"
    out.write_bytes(b"digraph old {}\n")
    assert cli.main([*args, "--dot", str(out)]) == 3
    assert out.read_bytes() == b"digraph old {}\n"
    assert capsys.readouterr() == ("", "budget exceeded: dot: refused\n")


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    """Symbolic terms, a symbolic forest and the move graph, DOT file
    included, are the same bytes under two hash seeds: no output follows
    the iteration order of a set of strings."""
    state = str(FIXTURES / "state_two_groups.json")
    runs = []
    for seed in ("0", "1"):
        dot = tmp_path / f"moves{seed}.dot"
        outputs = []
        for args in (
            ("terms", "--state", state, "--key-mode", "symbolic"),
            ("forest", "--root", state, "--key-mode", "symbolic", "--max-nodes", "300"),
            ("hurwitz", "orbits", "--d", "4", "--g", "2", "--dot", str(dot)),
        ):
            proc = run("-m", "severi.cli", *args, text=False, env={"PYTHONHASHSEED": seed})
            outputs.append((proc.returncode, proc.stdout))
        runs.append((outputs, dot.read_bytes()))
    assert [code for code, _ in runs[0][0]] == [0, 3, 0]
    assert runs[0] == runs[1]


def test_forest_with_dot(tmp_path):
    out = tmp_path / "forest.dot"
    proc = run_cli(
        "forest", "--root", str(FIXTURES / "state_simple.json"),
        "--floor", "0", "--dot", str(out),
    )
    data = json.loads(proc.stdout)
    assert not data["truncated"]
    assert len(data["nodes"]) >= 2
    assert out.read_text().startswith("digraph")


@pytest.mark.parametrize("max_nodes", ["0", "-1"])
def test_forest_budget_below_one_is_one_error_line(max_nodes):
    proc = run_cli(
        "forest", "--root", str(FIXTURES / "state_simple.json"), "--max-nodes", max_nodes,
        expect=1,
    )
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: max_nodes must be >= 1")


def test_forest_budget_of_one_node_exits_3():
    proc = run_cli(
        "forest", "--root", str(FIXTURES / "state_simple.json"), "--max-nodes", "1", expect=3
    )
    data = json.loads(proc.stdout)
    assert data["truncated"] and len(data["nodes"]) == 1 and data["edges"] == []
    assert proc.stderr.splitlines() == [
        "budget exceeded: forest: max_nodes=1 reached, partial forest printed"
    ]


def test_genusbound():
    proc = run_cli("genusbound", "--graph", str(FIXTURES / "graph_chain.json"), "--g", "3")
    data = json.loads(proc.stdout)
    assert data["holds"] and data["equality"]


_EMPTY_GROUP = {
    "d": 3, "N": 2, "g": 2,
    "alpha": [{"mult": 1, "point": f"p{i}"} for i in (1, 2, 3)],
    "betas": [{"profile": [], "L": {"degree": 0, "expr": []}}],
}
_ONE_EDGE = {
    "x_genus": 2,
    "e_components": [{"genus": 1, "degree": 1}],
    "z_components": [{"genus": 0}],
    "edges": [["X", "Z0"]],
}


@pytest.mark.parametrize(
    "args,document,message",
    [
        pytest.param(
            ("terms", "--simple", "--state"), _EMPTY_GROUP,
            "group 0: empty moving group", id="terms-simple-empty-group",
        ),
        pytest.param(
            ("terms", "--state"), _EMPTY_GROUP,
            "group 0: empty moving group", id="terms-empty-group",
        ),
        pytest.param(
            ("genusbound", "--g", "2", "--graph"), _ONE_EDGE,
            "Z0 is a rational tail; the central fiber must be minimal; "
            "central fiber must be connected",
            id="genusbound-invalid-graph",
        ),
        pytest.param(
            ("genusbound", "--g", "5", "--graph"), None,
            "genus mismatch: graph has arithmetic genus 3, not 5", id="genusbound-mismatch",
        ),
    ],
)
def test_validation_errors_are_one_pinned_line(tmp_path, args, document, message):
    path = FIXTURES / "graph_chain.json"
    if document is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(document))
    proc = run_cli(*args, str(path), expect=1)
    assert proc.stdout == "" and proc.stderr == f"error: {message}\n"


def test_lattice_subcommands():
    data = json.loads(run_cli("lattice", "snf", "--rows", "2,0;0,4").stdout)
    assert data["snf"] == [2, 4]
    data = json.loads(run_cli("lattice", "sublattices", "--e", "2").stdout)
    assert data["count"] == 3
    data = json.loads(run_cli("lattice", "hat", "--rows", "1,0;0,2", "--D", "2").stdout)
    assert data["feasible"] and data["lhat"] == [[2, 0], [0, 1]]
    data = json.loads(run_cli("lattice", "hat", "--rows", "2,0;0,2", "--D", "2").stdout)
    assert data["feasible"] is False
    data = json.loads(run_cli("lattice", "counts", "--d", "6").stdout)
    assert data["hurwitz_components"] == 8


def test_lattice_hat_with_a_large_prime_factor():
    # 2000000000000000006 = 2 * (10**18 + 3), a prime that takes trial
    # division 10^9 steps: the witness is the least shift of 2 by 3, to 5
    args = ("lattice", "hat", "--rows", "2000000000000000006,2;0,3", "--D", "5")
    proc = run_cli(*args, timeout=5)
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["v"] == [2000000000000000006, 5]


@pytest.mark.parametrize("action", ["snf", "hat"])
@pytest.mark.parametrize(
    "rows,bad", [("1,0;0,1;5,6,7", "5,6,7"), ("1,0;0,1;5", "5"), ("2,0;0,4;5", "5")]
)
def test_lattice_rows_need_two_integers(action, rows, bad):
    extra = ("--D", "2") if action == "hat" else ()
    proc = run_cli("lattice", action, "--rows", rows, *extra, expect=1)
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: row ")
    assert f"'{bad}'" in lines[0]


@pytest.mark.parametrize(
    "args,flag,bad",
    [
        (("gamma", "--D", "0,a", "--tau", "3,2"), "--D", "a"),
        (("gamma", "--D", "0,1", "--tau", "4,x"), "--tau", "x"),
        (("gamma", "--D", "0,1.5", "--tau", "3,2"), "--D", "1.5"),
        (("lattice", "snf", "--rows", "1,a;0,2"), "--rows", "a"),
    ],
)
def test_non_integer_vector_entry_names_its_flag(args, flag, bad):
    if args[0] == "gamma":
        args = (*args, "--model", "elliptic_times_p1", "--b", "0", "--g", "2")
    proc = run_cli(*args, expect=1)
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {flag} entry '{bad}' is not an integer"]


@pytest.mark.parametrize(
    "args", [("sublattices", "--e", "1000000"), ("counts", "--d", "100000000")]
)
def test_lattice_enumerators_over_budget_exit_code(args):
    proc = run_cli("lattice", *args, expect=3)
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("budget exceeded:")


@pytest.mark.parametrize("d,g,b", [("-1", "0", "0"), ("0", "-5", "-3"), ("3", "2", "-1")])
def test_dim_rejects_impossible_input(d, g, b):
    proc = run_cli("dim", "--d", d, "--g", g, "--b", b, expect=1)
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_mono_subcommands(tmp_path):
    tup = str(FIXTURES / "tuple_d3.json")
    data = json.loads(run_cli("mono", "check", "--tuple", tup).stdout)
    assert data["valid"]
    data = json.loads(run_cli("mono", "lattice", "--tuple", tup).stdout)
    assert data["primitive"]
    data = json.loads(run_cli("mono", "factor", "--tuple", tup).stdout)
    assert data["e"] == 1 and data["kernel"]["ok"]
    data = json.loads(run_cli("mono", "scan", "--d", "3", "--b", "2").stdout)
    assert data["ok"] and data["tuples"] == 96


def test_hurwitz_orbits_with_dot(tmp_path):
    """The DOT file of (4, 2) is the one pinned in test_hurwitz's
    DOT_SHA256, and writing it leaves stdout as it is without --dot."""
    out = tmp_path / "moves.dot"
    args = ("hurwitz", "orbits", "--d", "4", "--g", "2")
    proc = run_cli(*args, "--dot", str(out))
    assert proc.stdout == run_cli(*args).stdout
    assert json.loads(proc.stdout)["orbit_count"] == 4
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DOT_SHA256[4, 2]


def test_hurwitz_orbits_with_dot_gates_the_tuples_once(tmp_path, monkeypatch, capsys):
    """The drawing reads the checked set that the orbit count built: one
    hurwitz orbits call builds one _PackedMoves, --dot included."""
    from severi import cli
    from severi import hurwitz as hw

    built = []

    class Counted(hw._PackedMoves):
        def __init__(self, tuples):
            built.append(len(tuples))
            super().__init__(tuples)

    monkeypatch.setattr(hw, "_PackedMoves", Counted)
    out = tmp_path / "moves.dot"
    assert cli.main(["hurwitz", "orbits", "--d", "4", "--g", "2", "--dot", str(out)]) == 0
    assert built == [1440]
    assert json.loads(capsys.readouterr().out)["orbit_count"] == 4
    dot = hw.move_graph_dot(hw.orbits(hw.enumerate_tuples(4, 2)))
    assert out.read_bytes() == dot.encode()


def test_mono_factor_factors_the_tuple_once(monkeypatch, capsys):
    """The kernel check reads the factorization that mono factor prints."""
    from severi import cli
    from severi import monodromy as mo

    calls = []
    factorize = mo.factorize
    monkeypatch.setattr(mo, "factorize", lambda t: calls.append(t) or factorize(t))
    assert cli.main(["mono", "factor", "--tuple", str(FIXTURES / "tuple_d3.json")]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["kernel"]["ok"]


def test_repeated_runs_are_byte_identical():
    """Criterion 10 runs its nine invocations twice each and pins their
    bytes; this runs one more, ``hurwitz orbits`` at (d, g) = (3, 2)."""
    args = ("hurwitz", "orbits", "--d", "3", "--g", "2")
    first = run_cli(*args).stdout
    second = run_cli(*args).stdout
    assert first == second
    json.loads(first)  # and the output is valid JSON


@pytest.mark.parametrize(
    "d,b,code",
    [
        ("0", "2", 1),
        ("3", "-1", 1),
        ("7", "-1", 1),
        ("7", "2", 3),
        ("6", "12", 3),
        ("4", "20000", 3),
    ],
)
def test_scan_boundary_exit_codes(d, b, code):
    start = time.monotonic()
    proc = run_cli("mono", "scan", "--d", d, "--b", b, expect=code)
    assert time.monotonic() - start < 5
    assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "command,flag,document",
    [
        ("terms", "--state", {"d": [1], "N": 1, "g": 1}),
        ("forest", "--root", [1, 2]),
        pytest.param("mono check", "--tuple", [1, 2], id="mono-check-array"),
        pytest.param("mono lattice", "--tuple", [1, 2], id="mono-lattice-array"),
        pytest.param("mono factor", "--tuple", [1, 2], id="mono-factor-array"),
        pytest.param(
            "mono check", "--tuple", {"d": 3, "A": 5, "B": [], "T": []}, id="mono-check-A"
        ),
        pytest.param("genusbound --g 3", "--graph", [1, 2], id="genusbound-array"),
        pytest.param("mono check", "--tuple", {"d": 0}, id="mono-check-d0"),
    ],
)
def test_malformed_state_json_is_one_error_line(tmp_path, command, flag, document):
    """State, tuple and central-fiber documents of the wrong shape."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    proc = run_cli(*command.split(), flag, str(path), expect=1)
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
