import ast
import csv
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from referencing import Registry, Resource

from sylvester import bodies, certificates, cli
from sylvester.poly import DegreeBoundError, MultiPoly

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
DATA_DIR = Path(__file__).resolve().parent / "data"


def load_schema(name):
    with open(SCHEMA_DIR / name) as fh:
        return json.load(fh)


def validate(doc, schema_name):
    registry = Registry().with_resource(
        "defs.json", Resource.from_contents(load_schema("defs.json"))
    )
    validator = jsonschema.Draft7Validator(
        load_schema(schema_name), registry=registry
    )
    validator.validate(doc)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, (json.loads(out) if out else None)


COMB = '{"x":["1/3","2/3"],"l":["1/1","1/1"]}'


def test_comb(capsys):
    code, doc = run_json(capsys, ["comb", "--comb", COMB])
    assert code == 0
    assert doc["value"] == "1/2"
    validate(doc, "comb.json")


def test_comb_rejects_tops_out_of_convex_position(capsys):
    comb = '{"x":["1/4","1/2","3/4"],"l":["1/1","1/100","1/1"]}'
    assert cli.main(["comb", "--comb", comb]) == cli.EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tooth 2 (x = 1/2, l = 1/100) ")


def test_comb_rejects_a_single_tooth_of_zero_length(capsys):
    # Its point lies on the chord from (0, 0) to (1, 0): never convex.
    comb = '{"x":["1/2"],"l":["0"]}'
    assert cli.main(["comb", "--comb", comb]) == cli.EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: zero tooth length\n"


def test_comb_from_file(tmp_path, capsys):
    path = tmp_path / "comb.json"
    path.write_text(COMB)
    code, doc = run_json(capsys, ["comb", "--comb", str(path)])
    assert code == 0 and doc["value"] == "1/2"


def test_kpoly_symbolic_and_numeric(capsys):
    code, doc = run_json(capsys, ["kpoly", "--x", "1/3,2/3"])
    assert code == 0
    assert doc["variables"] == ["l1", "l2"]
    validate(doc, "kpoly.json")
    code, doc = run_json(
        capsys, ["kpoly", "--x", "1/3,2/3", "--lengths", "1/1,1/1"]
    )
    assert code == 0 and doc["value"] == "1/2"
    validate(doc, "kpoly.json")


def test_kpoly_lists_variables_in_tooth_order(capsys):
    # Sorted names would put l10 before l2; kpoly keeps l1 ... l10, and its
    # exponent tuples follow that order, so evaluating them at lengths
    # 1 ... 10 gives the numeric K.
    x = ",".join(f"{j}/11" for j in range(1, 11))
    names = [f"l{j}" for j in range(1, 11)]
    code, doc = run_json(capsys, ["kpoly", "--x", x])
    assert code == 0 and doc["variables"] == names
    value = sum(Fraction(t["coeff"]) * math.prod(
        j**e for j, e in enumerate(t["exps"], 1)) for t in doc["terms"])
    lengths = ",".join(str(j) for j in range(1, 11))
    code, numeric = run_json(capsys, ["kpoly", "--x", x, "--lengths", lengths])
    assert code == 0 and Fraction(numeric["value"]) == value


def test_kpoly_invalid_rational(capsys):
    for option, argv in (
        ("--x", ["--x", "{}"]),
        ("--lengths", ["--x", "1/3,2/3", "--lengths", "1/1,{}"]),
    ):
        for bad in ("1/0", "abc"):
            assert_document_error(
                capsys,
                ["kpoly"] + [a.format(bad) for a in argv],
                f"{option}: invalid rational {bad!r}",
            )


def test_cond(capsys):
    family = json.dumps({
        "N": 2,
        "xbar": ["0/1", "1/3", "2/3", "1/1"],
        "L0": "0/1", "L1": "0/1",
        "lambda": ["0/1", "1/2", "1/2", "0/1"],
        "beta": ["0/1", "0/1", "0/1", "0/1"],
    })
    code, doc = run_json(capsys, ["cond", "--family", family])
    assert code == 0 and doc["value"] == "3/4"
    validate(doc, "cond.json")


def test_cond_precondition_failure(capsys):
    family = json.dumps({
        "N": 2,
        "xbar": ["0/1", "1/3", "2/3", "1/1"],
        "L0": "0/1", "L1": "0/1",
        "lambda": ["0/1", "1/2", "1/2", "0/1"],
        "beta": ["0/1", "1/2", "-1/2", "0/1"],
    })
    code, _ = run_json(capsys, ["cond", "--family", family])
    assert code == cli.EXIT_PRECONDITION


def assert_document_error(capsys, argv, message):
    assert cli.main(argv) == cli.EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_comb_malformed_document(capsys):
    assert_document_error(
        capsys, ["comb", "--comb", "[1]"],
        "expected a JSON object with field 'x'",
    )
    assert_document_error(
        capsys, ["comb", "--comb", '{"x": "12", "l": [1, 1]}'],
        """field 'x' must be ["p/q", ...]""",
    )


def test_cond_malformed_document(capsys):
    assert_document_error(
        capsys, ["cond", "--family", "{}"], "missing field 'xbar'"
    )


def test_cond_short_xbar_names_xbar(capsys):
    family = json.dumps({
        "N": 2,
        "xbar": ["0/1", "1/2", "1/1"],
        "L0": "0/1", "L1": "0/1",
        "lambda": ["0/1", "1/2", "1/2", "0/1"],
        "beta": ["0/1", "0/1", "0/1", "0/1"],
    })
    assert_document_error(
        capsys, ["cond", "--family", family],
        "length mismatch: xbar has 3 entries, lambda 4, beta 4",
    )


def test_estimate_malformed_body(capsys):
    assert_document_error(
        capsys, ["estimate", "--body", '{"type": "disk"}'],
        "missing field 'center'",
    )
    assert_document_error(
        capsys, ["estimate", "--body", '{"type": "disk", "center": [0], "r": 1}'],
        """field 'center' must be ["p/q", "p/q"]""",
    )


def test_malformed_body_and_family_shapes(capsys):
    one_coordinate = json.dumps(
        {"type": "polygon", "vertices": [["0"], ["1", "0"], ["0", "1"]]})
    vertices = """field 'vertices' must be [["p/q", "p/q"], ...]"""
    assert_document_error(capsys, ["estimate", "--body", one_coordinate],
                          vertices)
    for op in ("sym", "sha"):
        assert_document_error(
            capsys, ["transform", "--op", op, "--body", one_coordinate],
            vertices)
    assert_document_error(
        capsys, ["transform", "--op", "sym", "--body", '{"type": "polygon"}'],
        "missing field 'vertices'")
    family = {"N": 2, "L0": "0", "L1": "0",
              "lambda": ["0", "1/2", "1/2", "0"], "beta": ["0", "0", "0", "0"]}
    for xbar in ("0,1/3,2/3,1", [["0"], "1/3", "2/3", "1"], {"0": "1"}):
        assert_document_error(
            capsys, ["cond", "--family", json.dumps(dict(family, xbar=xbar))],
            """field 'xbar' must be ["p/q", ...]""")


def test_estimate_rejects_body_without_float_image(capsys):
    # Exact bodies whose float image has an infinite entry, or no area: the
    # sampler would overflow or draw every point on a line.
    disk = {"type": "disk", "center": ["0", "0"], "r": "1e400"}
    cases = [
        (disk, "disk radius is not finite in floating point"),
        (dict(disk, center=["1e400", "0"], r="1"),
         "disk center is not finite in floating point"),
        (dict(disk, r="1e200"), "disk area is inf in floating point"),
        ({"type": "polygon", "vertices": [["0", "0"], ["1e400", "0"],
                                          ["0", "1"]]},
         "polygon vertex is not finite in floating point"),
        ({"type": "polygon", "vertices": [["0", "0"], ["1", "0"],
                                          ["0", "1e-400"]]},
         "polygon area is 0.0 in floating point"),
        ({"type": "ellipse", "m": [["1e-400", "0"], ["0", "1"]],
          "t": ["0", "0"]},
         "ellipse area is 0.0 in floating point"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for body, message in cases:
            argv = ["estimate", "--body", json.dumps(body), "--n", "4",
                    "--samples", "2000"]
            for extra in ([], ["--rb"], ["--workers", "2"]):
                assert_document_error(capsys, argv + extra, message)


def test_estimate(capsys):
    code, doc = run_json(
        capsys,
        ["estimate", "--body", "triangle", "--n", "4",
         "--samples", "5000", "--seed", "3"],
    )
    assert code == 0
    validate(doc, "estimate.json")
    assert doc["samples"] == 5000
    assert doc["run_config"]["seed"] == 3


def test_estimate_rb(capsys):
    code, doc = run_json(
        capsys,
        ["estimate", "--rb", "--body", "square", "--n", "3", "--samples", "20"],
    )
    assert code == 0
    assert doc["estimate"] == 1.0
    assert doc["hits"] is None
    validate(doc, "estimate.json")


def test_estimate_rb_golden(capsys):
    # The Rao-Blackwell path runs the float kernel on every sample, so its
    # output pins the slices, the comb recurrence and the Gauss nodes.
    for body in ("triangle", "disk"):
        cli.main(["estimate", "--rb", "--n", "5", "--samples", "10",
                  "--seed", "1", "--body", body])
        out = capsys.readouterr().out
        assert out == (DATA_DIR / f"estimate_rb_{body}.json").read_text()


def test_estimate_plain_golden(capsys):
    # Hit counts of the plain estimator pin the sampler and the hull test.
    cases = {
        "estimate_triangle_n8": ["estimate", "--body", "triangle", "--n", "8",
                                 "--samples", "20000", "--seed", "1"],
        "estimate_disk_n5_w2": ["estimate", "--body", "disk", "--n", "5",
                                "--samples", "50000", "--seed", "1",
                                "--workers", "2"],
        "theorem1": ["theorem1", "--samples", "20000", "--seed", "1"],
    }
    for name, argv in cases.items():
        assert cli.main(argv) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out == (DATA_DIR / f"{name}.json").read_text()


def test_byte_identical_output(capsys):
    argv = ["estimate", "--body", "disk", "--n", "5",
            "--samples", "3000", "--seed", "11", "--workers", "2"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_transform(capsys):
    code, doc = run_json(capsys, ["transform", "--op", "sym", "--body", "triangle"])
    assert code == 0
    validate(doc, "transform.json")
    assert ["0/1", "-1/2"] in doc["body"]["vertices"]
    code, doc = run_json(capsys, ["transform", "--op", "sha", "--body", "triangle"])
    assert code == 0
    assert all(v[1] != "-1/2" for v in doc["body"]["vertices"])


def test_closed_forms(capsys):
    code, doc = run_json(capsys, ["closed-forms"])
    assert code == 0
    validate(doc, "closed_forms.json")
    assert any(r["exact"] == "11/36" for r in doc["constants"])
    code, out = run(capsys, ["closed-forms", "--output", "csv"])
    assert code == 0
    assert out.startswith("# run_config:")
    assert "11/36" in out


def test_csv_rows_parse_into_the_json_values(capsys):
    # Lists, and so commas, in cells: ci95, vertices, terms, checks; None
    # (theorem1's exact disk constant) is an empty cell.
    for argv in (["estimate", "--samples", "100"],
                 ["transform", "--op", "sym", "--body", "triangle"],
                 ["kpoly", "--x", "1/3,2/3"],
                 ["verify", "--case", "n4"],
                 ["theorem1", "--samples", "200"]):
        _, doc = run_json(capsys, argv)
        _, out = run(capsys, argv + ["--output", "csv"])
        header, *rows = csv.reader(out.splitlines()[1:])
        expected = doc.get("rows", [doc])
        assert len(rows) == len(expected)
        for row, values in zip(rows, expected):
            assert len(row) == len(header)
            for name, cell in zip(header, row):
                value = values
                for key in name.split("."):
                    value = value[key]
                if isinstance(value, list):
                    assert json.loads(cell) == value
                else:
                    assert cell == ("" if value is None else str(value))


def test_verify_n4(capsys):
    code, doc = run_json(capsys, ["verify", "--case", "n4"])
    assert code == 0
    validate(doc, "verify.json")
    assert doc["summary"] == "pass"


def test_verify_pretty(capsys):
    code, out = run(capsys, ["verify", "--case", "n4", "--output", "pretty"])
    assert code == 0
    assert "[pass] identity:" in out
    assert "summary: pass" in out


def test_verify_n5_is_golden_without_n4(capsys):
    # --case n5 prints the n5 checks of --case all in the same order
    doc = json.loads((DATA_DIR / "verify_all.json").read_text())
    doc["identity_checks"] = [c for c in doc["identity_checks"]
                              if not c["name"].startswith("n4 ")]
    assert len(doc["identity_checks"]) == 17
    doc["run_config"]["case"] = "n5"
    code, out = run(capsys, ["verify", "--case", "n5"])
    assert code == 0
    assert out == json.dumps(doc, sort_keys=True)


def test_verify_golden_matches_schema():
    doc = json.loads((DATA_DIR / "verify_all.json").read_text())
    validate(doc, "verify.json")


def test_uncertified_positivity_fails_closed(capsys, monkeypatch):
    x1, x2 = MultiPoly.variable("x1"), MultiPoly.variable("x2")
    check = certificates.PositivityCheck(
        "t", certificates.positivity_check(x1 - x2))
    assert check.to_json() == {
        "name": "t", "method": "monomial-certificate", "pass": False,
    }
    report = certificates.CertificateReport(positivity_checks=[check])
    assert not report.summary
    monkeypatch.setattr(certificates, "verify_n4", lambda: report)
    code, out = run(capsys, ["verify", "--case", "n4", "--output", "pretty"])
    assert code == cli.EXIT_CERTIFICATE
    assert "[FAIL] positivity: t [monomial-certificate]" in out.splitlines()


def test_usage_errors(capsys):
    assert cli.main(["comb"]) == cli.EXIT_USAGE
    capsys.readouterr()
    assert cli.main(["nonsense"]) == cli.EXIT_USAGE
    capsys.readouterr()
    assert cli.main(["comb", "--comb", "not json"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_workers_below_one_rejected(capsys):
    for command in ("estimate", "theorem1"):
        for workers in ("0", "-1"):
            code = cli.main([command, "--workers", workers, "--samples", "10"])
            assert code == cli.EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and "at least 1" in err


def test_out_of_range_counts_are_usage_errors(capsys):
    cases = [
        ("estimate", "--samples", "0", "at least 1"),
        ("theorem1", "--samples", "-3", "at least 1"),
        ("estimate", "--n", "2", "at least 3"),
        ("estimate", "--n", "x", "invalid int value"),
        ("theorem1", "--seed", "-1", "at least 0"),
    ]
    for command, option, value, message in cases:
        assert cli.main([command, option, value]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: argument {option}:")
        assert message in captured.err


def test_structure_error_exits_3(capsys, monkeypatch):
    original = certificates.symmetrized_integrand

    def injected(xbar, l_plus, l_minus):
        # an odd beta-degree term in one of the two integrands
        extra = MultiPoly.variable("beta1") if l_plus[0] != l_minus[0] else 0
        return original(xbar, l_plus, l_minus) + extra

    monkeypatch.setattr(certificates, "symmetrized_integrand", injected)
    code = cli.main(["verify", "--case", "n4"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CERTIFICATE
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "certificate structure error: odd beta-degree term survived"
    ]


def test_internal_value_error_in_verify_exits_3(capsys, monkeypatch):
    # verify reads no input, so an inconclusive identity check is an
    # internal fault, not a precondition failure.
    def inconclusive(lhs, rhs, degree_bounds):
        raise DegreeBoundError("true degree in beta1 exceeds declared bound 4")

    monkeypatch.setattr(certificates, "grid_identity_check", inconclusive)
    code = cli.main(["verify", "--case", "n4"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CERTIFICATE
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "certificate structure error: "
        "true degree in beta1 exceeds declared bound 4"
    ]


def test_structure_error_on_minoration_path_exits_3(capsys, monkeypatch):
    # n5 recomputes both differences of each triple before any check
    original = certificates.symmetrized_integrand

    def injected(xbar, l_plus, l_minus):
        # an odd beta-degree term in the general family
        return original(xbar, l_plus, l_minus) + MultiPoly.variable("beta1")

    monkeypatch.setattr(certificates, "symmetrized_integrand", injected)
    x = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
    with pytest.raises(certificates.StructureError, match="odd beta-degree"):
        certificates.symbolic_difference(x)
    code = cli.main(["verify", "--case", "n5"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CERTIFICATE
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "certificate structure error: odd beta-degree term survived"
    ]


def test_structure_check_survives_optimize_flag():
    # An odd beta degree, and a term of total degree N + 3 for N = 2.
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    for diff, message in (("v('beta1')", "odd beta-degree term survived"),
                          ("v('l0') * v('lam1') ** 4", "degree cap exceeded")):
        script = (
            "import sylvester.certificates as c\n"
            "from sylvester.poly import MultiPoly\n"
            "v = MultiPoly.variable\n"
            f"c._check_structure({diff}, 2, 'minoration')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert f"StructureError: {message}" in proc.stderr


def test_closed_stdout_pipe_is_not_an_error():
    # `sylvester verify ... | head -1`: the reader has gone before the write.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sylvester.cli", "verify", "--case", "n4",
             "--output", "pretty"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == cli.EXIT_OK


def test_exact_commands_do_not_load_numpy():
    # numpy is imported only where floats are drawn or tested, so the exact
    # commands start without it.
    family = json.dumps({
        "N": 2, "xbar": ["0", "1/3", "2/3", "1"], "L0": "0", "L1": "0",
        "lambda": ["0", "1/2", "1/2", "0"], "beta": ["0", "0", "0", "0"],
    })
    ellipse = json.dumps({"type": "ellipse", "m": [["2", "1"], ["1/3", "1"]],
                          "t": ["1/2", "-3"]})
    commands = [
        ["verify", "--case", "n4"],
        ["kpoly", "--x", "1/3,2/3", "--lengths", "1/1,1/1"],
        ["comb", "--comb", COMB],
        ["cond", "--family", family],
        ["closed-forms"],
        ["transform", "--op", "sym", "--body", "triangle"],
        ["transform", "--op", "sha", "--body", "triangle"],
        ["transform", "--op", "sha", "--body", "disk"],
        ["transform", "--op", "sha", "--body", ellipse],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "import sylvester.cli as cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        print(argv, cli.main(argv), file=sys.stderr)\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [f"{argv} {cli.EXIT_OK}"
                                        for argv in commands]
    assert proc.stdout == "False\n"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import sylvester.cli"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "sylvester.cli" in proc.stderr
    assert [line for line in proc.stderr.splitlines()
            if "numpy" in line] == []


def test_verify_leaves_stderr_clean_under_dev_mode():
    # Warnings are errors and dev mode reports unclosed files: a leaked pipe
    # end (ResourceWarning) or a fork beside a live thread
    # (DeprecationWarning, Python 3.12+) would show here.
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-X", "dev", "-m", "sylvester.cli",
         "verify", "--case", "all"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == cli.EXIT_OK
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["summary"] == "pass"


@pytest.mark.parametrize("name, argv", [
    ("estimate_disk_n5_w2", ["estimate", "--body", "disk", "--n", "5",
                             "--samples", "50000", "--seed", "1",
                             "--workers", "2"]),
    ("estimate_rb_disk", ["estimate", "--rb", "--n", "5", "--samples", "10",
                          "--seed", "1", "--body", "disk"]),
])
def test_float_commands_golden_in_fresh_interpreter(name, argv):
    # numpy's first import happens inside the command, here; the in-process
    # golden tests run with numpy already loaded.
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run(
        [sys.executable, "-m", "sylvester.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA_DIR / f"{name}.json").read_text()


@pytest.mark.parametrize("body, samples, at", [
    ('{"type":"disk","center":["1e300","0"],"r":"1"}', 50, "1e+300"),
    ('{"type":"polygon","vertices":[["1e12","1e12"],["1000000000001","1e12"],'
     '["1e12","1000000000001"]]}', 2000, "1e+12"),
], ids=["disk-at-1e300", "triangle-at-1e12"])
def test_estimate_rb_names_float_resolution_of_tied_abscissas(body, samples,
                                                                at):
    # Far from the origin float64 abscissas tie; the run stops with one
    # line naming the resolution there, and numpy warns of nothing.
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run(
        [sys.executable, "-m", "sylvester.cli", "estimate", "--rb", "--n",
         "5", "--samples", str(samples), "--seed", "1", "--body", body],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == cli.EXIT_PRECONDITION
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: segment abscissas must be strictly "
                           "increasing; float64 resolves steps of ")
    assert f"at x = {at}" in line


def test_ci_workflow_runs_the_tier1_command():
    yaml = pytest.importorskip("yaml")
    root = SRC_DIR.parent
    workflow = yaml.safe_load(
        (root / ".github" / "workflows" / "tier1.yml").read_text())
    runs = [step.get("run") for job in workflow["jobs"].values()
            for step in job["steps"]]
    command = next(line.split("`")[1] for line in
                   (root / "ROADMAP.md").read_text().splitlines()
                   if line.startswith("**Tier-1 verify:**"))
    assert 'pip install -e ".[test]"' in runs
    assert runs[-1] == command


def test_no_assert_statements_in_package():
    # Checks must still run under python -O, which strips assert statements.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC_DIR / "sylvester").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_workers_env_variable_has_no_effect(monkeypatch, capsys):
    # --workers is the one source of the thread count; the environment is
    # not read, whatever it holds.
    for value in ("3", "junk"):
        monkeypatch.setenv("SYLVESTER_WORKERS", value)
        for command in ("estimate", "theorem1"):
            code, doc = run_json(capsys, [command, "--samples", "10"])
            assert code == cli.EXIT_OK
            assert doc["run_config"]["workers"] == 1


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []

    def counting():
        built.append(1)
        return original()

    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_PARSER", None)
    for argv in (["closed-forms"], ["comb", "--comb", COMB], ["nonsense"],
                 ["estimate", "--samples", "10"], ["closed-forms"]):
        cli.main(argv)
    capsys.readouterr()
    assert len(built) == 1


def test_reused_parser_carries_no_state(monkeypatch, capsys):
    argv = ["estimate", "--body", "triangle", "--n", "5",
            "--samples", "20", "--seed", "4"]
    for earlier in (["comb", "--comb", COMB],
                    ["estimate", "--rb", "--workers", "2", "--seed", "9",
                     "--output", "pretty", "--samples", "5"]):
        assert cli.main(earlier) == cli.EXIT_OK
    capsys.readouterr()
    code, reused = run(capsys, argv)
    assert code == cli.EXIT_OK
    doc = json.loads(reused)
    assert doc["run_config"] == {
        "body": "triangle", "command": "estimate", "n": 5, "output": "json",
        "rb": False, "samples": 20, "seed": 4, "workers": 1,
    }
    monkeypatch.setattr(cli, "_PARSER", None)
    assert run(capsys, argv) == (cli.EXIT_OK, reused)


def test_usage_error_then_valid_call(capsys):
    for bad in (["estimate", "--n", "2"], ["estimate", "--bogus"],
                ["nonsense"], ["verify", "--case", "n6"]):
        assert cli.main(bad) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert cli.main(["estimate", "--samples", "10"]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["run_config"]["n"] == 4


def test_named_bodies_are_built_once(capsys):
    assert cli._load_body("square") is cli._load_body("square")
    assert cli._load_body("disk") is cli._load_body("disk")
    inline = '{"type": "disk", "center": ["0", "0"], "r": "1"}'
    first, second = cli._load_body(inline), cli._load_body(inline)
    assert first == second and first is not second
    # Symmetrization and shaking build new bodies: the shared square stays
    # equal to a freshly built one.
    for op in ("sym", "sha"):
        assert cli.main(["transform", "--op", op, "--body", "square"]) == 0
    capsys.readouterr()
    fresh = bodies.body_from_json(cli._NAMED_BODIES["square"])
    assert cli._load_body("square") == fresh


def test_theorem1_small(capsys):
    code, doc = run_json(
        capsys, ["theorem1", "--samples", "4000", "--seed", "2"]
    )
    assert code == 0
    validate(doc, "theorem1.json")
    assert len(doc["rows"]) == 4


def test_theorem1_single_sample_is_valid_json(capsys):
    # One sample gives zero or all hits, so a sample error of 0 in each row.
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    code, out = run(capsys, ["theorem1", "--samples", "1", "--seed", "0"])
    assert code == 0
    doc = json.loads(out, parse_constant=reject)
    validate(doc, "theorem1.json")
    assert all(row["std_error"] == 0 for row in doc["rows"])
    assert all(math.isfinite(row["z"]) for row in doc["rows"])


def test_estimate_rb_on_a_thin_body_is_valid_json(capsys):
    # Heights of 2^-400: a product of the n - 2 interior ones underflows
    # to 0 in float64 unless the kernel scales them first.
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    body = json.dumps({"type": "polygon", "vertices": [
        ["0", "0"], ["1", "0"], ["0", f"1/{2**400}"]]})
    code, out = run(capsys, ["estimate", "--rb", "--body", body, "--n", "5",
                             "--samples", "1000", "--seed", "1"])
    assert code == 0
    doc = json.loads(out, parse_constant=reject)
    validate(doc, "estimate.json")
    assert 0 < doc["estimate"] < 1


def test_estimate_rb_single_sample_is_uncertain(capsys):
    code, doc = run_json(capsys, ["estimate", "--rb", "--body", "square",
                                  "--samples", "1", "--seed", "3"])
    assert code == 0
    validate(doc, "estimate.json")
    assert doc["std_error"] == 0.5 and doc["ci95"] == [0.0, 1.0]


FAMILY = json.dumps({
    "xbar": ["0", "1/3", "2/3", "1"], "L0": "1/2", "L1": "1/2",
    "lambda": ["0", "1/4", "1/4", "0"], "beta": ["0", "1/8", "1/8", "0"],
})


def test_run_config_echoes_parsed_options(capsys):
    # Subcommands no golden file pins: command, output and every option the
    # parser set, an omitted --lengths left out.
    cases = [
        (["comb", "--comb", COMB], {"comb": COMB}),
        (["cond", "--family", FAMILY], {"family": FAMILY}),
        (["kpoly", "--x", "1/3,2/3"], {"x": "1/3,2/3"}),
        (["kpoly", "--x", "1/3,2/3", "--lengths", "1,1/2"],
         {"x": "1/3,2/3", "lengths": "1,1/2"}),
        (["transform", "--op", "sym", "--body", "triangle"],
         {"op": "sym", "body": "triangle"}),
        (["closed-forms"], {}),
    ]
    for argv, options in cases:
        for output in ("json", "csv"):
            code, out = run(capsys, argv + ["--output", output])
            assert code == 0
            first = out.splitlines()[0]
            config = (json.loads(out)["run_config"] if output == "json"
                      else json.loads(first.removeprefix("# run_config: ")))
            assert config == {"command": argv[0], "output": output,
                              **options}


def test_readme_example_runs():
    # The README's library example, run as written: a removed or renamed
    # public name fails here before it breaks the documentation.
    readme = (SRC_DIR.parent / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    result = subprocess.run([sys.executable, "-c", block], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    exact, estimate = result.stdout.splitlines()
    assert exact == "1/2" and abs(float(estimate) - 2 / 3) < 0.005
