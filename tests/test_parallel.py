import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from sylvester import certificates, cli, parallel
from sylvester.parallel import fork_map, usable_cpus
from sylvester.poly import DegreeBoundError, MissingVariableError, MultiPoly

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
DATA_DIR = Path(__file__).resolve().parent / "data"


@pytest.fixture
def cpus(monkeypatch):
    """Set the count `usable_cpus` reports."""
    def force(count):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: count)
    return force


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def logged(path):
    """An item function that appends its item to ``path`` in whichever
    process runs it, and returns (item squared, that process's pid)."""
    def fn(item):
        with open(path, "a") as log:
            log.write(f"{item}\n")
        return item * item, os.getpid()
    return fn


@pytest.mark.parametrize("count", [1, 2, 3])
def test_results_in_input_order_and_each_item_once(cpus, tmp_path, count):
    cpus(count)
    log = tmp_path / "items"
    results = fork_map(logged(log), range(10))
    assert [square for square, _ in results] == [i * i for i in range(10)]
    assert sorted(map(int, log.read_text().split())) == list(range(10))
    pids = [pid for _, pid in results]
    # The caller takes every count-th item, from the first, and each child
    # one other stride.
    assert pids[::count] == [os.getpid()] * len(pids[::count])
    assert len(set(pids)) == count
    assert all(pids[i] == pids[i % count] for i in range(10))
    assert_no_children()


def test_one_item_runs_in_the_caller(cpus):
    cpus(3)
    assert fork_map(os.getpid, ()) == []
    assert fork_map(lambda _: os.getpid(), [0]) == [os.getpid()]


def test_usable_cpus_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert usable_cpus() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


@pytest.mark.skipif(shutil.which("taskset") is None, reason="needs taskset")
def test_taskset_pins_to_one_cpu():
    proc = subprocess.run(
        ["taskset", "-c", "0", sys.executable, "-c",
         "from sylvester.parallel import usable_cpus; print(usable_cpus())"],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


def test_front_end_start_up_loads_no_helper_module():
    # Every command imports the front end; only verify and the plain
    # estimator need the helper, and it imports pickle and signal itself.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sylvester.cli\n"
         "print([m for m in ('pickle', 'signal', 'sylvester.parallel')"
         " if m in sys.modules])"],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def failing(item):
    if item == 4:
        raise ValueError("item 4 failed")
    if item == 5:
        # args that do not rebuild the instance: it never crosses a pipe
        raise MissingVariableError(["b", "a"])
    if item == 7:
        raise KeyError(7)
    return item


@pytest.mark.parametrize("items, error, message", [
    (range(10), ValueError, "item 4 failed"),
    ([5, 7, 4], MissingVariableError, "unbound symbols: a, b"),
    ([0, 1, 2, 7, 4], KeyError, "7"),
])
def test_child_exception_matches_serial_run(cpus, items, error, message):
    raised = []
    for count in (1, 3):
        cpus(count)
        with pytest.raises(error) as info:
            fork_map(failing, items)
        raised.append((type(info.value), str(info.value)))
        assert_no_children()
    assert raised == [(error, message)] * 2


def test_caller_interrupt_stops_and_reaps_children(cpus):
    cpus(3)

    def fn(item):
        if item == 3 and os.getpid() == caller:
            raise KeyboardInterrupt
        return item

    caller = os.getpid()
    with pytest.raises(KeyboardInterrupt):
        fork_map(fn, range(6))
    assert_no_children()


def test_serial_while_another_thread_is_alive(cpus):
    cpus(3)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        pids = fork_map(lambda _: os.getpid(), range(6))
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert pids == [os.getpid()] * 6


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_serial_when_fork_or_pipe_fails(cpus, monkeypatch, call):
    cpus(3)

    def refuse(*args):
        raise OSError("resource temporarily unavailable")

    monkeypatch.setattr(os, call, refuse)
    assert fork_map(lambda i: (i, os.getpid()), range(6)) == [
        (i, os.getpid()) for i in range(6)]
    assert_no_children()


@pytest.mark.parametrize("output", ["json", "pretty", "csv"])
def test_verify_output_does_not_depend_on_cpu_count(cpus, capsys, output):
    outs = []
    for count in (1, 3):
        cpus(count)
        code = cli.main(["verify", "--case", "all", "--output", output])
        assert code == cli.EXIT_OK
        outs.append(capsys.readouterr())
        assert_no_children()
    assert outs[0] == outs[1]
    if output == "json":
        golden = json.loads((DATA_DIR / "verify_all.json").read_text())
        assert outs[0].out.strip() == json.dumps(golden, sort_keys=True)


def odd_beta_term(original):
    def injected(xbar, l_plus, l_minus):
        return original(xbar, l_plus, l_minus) + MultiPoly.variable("beta1")
    return injected


def inconclusive(lhs, rhs, degree_bounds):
    raise DegreeBoundError("true degree in beta1 exceeds declared bound 4")


@pytest.mark.parametrize("name, patch, case", [
    ("symmetrized_integrand", odd_beta_term, "n4"),
    ("grid_identity_check", lambda original: inconclusive, "n4"),
    ("symmetrized_integrand", odd_beta_term, "n5"),
])
def test_verify_structure_errors_match_serial_run(cpus, capsys, monkeypatch,
                                                  name, patch, case):
    monkeypatch.setattr(certificates, name,
                        patch(getattr(certificates, name)))
    runs = []
    for count in (1, 3):
        cpus(count)
        runs.append((cli.main(["verify", "--case", case]),
                     capsys.readouterr()))
        assert_no_children()
    assert runs[0] == runs[1]
    code, captured = runs[0]
    assert code == cli.EXIT_CERTIFICATE
    assert captured.out == ""
    assert captured.err.startswith("certificate structure error: ")


def test_failure_detail_is_the_first_failing_point(cpus, monkeypatch):
    # A coefficient wrong at every triple from the third on: the detail
    # names the third triple's mismatch whatever process checked it.
    original = certificates.cone_coefficients_d2
    triples = certificates.default_x_triples()

    def perturbed(x):
        table = original(x)
        if tuple(x) in triples[2:]:
            key = (1, 1, 1) if tuple(x) == triples[2] else (2, 2, 2)
            table[key] += 1
        return table

    monkeypatch.setattr(certificates, "cone_coefficients_d2", perturbed)
    reports = []
    for count in (1, 3):
        cpus(count)
        reports.append(certificates.verify_n5(triples[:7]).to_json())
    assert reports[0] == reports[1]
    [check] = [c for c in reports[0]["identity_checks"]
               if c["name"] == "n5 cone: constant part (18 coefficients)"]
    assert check["detail"] == "mismatched coefficients: (1, 1, 1)"
