"""Tests for the model-checking harness (repro.check)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check import (
    OUTCOMES,
    SCENARIOS,
    InvariantViolation,
    ScenarioSpec,
    get_scenario,
    replay,
    run_one,
    scenario_names,
    sweep,
)
from repro.check.__main__ import main as check_main
from repro.check.buggy import BuggyGrantQueue
from repro.sim import ExploringSimulator

REPO = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def _spec(fn, name="t", expect=frozenset({"ok"}), must_find=None):
    return ScenarioSpec(name, fn, doc="test scenario", expect=expect,
                        must_find=must_find)


def test_classifies_ok():
    def scenario(sim):
        def p():
            yield sim.timeout(1.0)
        sim.process(p())
        sim.run()

    r = run_one(_spec(scenario), seed=0)
    assert r.outcome == "ok"
    assert r.final_time == pytest.approx(1.0)
    assert r.steps > 0


def test_classifies_deadlock():
    def scenario(sim):
        def p():
            yield sim.event(name="never")
        sim.process(p(), name="stuck")
        sim.run()

    r = run_one(_spec(scenario), seed=0)
    assert r.outcome == "deadlock"
    assert "stuck" in r.detail and "waits-for" in r.detail


def test_classifies_livelock():
    def scenario(sim):
        def p():
            while True:
                yield sim.timeout(0.0)
        sim.process(p(), name="spin")
        sim.run()

    r = run_one(_spec(scenario), seed=0, livelock_window=50)
    assert r.outcome == "livelock"
    assert "spin" in r.detail


def test_classifies_crash():
    def scenario(sim):
        raise RuntimeError("boom")

    r = run_one(_spec(scenario), seed=0)
    assert r.outcome == "crash"
    assert "RuntimeError: boom" in r.detail


def test_classifies_invariant_violation():
    def scenario(sim):
        raise InvariantViolation("state went wrong")

    r = run_one(_spec(scenario), seed=0)
    assert r.outcome == "invariant-violation"
    assert "state went wrong" in r.detail


def test_outcomes_cover_all_buckets():
    assert set(OUTCOMES) == {
        "ok", "deadlock", "livelock", "crash", "invariant-violation"
    }


# ---------------------------------------------------------------------------
# The checker has teeth: the buggy fixture is caught quickly
# ---------------------------------------------------------------------------

def test_buggy_grant_queue_deadlocks_within_budget():
    spec = get_scenario("buggy-grant-queue")
    found = None
    for seed in range(50):
        if run_one(spec, seed).outcome == "deadlock":
            found = seed
            break
    assert found is not None, (
        "lock-order inversion not caught in 50 seeds — the explorer "
        "lost its teeth"
    )


def test_buggy_grant_queue_deadlock_names_both_mutexes():
    """The classification detail must carry an actionable waits-for
    chain pointing at the inverted locks."""
    spec = get_scenario("buggy-grant-queue")
    r = next(
        res for res in (run_one(spec, s) for s in range(50))
        if res.outcome == "deadlock"
    )
    assert "grantq.queue_lock" in r.detail
    assert "grantq.state_lock" in r.detail
    assert "waits-for" in r.detail


# ---------------------------------------------------------------------------
# Replay fidelity
# ---------------------------------------------------------------------------

def test_replay_reproduces_identical_schedule():
    a = replay("lock-writers", seed=11)
    b = replay("lock-writers", seed=11)
    assert a.outcome == b.outcome == "ok"
    assert a.trace is not None and a.trace == b.trace
    assert a.final_time == b.final_time
    assert a.steps == b.steps


def test_replay_of_buggy_seed_reproduces_deadlock():
    spec = get_scenario("buggy-grant-queue")
    seed = next(
        s for s in range(50) if run_one(spec, s).outcome == "deadlock"
    )
    r1 = replay("buggy-grant-queue", seed)
    r2 = replay("buggy-grant-queue", seed)
    assert r1.outcome == r2.outcome == "deadlock"
    assert r1.trace == r2.trace
    assert r1.detail == r2.detail


# ---------------------------------------------------------------------------
# Sweep aggregation
# ---------------------------------------------------------------------------

def test_sweep_small_all_pass():
    report = sweep(5, names=["lock-writers", "buggy-grant-queue",
                             "spin-livelock"])
    assert report.ok, report.table()
    assert report.scenarios["lock-writers"].counts["ok"] == 5
    assert report.scenarios["buggy-grant-queue"].found_seed is not None
    assert report.scenarios["spin-livelock"].counts["livelock"] == 5


def test_sweep_fails_on_unexpected_outcome():
    def scenario(sim):
        def p():
            yield sim.event(name="never")
        sim.process(p(), name="stuck")
        sim.run()

    from repro.check import runner as runner_mod
    spec = _spec(scenario, name="always-deadlocks")
    rep = runner_mod.ScenarioReport(
        name=spec.name, doc=spec.doc, expect=sorted(spec.expect),
        must_find=spec.must_find,
    )
    rep.record(run_one(spec, 0), spec.expect)
    assert not rep.passed
    assert rep.first_unexpected.outcome == "deadlock"


def test_sweep_fails_when_must_find_missing():
    def scenario(sim):
        def p():
            yield sim.timeout(1.0)
        sim.process(p())
        sim.run()

    from repro.check import runner as runner_mod
    spec = _spec(
        scenario, name="never-deadlocks",
        expect=frozenset({"ok", "deadlock"}), must_find="deadlock",
    )
    rep = runner_mod.ScenarioReport(
        name=spec.name, doc=spec.doc, expect=sorted(spec.expect),
        must_find=spec.must_find,
    )
    for seed in range(3):
        rep.record(run_one(spec, seed), spec.expect)
    assert not rep.passed  # healthy outcomes, but the bug was never found


def test_sweep_report_json_roundtrip(tmp_path):
    report = sweep(2, names=["lock-writers"])
    out = tmp_path / "report.json"
    report.to_json(str(out))
    data = json.loads(out.read_text())
    assert data["ok"] is True
    assert data["n_seeds"] == 2
    assert data["scenarios"]["lock-writers"]["counts"]["ok"] == 2


def test_scenario_registry_wellformed():
    names = scenario_names()
    assert len(names) >= 8
    for name in names:
        spec = SCENARIOS[name]
        assert spec.expect <= set(OUTCOMES)
        if spec.must_find is not None:
            assert spec.must_find in spec.expect
    with pytest.raises(KeyError, match="unknown scenario"):
        get_scenario("no-such-scenario")


# ---------------------------------------------------------------------------
# The buggy fixture itself
# ---------------------------------------------------------------------------

def test_buggy_fixture_accounting_when_it_completes():
    sim = ExploringSimulator(seed=2)
    q = BuggyGrantQueue(sim)

    def requester():
        yield from q.enqueue()

    def granter():
        yield from q.grant()

    sim.process(requester())
    sim.process(granter())
    try:
        sim.run()
    except Exception:
        return  # deadlocked on this seed: equally fine for this test
    assert q.pending in (0, 1)
    assert q.granted in (0, 1)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_list():
    assert check_main(["--list"]) == 0


def test_cli_sweep_and_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = check_main([
        "--sweep", "3", "--scenario", "lock-writers",
        "--scenario", "buggy-grant-queue", "--json", str(out), "--quiet",
    ])
    captured = capsys.readouterr()
    assert rc == 0, captured.out
    assert "lock-writers" in captured.out
    assert json.loads(out.read_text())["ok"] is True


def test_cli_replay(capsys):
    rc = check_main([
        "--scenario", "lock-writers", "--replay", "5", "--trace-limit", "10",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "schedule trace" in captured.out


def test_cli_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        check_main(["--scenario", "nope"])


def test_cli_replay_needs_single_scenario():
    with pytest.raises(SystemExit):
        check_main(["--replay", "3"])


# ---------------------------------------------------------------------------
# Determinism lint (tools/lint_determinism.py)
# ---------------------------------------------------------------------------

def _run_lint(*args):
    return subprocess.run(
        [sys.executable, str(REPO / "tools" / "lint_determinism.py"), *args],
        capture_output=True, text=True, cwd=str(REPO),
    )


def test_lint_clean_on_runtime_tree():
    proc = _run_lint()
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_lint_flags_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import random\n"
        "import numpy as np\n"
        "def f(xs):\n"
        "    random.shuffle(xs)\n"
        "    rng = np.random.default_rng()\n"
        "    for x in set(xs):\n"
        "        pass\n"
        "    ys = sorted(xs, key=id)\n"
        "    ok = sorted(xs, key=id)  # det: ok - test suppression\n"
        "    buf = np.empty(len(xs))\n"
        "    return rng, ys, ok, buf\n"
    )
    proc = _run_lint(str(bad))
    assert proc.returncode == 1
    assert proc.stdout.count("unseeded-rng") == 2
    assert proc.stdout.count("set-iteration") == 1
    assert proc.stdout.count("id-ordering") == 1
    assert proc.stdout.count("uninit-alloc") == 1


def test_lint_flags_hand_made_byte_views(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "def f(arr, out):\n"
        "    raw = arr.view(np.uint8)\n"
        "    ok = out.view(np.uint8)  # det: ok - test suppression\n"
        "    same = arr.view(np.float64)\n"
        "    return raw, ok, same\n"
    )
    proc = _run_lint(str(bad))
    assert proc.returncode == 1
    assert proc.stdout.count("byte-view") == 1
    assert ":3:" in proc.stdout
    home = _run_lint("src/repro/hw/memory.py")
    assert home.returncode == 0, home.stdout + home.stderr


def test_lint_flags_raw_p2p_outside_its_homes(tmp_path):
    """A collective driving the wire itself bypasses the schedule IR:
    a ``_send_impl``/``_recv_impl`` call planted in collectives.py is
    flagged, the same call in communicator.py is not."""
    planted = (
        (REPO / "src/repro/mpi/collectives.py").read_text()
        + "\n\ndef _linear(ctx, buf, root, tag):\n"
        "    yield from ctx.comm._send_impl(ctx.rank, root, buf, tag)\n"
        "    ok = ctx.comm._recv_impl(ctx.rank, root, buf, tag)  "
        "# det: ok - test suppression\n"
        "    return ok\n"
    )
    for home in ("collectives.py", "communicator.py"):
        path = tmp_path / "src/repro/mpi" / home
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(planted)
    proc = _run_lint(str(tmp_path / "src/repro/mpi/collectives.py"))
    assert proc.returncode == 1
    assert proc.stdout.count("raw-p2p") == 1
    assert "_send_impl() outside" in proc.stdout
    home = _run_lint(str(tmp_path / "src/repro/mpi/communicator.py"))
    assert home.returncode == 0, home.stdout + home.stderr
