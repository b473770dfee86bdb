"""The benchmark harness: ``python -m repro.bench [--smoke] --json ...``.

Only the byte-stability test runs a simulation (the ~1 s ``subcomm``
smoke shape); the others read the committed artifact, inspect the
registry or drive the gate with a stub artifact.
"""

import inspect
import json
import os

from repro.bench import Table
from repro.bench import __main__ as bench_main
from repro.bench.calibration import FIG6_ANCHORS, SEC51_PAPER, TABLE1_PAPER

ARTIFACT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_paper.json",
)


def test_every_paper_number_has_a_record():
    with open(ARTIFACT, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["violations"] == []
    paper_of = {
        f"{r['artifact']}/{r['row']}": r["paper"] for r in doc["records"]
    }
    expected = {}
    for row in TABLE1_PAPER:
        expected[f"table1/{row.label} DCGN (us)"] = row.dcgn_us
        if row.mpi_us is not None:
            expected[f"table1/{row.label} MPI (us)"] = row.mpi_us
            expected[f"table1/{row.label} DCGN/MPI"] = row.ratio
    for key, value in FIG6_ANCHORS.items():
        expected[f"fig6/{key}"] = value
    for artifact, metrics in SEC51_PAPER.items():
        for key, value in metrics.items():
            # N-body efficiencies are recorded for both models.
            rows = (
                [f"{key} GAS", f"{key} DCGN"] if key.startswith("eff_")
                else [key]
            )
            for row in rows:
                expected[f"{artifact}/{row}"] = value
    missing = sorted(set(expected) - set(paper_of))
    assert not missing, missing
    assert {rid: paper_of[rid] for rid in expected} == expected


def test_out_of_band_measurement_fails_the_gate(tmp_path, monkeypatch):
    def stub():
        t = Table("stub", ["x"])
        t.record("inside", 2.0, band=(1.0, 3.0))
        t.record("at the bound", 3.0, band=(1.0, 3.0))
        t.record("ungated", 1e9)
        return t

    monkeypatch.setattr(bench_main, "ARTIFACTS",
                        {"stub": ("paper", "Stub", stub)})
    monkeypatch.setattr(bench_main, "save_table", lambda key, table: key)
    out = tmp_path / "paper.json"
    assert bench_main.main(["--json", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert [r["in_band"] for r in doc["records"]] == [True, False, None]
    assert len(doc["violations"]) == 1
    assert doc["violations"][0].startswith("stub/at the bound:")


def test_every_artifact_has_a_smoke_shape():
    # CI runs every gated bench as ``--smoke``: a builder without the
    # parameter would run its full sweep there, or fail.  The paper's
    # artifacts have one shape, the one CI diffs.
    for key, (bench, _label, ref) in bench_main.ARTIFACTS.items():
        params = inspect.signature(bench_main.builder(ref)).parameters
        assert bench == "paper" or "smoke" in params, key
    assert set(bench_main.select(["all"])) == set(bench_main.ARTIFACTS)


def test_smoke_violation_fails_the_gate(tmp_path, monkeypatch):
    shapes = []

    def stub(smoke=False):
        shapes.append(smoke)
        t = Table("stub", ["x"])
        t.record("simulated", 1.0, band=(None, 2.0))
        t.record("host ratio", 2.0, band=(None, 1.5), host=True)
        return t

    monkeypatch.setattr(bench_main, "ARTIFACTS",
                        {"stub": ("stub", "Stub", stub)})
    monkeypatch.setattr(bench_main, "save_table", lambda key, table: key)
    out = tmp_path / "stub.json"
    assert bench_main.main(["--smoke", "--json", str(out), "stub"]) == 1
    doc = json.loads(out.read_text())
    assert shapes == [True]
    assert (doc["benchmark"], doc["mode"]) == ("stub", "smoke")
    assert [r["in_band"] for r in doc["records"]] == [True]
    assert [r["in_band"] for r in doc["host"]] == [False]
    assert [v.split(":")[0] for v in doc["violations"]] == ["stub/host ratio"]


def test_smoke_records_are_byte_stable(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_main, "save_table", lambda key, table: key)
    runs = []
    for i in range(2):
        out = tmp_path / f"subcomm{i}.json"
        assert bench_main.main(["--smoke", "--json", str(out),
                                "subcomm"]) == 0
        runs.append(json.dumps(json.loads(out.read_text())["records"]))
    assert runs[0] == runs[1]
