"""Tests of the benchmark itself: the golden comparison, the determinism of
the traced counts, and the tracer's transparency.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import copy
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

SMALL = {
    "spectrum": ["spectrum", "--k", "-1", "--h-max", "6", "--jobs", "1"],
    "homology": ["homology", "--k", "2", "--h-max", "7", "--jobs", "1"],
    "verify": ["verify", "--id", "gen_L1", "--id", "singular_mults_Lminus1",
               "--id", "weight_dim_products", "--order", "16", "--jobs", "1"],
}


# -- golden comparison ------------------------------------------------------

@pytest.fixture(scope="module")
def golden():
    return run.load_golden("spectrum-km1")


def test_golden_accepts_itself(golden):
    assert run.golden_diff(golden, copy.deepcopy(golden)) is None


def test_changed_golden_value_fails(golden):
    changed = copy.deepcopy(golden)
    changed["results"][3]["cells"][0]["mult"] += 1
    assert "mult" in run.golden_diff(golden, changed)
    changed = copy.deepcopy(golden)
    changed["results"][0]["dim"] = str(changed["results"][0]["dim"])
    assert run.golden_diff(golden, changed) is not None


def test_added_key_passes(golden):
    extended = copy.deepcopy(golden)
    for res in extended["results"]:
        for cell in res["cells"]:
            cell["method"] = "modular"
        res["exact_slices"] = 0
    extended["trace"] = {"spans": []}
    assert run.golden_diff(golden, extended) is None


def test_missing_key_or_entry_fails(golden):
    dropped = copy.deepcopy(golden)
    del dropped["results"][2]["refinement"]
    assert "missing" in run.golden_diff(golden, dropped)
    shorter = copy.deepcopy(golden)
    shorter["results"].pop()
    assert run.golden_diff(golden, shorter) is not None


def test_check_requires_jobs_1_bytes(golden):
    out = (json.dumps(golden, sort_keys=True, indent=2) + "\n").encode()
    sample = run.Sample(1.0, 1.0, 1.0, 0, out, b"", False)
    assert run.check(sample, golden, out) is None
    assert "--jobs 1" in run.check(sample, golden, out + b" ")
    assert run.check(run.Sample(1.0, 1.0, 1.0, 1, out, b"", False), golden, None)


# -- traced runs --------------------------------------------------------------

def traced(args: list[str]) -> tuple[run.Sample, dict]:
    argv = [sys.executable, str(HERE / "tracer.py"), *args, "--format", "json"]
    sample = run.run_child(argv, 120)
    assert sample.code == 0, sample.err[-500:]
    return sample, run.parse_trace(sample.err)


@pytest.mark.parametrize("command", sorted(SMALL))
def test_two_traced_runs_give_identical_counts(command):
    first, report1 = traced(SMALL[command])
    second, report2 = traced(SMALL[command])
    counts1 = {n: v for n, v in run.layer_metrics(report1, len(first.out)).items()
               if v[1] != "s"}
    counts2 = {n: v for n, v in run.layer_metrics(report2, len(second.out)).items()
               if v[1] != "s"}
    assert counts1 == counts2
    assert any(value for value, _ in counts1.values())
    untraced = run.run_child(run.cli_argv(SMALL[command]), 120)
    assert untraced.code == 0
    assert first.out == untraced.out == second.out


def test_layer_metrics_cover_benchmark_json():
    _, report = traced(SMALL["spectrum"])
    names = set(run.layer_metrics(report, 1)) | {
        "trace.wall_s", "trace.overhead_s", "trace.unattributed_s"}
    assert set(run.declared_metrics(trace=True)) <= names
    assert {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"} == set(
        run.declared_metrics(trace=False))


def _bindings() -> dict:
    """Every attribute of the afflap modules, their classes and the identity
    registry, by identity."""
    out = {}
    for name in ("afflap", *(f"afflap.{m}" for m in tracer.MODULES)):
        mod = importlib.import_module(name)
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    registry = importlib.import_module("afflap.identities")._REGISTRY
    for key, value in registry.items():
        out[("registry", key)] = value
    return out


def test_traced_run_matches_untraced_and_restores_attributes():
    from afflap import chains, cli, linalg

    before = _bindings()
    outputs = []
    for trace in (False, True):
        buf = io.StringIO()
        tr = tracer.Tracer()
        with contextlib.redirect_stdout(buf), (tr if trace else contextlib.nullcontext()):
            if trace:
                assert cli.main is not before[("afflap.cli", "main")]
                assert linalg.IntMatrix.__mul__ is not before[
                    ("afflap.linalg", "IntMatrix", "__mul__")]
            assert cli.main(SMALL["spectrum"] + ["--format", "json"]) == 0
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]
    assert tr.report()["spans"]["cli.main"]["calls"] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert chains.matrix_of is before[("afflap.chains", "matrix_of")]
