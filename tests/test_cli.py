import json
import os
from pathlib import Path

import numpy as np
import pytest

from afflap import chains, cli
from afflap.cli import main
from afflap.sl2 import ClaimFalsified


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors(capsys):
    assert run(capsys, "spectrum", "--k", "-2", "--h-max", "1")[0] == 2
    assert run(capsys, "spectrum", "--k", "3", "--h-max", "1")[0] == 2
    assert run(capsys, "homology", "--k", "5", "--h-max", "1")[0] == 2
    assert run(capsys, "singular", "--k", "0", "--h-max", "1")[0] == 2
    assert run(capsys, "verify", "--id", "nope")[0] == 2
    assert run(capsys, "spectrum", "--k", "2", "--h-max", "-3")[0] == 2
    assert run(capsys, "homology", "--k", "2", "--h-max", "1", "--jobs", "0")[0] == 2
    # argparse-level failures also exit 2
    assert main(["spectrum"]) == 2
    assert main(["unknown-command"]) == 2


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--k", "2", "--h-max", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["k"] == 2
    assert "jobs" not in payload["config"]
    by_h = {r["h"]: r for r in payload["results"]}
    assert by_h[2]["blocks"] == [{"lambda": 1, "mult": 6}]
    assert by_h[0]["blocks"] == [{"lambda": 0, "mult": 1}]
    assert len(payload["results"]) == 3
    assert payload["tool_version"]


def test_spectrum_k0_harmonics(capsys):
    code, out, _ = run(capsys, "spectrum", "--k", "0", "--h-max", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    blocks = payload["results"][0]["blocks"]
    assert {"lambda": 0, "mult": 2} in blocks  # the unit and the zero-weight line


def test_homology_text_and_exit(capsys):
    code, out, _ = run(capsys, "homology", "--k", "2", "--h-max", "6")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("q=")]
    dims_by_q = {}
    for row in rows:
        q = int(row.split()[0].split("=")[1])
        dims_by_q[q] = dims_by_q.get(q, 0) + 1
    assert dims_by_q == {0: 1, 1: 3, 2: 5, 3: 7}


def test_a_modular_rank_that_proves_a_singular_component_exits_1(capsys, monkeypatch):
    """Mutant: ``_ranks_mod_p`` reports full rank for every singular
    component of seven rows.  Up to degree 8 of L(2) there is one, the w = 0
    slice of the (q, h) = (3, 6) level, so its kernel is never computed and
    the closed-form comparison names the lost class."""
    from afflap import linalg

    real = linalg._ranks_mod_p
    raised = []

    def over_reported(stack, p):
        ranks = real(stack, p)
        if stack.shape[1:] == (7, 7):
            raised.extend(np.flatnonzero(ranks < 7).tolist())
            ranks[:] = 7
        return ranks

    monkeypatch.setattr(linalg, "_ranks_mod_p", over_reported)
    code, out, _ = run(capsys, "homology", "--k", "2", "--h-max", "8", "--jobs", "1")
    assert len(raised) == 1
    assert code == 1
    assert out.endswith("DEVIATIONS from the closed forms:\n"
                        "  (q=3, w=0, h=6): computed 0, expected 1\n")


def test_homology_includes_chains(capsys):
    code, out, _ = run(capsys, "homology", "--k", "-1", "--h-max", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    entries = payload["results"][0]["entries"]
    triple = [e for e in entries if e["q"] == 3]
    assert triple and triple[0]["w"] == 0 and triple[0]["h"] == 0
    assert triple[0]["chains"] == [[{"indices": [-1, 0, 1], "coeff": "1"}]]


def test_verify_cli(capsys):
    code, out, _ = run(capsys, "verify", "--id", "euler_pentagonal", "--order", "30")
    assert code == 0
    assert "pass" in out
    code, out, _ = run(capsys, "verify", "--id", "jacobi_cube", "--id", "gauss_jacobi",
                       "--order", "15", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "identity,order,passed,mismatch"
    assert len(out.splitlines()) == 3


def test_homology_csv(capsys):
    code, out, _ = run(capsys, "homology", "--k", "-1", "--h-max", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,q,w,h,dim"
    assert "-1,3,0,0,1" in lines


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--k", "2", "--h-max", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,q,w,h,lambda,dim"
    # the full isotypic piece of dominant weight 1 at h = 1 is harmonic
    assert "2,1,1,1,0,3" in lines


def test_singular_cli(capsys):
    code, out, _ = run(capsys, "singular", "--k", "2", "--h-max", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rows = [row for res in payload["results"] for row in res["rows"]]
    top = [r for r in rows if r["h"] == 3 and r["w"] == 2]
    assert top and top[0]["lambda"] == 0 and top[0]["dim"] == 1
    # dim S^{[1,0]} = 1: the singular line through e_4
    line = [r for r in rows if r["h"] == 1 and r["w"] == 1]
    assert line and line[0]["lambda"] == 0 and line[0]["dim"] == 1


def test_out_file_and_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "spectrum", "--k", "2", "--h-max", "4", "--format", "json",
               "--jobs", "1", "--out", str(f1))[0] == 0
    assert run(capsys, "spectrum", "--k", "2", "--h-max", "4", "--format", "json",
               "--jobs", "2", "--out", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_homology_is_byte_identical_across_jobs(capsys):
    argv = ["homology", "--k", "2", "--h-max", "8", "--format", "json"]
    code1, out1, _ = run(capsys, *argv, "--jobs", "1")
    code2, out2, _ = run(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_is_byte_identical_across_jobs(capsys):
    """Each worker builds its own triple products; the report must not
    depend on how the identities are spread over the workers."""
    argv = ["verify", "--all", "--order", "40", "--format", "json"]
    code1, out1, err1 = run(capsys, *argv, "--jobs", "1")
    code2, out2, err2 = run(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert err1 == err2 == ""
    assert out1.encode() == out2.encode()


def _die(args):
    os._exit(3)


def test_dead_worker_exits_2(capsys, monkeypatch):
    """A worker that dies breaks the pool: one error line and exit code 2."""
    monkeypatch.setattr(cli, "_homology_task", _die)
    code, out, err = run(capsys, "homology", "--k", "2", "--h-max", "1", "--jobs", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: a worker process died: ")
    assert err.count("\n") == 1


def test_out_failure_keeps_the_earlier_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.csv"
    target.write_bytes(b"earlier report\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", fail)
    code, out, err = run(capsys, "verify", "--id", "jacobi_cube", "--order", "5",
                         "--format", "csv", "--out", str(target))
    assert code == 2 and out == ""
    assert err == f"error: cannot write {target}: disk full\n"
    assert target.read_bytes() == b"earlier report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
    monkeypatch.undo()
    assert run(capsys, "verify", "--id", "jacobi_cube", "--order", "5",
               "--format", "csv", "--out", str(target))[0] == 0
    assert target.read_text().startswith("identity,order,passed,mismatch\n")
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_interrupted_out_write_removes_its_temporary_file(tmp_path, capsys, monkeypatch):
    """An interrupt while the report is renamed into place propagates as it
    is; the temporary file goes and the earlier report stays byte for byte."""
    target = tmp_path / "report.csv"
    target.write_bytes(b"earlier report\n")

    def interrupt(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.os, "replace", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["verify", "--id", "jacobi_cube", "--order", "5", "--format", "csv",
                  "--out", str(target)])
    assert target.read_bytes() == b"earlier report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_falsified_claim_exits_1(capsys, monkeypatch):
    def refute(*args):
        raise ClaimFalsified("x")

    for name in ("spectrum", "homology_table", "singular_block_dims"):
        monkeypatch.setattr(cli, name, refute)
    for command in ("spectrum", "homology", "singular"):
        code, out, err = run(capsys, command, "--k", "2", "--h-max", "1", "--jobs", "1")
        assert (code, out, err) == (1, "", "falsified claim: x\n"), command


def test_singular_route_disagreement_exits_1(capsys, monkeypatch):
    """Weight counts that disagree with the per-q counts of
    singular_block_dims raise ClaimFalsified, which main reports.  The
    block table still equals the enumerated levels, so the check that the
    per-q counts sum to the weight count kills the fault."""
    from afflap import sl2

    real = sl2.weight_dim_table

    def one_more_at_weight_0(k, h_max):
        table = real(k, h_max)
        return {**table, **{(0, h): table.get((0, h), 0) + 1 for h in range(h_max + 1)}}

    monkeypatch.setattr(sl2, "weight_dim_table", one_more_at_weight_0)
    message = "singular dimensions by q do not sum to the weight count at k=2, h=0, w=0"
    with pytest.raises(ClaimFalsified, match=f"^{message}$"):
        sl2.singular_block_dims(2, 0)
    code, out, err = run(capsys, "singular", "--k", "2", "--h-max", "2", "--jobs", "1")
    assert (code, out) == (1, "")
    assert err == f"falsified claim: {message}\n"


def _block_dim(k: int, h: int) -> int:
    return sum(n for (_, hh), n in chains.weight_dim_table(k, h).items() if hh == h)


def test_singular_rejects_non_unimodal_weight_counts(capsys, monkeypatch):
    """Above MATRIX_ROUTE_CUT the weight counts are the only route, so a
    negative difference fails the run instead of printing as zero.  The
    per-q counts are non-negative, so the check that they sum to the weight
    count kills the fault."""
    from afflap import sl2

    real = sl2.weight_dim_table

    def dip_at_weight_0(k, h_max):
        table = real(k, h_max)
        return {**table, (1, 5): table[0, 5] + 1} if (k, h_max) == (-1, 5) else table

    assert _block_dim(-1, 5) > sl2.MATRIX_ROUTE_CUT
    monkeypatch.setattr(sl2, "weight_dim_table", dip_at_weight_0)
    code, out, err = run(capsys, "singular", "--k", "-1", "--h-max", "5", "--jobs", "1")
    assert (code, out) == (1, "")
    assert err == ("falsified claim: singular dimensions by q do not sum to the weight "
                   "count at k=-1, h=5, w=0\n")


def test_singular_rejects_by_q_counts_that_miss_the_weight_count(capsys, monkeypatch):
    """Above MATRIX_ROUTE_CUT nothing else ties the by_q column to dim: one
    more (q, w) = (3, 0) monomial in degree 10 makes the w = 0 counts sum to
    one more than dim(0) - dim(1)."""
    from afflap import sl2

    real = sl2.block_dim_table

    def one_more_at_q3_w0(k, h_max):
        table = real(k, h_max)
        if (k, h_max) != (2, 10):
            return table
        return {**table, (3, 0, 10): table.get((3, 0, 10), 0) + 1}

    assert _block_dim(2, 10) > sl2.MATRIX_ROUTE_CUT
    monkeypatch.setattr(sl2, "block_dim_table", one_more_at_q3_w0)
    code, out, err = run(capsys, "singular", "--k", "2", "--h-max", "10", "--jobs", "1")
    assert (code, out) == (1, "")
    assert err == ("falsified claim: singular dimensions by q do not sum to the weight "
                   "count at k=2, h=10, w=0\n")


def test_singular_builds_each_dimension_table_once(capsys, monkeypatch):
    """Every degree of the singular table is read from one weight table and
    one block table, each built as one grid up to --h-max."""
    calls = []
    real = chains._dim_grid

    def counted(k, h_max, by_q):
        calls.append((k, h_max))
        return real(k, h_max, by_q)

    monkeypatch.setattr(chains, "_dim_grid", counted)
    assert run(capsys, "singular", "--k", "2", "--h-max", "30", "--jobs", "1")[0] == 0
    assert calls == [(2, 30), (2, 30)]


@pytest.mark.parametrize("k, name", [(2, "singular_k2_h10.csv"),
                                     (-1, "singular_km1_h10.csv")])
def test_singular_csv_matches_golden(capsys, k, name):
    golden = Path(__file__).parent / "golden" / name
    code, out, err = run(capsys, "singular", "--k", str(k), "--h-max", "10",
                         "--format", "csv", "--jobs", "1")
    assert (code, err) == (0, "")
    assert out.encode() == golden.read_bytes()


@pytest.mark.parametrize("fmt, name", [("csv", "verify_o40.csv"), ("text", "verify_o40.txt")])
def test_verify_matches_golden(capsys, fmt, name):
    golden = Path(__file__).parent / "golden" / name
    code, out, err = run(capsys, "verify", "--all", "--order", "40", "--format", fmt,
                         "--jobs", "1")
    assert (code, err) == (0, "")
    assert out.encode() == golden.read_bytes()


@pytest.mark.parametrize("args, name", [
    (("spectrum", "--k", "-1", "--h-max", "6", "--format", "csv"), "spectrum_km1_h6.csv"),
    (("spectrum", "--k", "-1", "--h-max", "6", "--format", "text"), "spectrum_km1_h6.txt"),
    (("homology", "--k", "2", "--h-max", "8", "--format", "csv"), "homology_k2_h8.csv"),
    (("homology", "--k", "2", "--h-max", "8", "--format", "text"), "homology_k2_h8.txt"),
    (("spectrum", "--k", "0", "--h-max", "8", "--format", "csv"), "spectrum_k0_h8.csv"),
    (("spectrum", "--k", "2", "--h-max", "8", "--format", "csv"), "spectrum_k2_h8.csv"),
    (("homology", "--k", "1", "--h-max", "8", "--format", "json"), "homology_k1_h8.json"),
    (("homology", "--k", "-1", "--h-max", "8", "--format", "json"), "homology_km1_h8.json"),
])
def test_spectrum_and_homology_match_golden(capsys, args, name):
    golden = Path(__file__).parent / "golden" / name
    code, out, err = run(capsys, *args, "--jobs", "1")
    assert (code, err) == (0, "")
    assert out.encode() == golden.read_bytes()


def test_json_schema_is_stable(capsys):
    code, out, _ = run(capsys, "spectrum", "--k", "1", "--h-max", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"tool_version", "config", "results"}
    assert set(payload["config"]) == {"command", "format", "k", "h_max"}
    for res in payload["results"]:
        assert set(res) == {"h", "dim", "blocks", "refinement", "cells"}
        for b in res["blocks"]:
            assert set(b) == {"lambda", "mult"}
        for r in res["refinement"]:
            assert set(r) == {"w", "lambda", "mult"}
        for c in res["cells"]:
            assert set(c) == {"q", "w", "lambda", "mult"}


def test_version_flag(capsys):
    assert main(["--version"]) == 0


def test_spectrum_rejects_a_negative_predicted_eigenvalue(capsys, monkeypatch):
    """Check 5 refuses a negative eigenvalue law: patched to go negative at
    the dominant weight w' = 2 of L(-1) only, it fails the first block where
    that piece occurs, naming the level's q, before any nullity is
    computed."""
    from afflap import laplacian

    real = laplacian.predicted_eigenvalue
    monkeypatch.setattr(laplacian, "predicted_eigenvalue",
                        lambda k, w, h: -1 if (k, w) == (-1, 2) else real(k, w, h))
    code, out, err = run(capsys, "spectrum", "--k", "-1", "--h-max", "4", "--jobs", "1")
    assert (code, out) == (1, "")
    assert err == "falsified claim: negative predicted eigenvalue at k=-1, h=1, q=2, w'=2\n"


def test_spectrum_rejects_a_negative_scalar_eigenvalue(capsys, monkeypatch):
    """The scalar law of L(1), patched to go negative at the monomial weight
    w = 2 only, fails the first slice of that weight, naming its
    (q, w, h)."""
    from afflap import laplacian

    real = laplacian.predicted_eigenvalue
    monkeypatch.setattr(laplacian, "predicted_eigenvalue",
                        lambda k, w, h: -1 if (k, w) == (1, 2) else real(k, w, h))
    code, out, err = run(capsys, "spectrum", "--k", "1", "--h-max", "4", "--jobs", "1")
    assert (code, out) == (1, "")
    assert err == "falsified claim: negative predicted eigenvalue at k=1, (q,w,h)=(2,2,1)\n"
