"""Command-line front end: batch spectra, homology, singular dimensions and
identity verification, with deterministic JSON/CSV/text output.

Exit codes: 0 on success, 1 when an exactly computed quantity falsifies a
predicted law or an identity fails, 2 on usage errors, on a report that
cannot be written (--out replaces its file atomically) and on a worker
process that dies.  Block computations are independent per degree, so
spectrum and homology map one task per degree h, and verify one per
identity, onto a process pool (--jobs, by default one worker per CPU).
Results are merged in task order; homology compares the merged table with
its closed forms once, after the merge.  singular reads all degrees from
one table, built and checked in the main process; it validates the worker
count like the others.  The output is byte-identical for every worker
count.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction

from . import __version__
from .identities import all_identities, verify_identity
from .laplacian import (
    ClaimFalsified,
    closed_form_deviations,
    homology_table,
    predicted_eigenvalue,
    spectrum,
)
from .linalg import sparse_sum
from .sl2 import singular_block_dims

USAGE_ERROR = 2
CLAIM_ERROR = 1


class _CliError(Exception):
    """A failure reported as one ``error:`` line on stderr, with exit code 2."""


def _jobs_from(args) -> int:
    jobs = args.jobs if args.jobs is not None else os.cpu_count() or 1
    if jobs < 1:
        raise _CliError("worker count must be positive")
    return jobs


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _run_tasks(fn, tasks, jobs: int) -> list:
    """Map fn over tasks, preserving order; pool only when it can help.

    A worker that dies (killed for memory, say) breaks the pool; that is
    reported as an error with exit code 2, not as a traceback.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(fn, tasks))
    except BrokenProcessPool as exc:
        raise _CliError(f"a worker process died: {exc}") from None


def _coeff_str(c) -> str:
    return str(Fraction(c))


def _chain_json(chain) -> list:
    return [{"indices": list(mono), "coeff": _coeff_str(coeff)}
            for mono, coeff in sorted(chain.items())]


# ---------------------------------------------------------------------------
# spectrum

def _spectrum_task(args: tuple) -> dict:
    k, h = args
    res = spectrum(k, h)
    refined = sparse_sum(((w, lam), mult) for (_, w, lam), mult in res.cells.items())
    return {
        "h": h,
        "dim": res.dim,
        "blocks": [{"lambda": lam, "mult": mult} for lam, mult in res.lines],
        "refinement": [{"w": w, "lambda": lam, "mult": mult}
                       for (w, lam), mult in sorted(refined.items())],
        "cells": [{"q": q, "w": w, "lambda": lam, "mult": mult}
                  for (q, w, lam), mult in sorted(res.cells.items())],
    }


def cmd_spectrum(args) -> int:
    if args.k not in (-1, 0, 1, 2):
        return _usage("spectrum needs --k in {-1, 0, 1, 2}")
    if args.h_max < 0:
        return _usage("--h-max must be non-negative")
    jobs = _jobs_from(args)
    results = _run_tasks(_spectrum_task,
                         [(args.k, h) for h in range(args.h_max + 1)], jobs)
    _emit(args, "spectrum", results, _spectrum_csv, _spectrum_text)
    return 0


def _spectrum_csv(config, results, out) -> None:
    writer = csv.writer(out)
    writer.writerow(["k", "q", "w", "h", "lambda", "dim"])
    for res in results:
        for cell in res["cells"]:
            writer.writerow([config["k"], cell["q"], cell["w"], res["h"],
                             cell["lambda"], cell["mult"]])


def _spectrum_text(config, results, out) -> None:
    for res in results:
        line = ", ".join(f"lambda={b['lambda']}: {b['mult']}" for b in res["blocks"])
        out.write(f"h={res['h']} (dim {res['dim']}): {line}\n")
        refined = ", ".join(f"(w={r['w']}, lambda={r['lambda']}): {r['mult']}"
                            for r in res["refinement"])
        out.write(f"  by weight: {refined}\n")


# ---------------------------------------------------------------------------
# homology

def _homology_task(args: tuple) -> list:
    k, h = args
    table = homology_table(k, h, h)  # the degree-h block alone
    entries = []
    for (q, w, _), dim in sorted(table.entries.items()):
        entry = {"q": q, "w": w, "h": h, "dim": dim}
        chains = table.chains.get((q, w, h))
        if chains:
            entry["chains"] = [_chain_json(c) for c in chains]
        entries.append(entry)
    return entries


def cmd_homology(args) -> int:
    if args.k not in (-1, 0, 1, 2):
        return _usage("homology needs --k in {-1, 0, 1, 2}")
    if args.h_max < 0:
        return _usage("--h-max must be non-negative")
    jobs = _jobs_from(args)
    by_degree = _run_tasks(_homology_task,
                           [(args.k, h) for h in range(args.h_max + 1)], jobs)
    entries = sorted((e for part in by_degree for e in part),
                     key=lambda e: (e["q"], e["w"], e["h"]))
    dims = {(e["q"], e["w"], e["h"]): e["dim"] for e in entries}
    deviations = closed_form_deviations(args.k, dims, 0, args.h_max)
    result = {
        "entries": entries,
        "matches_closed_form": not deviations,
        "deviations": [{"q": q, "w": w, "h": h, "dim": got, "expected": want}
                       for (q, w, h), got, want in deviations],
    }
    _emit(args, "homology", [result], _homology_csv, _homology_text)
    return CLAIM_ERROR if deviations else 0


def _homology_csv(config, results, out) -> None:
    writer = csv.writer(out)
    writer.writerow(["k", "q", "w", "h", "dim"])
    for res in results:
        for e in res["entries"]:
            writer.writerow([config["k"], e["q"], e["w"], e["h"], e["dim"]])


def _homology_text(config, results, out) -> None:
    for res in results:
        for e in res["entries"]:
            out.write(f"q={e['q']} w={e['w']} h={e['h']}: dim {e['dim']}\n")
        if not res["matches_closed_form"]:
            out.write("DEVIATIONS from the closed forms:\n")
            for d in res["deviations"]:
                out.write(f"  (q={d['q']}, w={d['w']}, h={d['h']}): "
                          f"computed {d['dim']}, expected {d['expected']}\n")


# ---------------------------------------------------------------------------
# identity verification

def _verify_task(args: tuple) -> dict:
    name, order = args
    rep = verify_identity(name, order)
    return {
        "identity": rep.name,
        "order": rep.order,
        "passed": rep.passed,
        "first_mismatch": rep.first_mismatch,
        "note": rep.note,
    }


def cmd_verify(args) -> int:
    order = args.order
    if order < 1:
        return _usage("--order must be at least 1")
    known = all_identities()
    if args.all or not args.id:
        names = list(known)
    else:
        names = list(args.id)
        for name in names:
            if name not in known:
                return _usage(f"unknown identity {name!r}; known: {', '.join(known)}")
    jobs = _jobs_from(args)
    results = _run_tasks(_verify_task, [(name, order) for name in names], jobs)
    _emit(args, "verify", results, _verify_csv, _verify_text)
    return 0 if all(r["passed"] for r in results) else CLAIM_ERROR


def _verify_csv(config, results, out) -> None:
    writer = csv.writer(out)
    writer.writerow(["identity", "order", "passed", "mismatch"])
    for r in results:
        mism = "" if r["first_mismatch"] is None else r["first_mismatch"]["position"]
        writer.writerow([r["identity"], r["order"], r["passed"], mism])


def _verify_text(config, results, out) -> None:
    for r in results:
        status = "pass" if r["passed"] else "FAIL"
        out.write(f"{r['identity']:<28} order {r['order']:>3}  {status}\n")
        if not r["passed"]:
            m = r["first_mismatch"]
            out.write(f"  first mismatch at {m['position']}: "
                      f"lhs {m['lhs']} vs rhs {m['rhs']}\n")


# ---------------------------------------------------------------------------
# singular dimensions

def cmd_singular(args) -> int:
    if args.k not in (-1, 2):
        return _usage("singular tables need --k in {-1, 2}")
    if args.h_max < 0:
        return _usage("--h-max must be non-negative")
    _jobs_from(args)  # validated like every command; one table serves all degrees
    by_block: dict = {}
    for (q, w, h), dim in singular_block_dims(args.k, args.h_max).items():
        by_block.setdefault((h, w), {})[q] = dim
    results = [{"h": h, "rows": []} for h in range(args.h_max + 1)]
    for (h, w), by_q in sorted(by_block.items()):
        results[h]["rows"].append({
            "w": w, "h": h, "lambda": predicted_eigenvalue(args.k, w, h),
            "dim": sum(by_q.values()),
            "by_q": [{"q": q, "dim": d} for q, d in sorted(by_q.items())],
        })
    _emit(args, "singular", results, _singular_csv, _singular_text)
    return 0


def _singular_csv(config, results, out) -> None:
    writer = csv.writer(out)
    writer.writerow(["k", "q", "w", "h", "lambda", "dim"])
    for res in results:
        for row in res["rows"]:
            for part in row["by_q"]:
                writer.writerow([config["k"], part["q"], row["w"], row["h"],
                                 row["lambda"], part["dim"]])


def _singular_text(config, results, out) -> None:
    for res in results:
        for row in res["rows"]:
            parts = ", ".join(f"q={p['q']}: {p['dim']}" for p in row["by_q"])
            out.write(f"h={row['h']} w={row['w']} lambda={row['lambda']}: "
                      f"dim {row['dim']} ({parts})\n")


# ---------------------------------------------------------------------------
# output plumbing

def _emit(args, command: str, results: list, csv_fn, text_fn) -> None:
    # the worker count is deliberately not echoed: output bytes must not
    # depend on the parallelism level
    config = {"command": command, "format": args.format}
    for key in ("k", "h_max", "order"):
        if getattr(args, key, None) is not None:
            config[key] = getattr(args, key)
    if args.format == "json":
        payload = {"tool_version": __version__, "config": config, "results": results}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        (csv_fn if args.format == "csv" else text_fn)(config, results, buf)
        text = buf.getvalue()
    if args.out:
        _write_replacing(args.out, text)
    else:
        sys.stdout.write(text)


def _write_replacing(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path`` and rename it over
    ``path``, so a failed or interrupted write leaves no half-written report
    and an earlier file stays as it was."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if not isinstance(exc, OSError):
            raise
        raise _CliError(f"cannot write {path}: {exc.strerror or exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afflap",
        description="Exact Laplacian spectra, homology and identity checks "
                    "for the index-bounded subalgebras of affine sl2.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_k=True, with_hmax=True):
        if with_k:
            p.add_argument("--k", type=int, required=True,
                           help="index bound of the subalgebra")
        if with_hmax:
            p.add_argument("--h-max", dest="h_max", type=int, default=6,
                           help="largest degree block to process")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", help="write the report to a file")
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: one per CPU)")

    p = sub.add_parser("spectrum", help="exact eigenvalue tables per degree block")
    common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("homology", help="harmonic dimensions and chains")
    common(p)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("verify", help="run the registered exact identities")
    common(p, with_k=False, with_hmax=False)
    p.add_argument("--order", type=int, default=40,
                   help="series truncation order")
    p.add_argument("--id", action="append", default=[],
                   help="identity name (repeatable)")
    p.add_argument("--all", action="store_true",
                   help="run the whole registry (default when no --id)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("singular", help="singular subspace dimension tables")
    common(p)
    p.set_defaults(fn=cmd_singular)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage problems and 0 on --help/--version
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except _CliError as exc:
        return _usage(str(exc))
    except ClaimFalsified as exc:
        print(f"falsified claim: {exc}", file=sys.stderr)
        return CLAIM_ERROR


if __name__ == "__main__":
    sys.exit(main())
