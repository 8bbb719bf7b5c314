#!/usr/bin/env python
"""Validate the artefacts of an instrumented resolve (the obs-smoke gate).

Usage::

    python scripts/check_obs.py TRACE.jsonl RUN.json [PROFILE.txt]

Checks, exiting non-zero with a message on the first failure:

* the streamed trace file parses (``read_trace_jsonl``), carries exactly
  one trace id, and rebuilds to a single ``resolve`` root containing the
  pipeline phases;
* worker chunk spans (``worker.*``) are descendants of the resolve root
  — the cross-process propagation acceptance criterion;
* the run report carries merged worker counters, interpolated histogram
  quantiles, and (when present) a sampling-profiler block;
* the report's metrics render to Prometheus text that passes the repo's
  own exposition checker;
* the collapsed-stack profile file, if given, is well-formed.

Run via ``make obs-smoke``; CI uploads the checked artefacts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import check_exposition, read_trace_jsonl, render_prometheus


def fail(message: str) -> "NoReturn":  # noqa: F821 - py3.11 has typing.NoReturn
    print(f"check_obs: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check_trace(path: Path) -> int:
    trace = read_trace_jsonl(path)
    if [s.name for s in trace.roots] != ["resolve"]:
        fail(f"{path}: expected single resolve root, got "
             f"{[s.name for s in trace.roots]}")
    if not trace.trace_id:
        fail(f"{path}: events carry no trace id")
    phases = [s.name for s in trace.roots[0].children]
    for phase in ("blocking", "graph", "bootstrap", "merge", "refine"):
        if phase not in phases:
            fail(f"{path}: resolve root is missing the {phase} phase")
    spans = list(trace.walk())
    workers = [s for _, s in spans if s.name.startswith("worker.")]
    if not workers:
        fail(f"{path}: no worker chunk spans — was --workers used?")
    ids = {s.span_id for _, s in spans}
    for span in workers:
        if span.parent_id not in ids:
            fail(f"{path}: worker span {span.span_id} has dangling parent "
                 f"{span.parent_id}")
        if not span.attrs or "pid" not in span.attrs:
            fail(f"{path}: worker span {span.span_id} lacks a pid attribute")
    print(f"check_obs: trace ok — {len(spans)} spans, "
          f"{len(workers)} worker chunks, trace_id {trace.trace_id}")
    return len(workers)


def check_report(path: Path, expect_profile: bool) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    counters = report.get("metrics", {}).get("counters", {})
    for name in ("parallel.worker.pairs_in", "parallel.worker.pairs_kept"):
        if counters.get(name, 0) <= 0:
            fail(f"{path}: merged worker counter {name} missing or zero")
    histograms = report.get("metrics", {}).get("histograms", {})
    chunk = histograms.get("parallel.worker.chunk_seconds")
    if not chunk or chunk.get("count", 0) <= 0:
        fail(f"{path}: parallel.worker.chunk_seconds histogram missing")
    if chunk.get("p95") is None:
        fail(f"{path}: histogram is missing interpolated quantiles")
    if expect_profile:
        profile = report.get("profile")
        if not profile or "samples" not in profile:
            fail(f"{path}: --profile was requested but no profile block")
    text = render_prometheus(report["metrics"])
    try:
        families = check_exposition(text)
    except ValueError as error:
        fail(f"{path}: prom rendering is malformed: {error}")
    print(f"check_obs: report ok — {len(counters)} counters, "
          f"{len(families)} prom families")


def check_profile(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    for n, line in enumerate(lines, start=1):
        stack, _, count = line.rpartition(" ")
        if not stack or not count.isdigit():
            fail(f"{path}:{n}: malformed collapsed-stack line: {line!r}")
    print(f"check_obs: profile ok — {len(lines)} unique stacks")


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, report_path = Path(argv[0]), Path(argv[1])
    profile_path = Path(argv[2]) if len(argv) == 3 else None
    check_trace(trace_path)
    check_report(report_path, expect_profile=profile_path is not None)
    if profile_path is not None:
        check_profile(profile_path)
    print("check_obs: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
