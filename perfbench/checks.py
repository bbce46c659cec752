"""Checks on the output of every timed operation.

An operation fails when it raises, when its objective trace is not finite
or rises by more than ``TRACE_RISE_TOL`` relative, when its labels are not
a partition of the N samples into C labels, when its ACC falls below the
workload's floor, when the JSON report it wrote does not hold the report
it returned, or when its label digest differs from that of the other
operations on the same input.
"""

from __future__ import annotations

import hashlib
import json
import math

TRACE_RISE_TOL = 1e-9


def label_digest(labels) -> str:
    return hashlib.sha256(",".join(map(str, labels)).encode()).hexdigest()[:16]


def check_report(
    report,
    written: str,
    n_samples: int,
    n_clusters: int,
    acc_floor: float,
    reference_digest: str | None,
) -> list[str]:
    """Problems found in one operation's report; an empty list means it passed.

    ``written`` is the text of the JSON report the operation wrote and
    ``reference_digest`` the label digest of an earlier operation on the
    same input (None for the first).
    """
    problems = []
    trace = report.objective_trace
    if not trace or not all(math.isfinite(v) for v in trace):
        problems.append(f"objective trace not finite: {trace}")
    else:
        rises = [
            i for i in range(1, len(trace))
            if trace[i] - trace[i - 1] > TRACE_RISE_TOL * abs(trace[i - 1])
        ]
        if rises:
            problems.append(f"objective trace rises at iterations {rises}")
    labels = report.labels_pred
    if len(labels) != n_samples or set(labels) != set(range(n_clusters)):
        problems.append(
            f"labels are not a partition of {n_samples} samples into {n_clusters} labels: "
            f"{len(labels)} labels, {len(set(labels))} distinct"
        )
    acc = (report.metrics or {}).get("acc", float("nan"))
    if not acc >= acc_floor:
        problems.append(f"acc {acc} below the floor {acc_floor}")
    try:
        same = json.loads(written) == report.to_dict()
    except json.JSONDecodeError:
        same = False
    if not same:
        problems.append("written JSON report differs from the returned report")
    if reference_digest is not None and label_digest(labels) != reference_digest:
        problems.append("label digest differs from an earlier operation on the same input")
    return problems
