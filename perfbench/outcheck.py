"""The exact output check, and the capture that writes its references.

Every step of a timed body is compared, after the body and outside its
timed interval, with a reference:

* ``paper-measure`` — both measured requests' full stat dumps
  (``RequestStats.as_dict(full=True)``);
* ``serve-mix`` — each trace's ``ServeResult.as_dict()``;
* ``catalog-cold`` — the artifact bytes, against the committed
  ``benchmarks/output/experiments/<name>.json``.

A reference is the SHA-256 of the output's canonical JSON plus a few
headline counters, kept in ``perfbench/refs/``.  Both must match
exactly.  A step that raised or differs is failed.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

from benchloads import Plan, canonical, sha256

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def reference_path(workload: str) -> str:
    return os.path.join(REFS_DIR, "%s.json" % workload)


def observe_all(plan: Plan, outputs: Dict[str, Any]) -> Dict[str, dict]:
    """``{step: {"sha256", "summary"}}`` for every step that returned."""
    observed = {}
    for name, value in outputs.items():
        text, summary = plan.observe(name, value)
        observed[name] = {"sha256": sha256(text), "summary": summary}
    return observed


def load_references(plan: Plan, workload: str) -> Dict[str, dict]:
    if plan.reference_source is not None:
        references = {}
        for name, _step in plan.steps:
            text = plan.reference_source(name)
            references[name] = {
                "sha256": sha256(text),
                "summary": {"bytes": len(text.encode("utf-8")),
                            "rows": len(json.loads(text)["rows"])},
            }
        return references
    with open(reference_path(workload), encoding="utf-8") as handle:
        return json.load(handle)["points"]


def _flatten(value: Any, prefix: str = "") -> Dict[str, Any]:
    if isinstance(value, dict):
        flat: Dict[str, Any] = {}
        for key, item in value.items():
            flat.update(_flatten(item, "%s%s." % (prefix, key)))
        return flat
    return {prefix.rstrip("."): value}


def compare(plan: Plan, observed: Dict[str, dict], errors: Dict[str, str],
            references: Dict[str, dict]) -> List[Tuple[str, str]]:
    """``(step, reason)`` for every step that raised or differs."""
    failed = []
    for name, _step in plan.steps:
        if name in errors:
            last = errors[name].strip().splitlines()[-1]
            failed.append((name, "raised: %s" % last))
            continue
        expected = references.get(name)
        if expected is None:
            failed.append((name, "no reference"))
            continue
        got = observed[name]
        want_summary = _flatten(expected["summary"])
        got_summary = _flatten(got["summary"])
        differing = sorted(key for key in set(want_summary) | set(got_summary)
                           if canonical(want_summary.get(key))
                           != canonical(got_summary.get(key)))
        if differing:
            failed.append((name, "differs: " + ", ".join(
                "%s %s != reference %s" % (key, got_summary.get(key),
                                           want_summary.get(key))
                for key in differing)))
        elif got["sha256"] != expected["sha256"]:
            failed.append((name, "differs: full output digest %s != "
                           "reference %s" % (got["sha256"][:16],
                                             expected["sha256"][:16])))
    return failed


def write_references(workload: str, salt: str,
                     observed: Dict[str, dict]) -> str:
    path = reference_path(workload)
    os.makedirs(REFS_DIR, exist_ok=True)
    document = {"workload": workload, "captured_with_pythonhashseed": salt,
                "points": observed}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
