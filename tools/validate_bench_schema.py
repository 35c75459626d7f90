#!/usr/bin/env python3
"""Validate BENCH_*.json perf records against schema v1 (see bench_util.hpp).

Usage: validate_bench_schema.py FILE [FILE...]

Stdlib only; exits non-zero and prints one line per violation when any file
fails. Used by CI after the bench smoke runs so a harness regression that
silently stops emitting (or emits malformed) records fails the build
instead of going unnoticed.
"""

import json
import numbers
import sys

SIMD_LEVELS = {"scalar", "avx2", "avx512"}


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def validate(doc, errors):
    """Append one message per schema violation found in `doc` to `errors`."""
    if not isinstance(doc, dict):
        errors.append("top-level JSON value is not an object")
        return

    def require(key, pred, desc):
        if key not in doc:
            errors.append(f"missing required key '{key}'")
        elif not pred(doc[key]):
            errors.append(f"'{key}' is not {desc} (got {doc[key]!r})")

    require("schema_version", lambda v: v == 1, "the integer 1")
    require("bench", lambda v: isinstance(v, str) and v, "a non-empty string")
    require("git_rev", lambda v: isinstance(v, str) and v, "a non-empty string")
    require("simd_level", lambda v: v in SIMD_LEVELS,
            "one of " + "/".join(sorted(SIMD_LEVELS)))
    require("threads", lambda v: isinstance(v, int) and v > 0,
            "a positive integer")
    require("scale", lambda v: _is_number(v) and v > 0, "a positive number")
    # Every bench binary runs for at least milliseconds; a sub-millisecond
    # wall clock means the report was constructed right before being written
    # instead of at program start.
    require("wall_seconds", lambda v: _is_number(v) and v >= 1e-3,
            "a number >= 1e-3 (whole-binary wall clock)")
    require("simulated_slots", lambda v: isinstance(v, int) and v >= 0,
            "a non-negative integer")
    require("slots_per_second", lambda v: _is_number(v) and v >= 0,
            "a non-negative number")

    # Cross-field consistency: slots_per_second is defined as
    # simulated_slots / wall_seconds, so the three must agree; zero
    # throughput with nonzero slots (or vice versa) means the counters were
    # never wired up.
    wall = doc.get("wall_seconds")
    slots = doc.get("simulated_slots")
    sps = doc.get("slots_per_second")
    if _is_number(wall) and wall > 0 and isinstance(slots, int) \
            and _is_number(sps):
        if (slots > 0) != (sps > 0):
            errors.append(
                f"simulated_slots={slots} but slots_per_second={sps}: "
                "one is zero and the other is not")
        elif slots > 0:
            expected = slots / wall
            if abs(sps - expected) > 0.05 * expected:
                errors.append(
                    f"slots_per_second={sps} inconsistent with "
                    f"simulated_slots/wall_seconds={expected:.6g}")

    # Optional sections.
    sweeps = doc.get("sweeps")
    if sweeps is not None:
        if not isinstance(sweeps, dict):
            errors.append("'sweeps' is not an object")
        else:
            for name, rows in sweeps.items():
                if not isinstance(rows, list) or not all(
                        isinstance(r, dict) for r in rows):
                    errors.append(f"sweep '{name}' is not an array of objects")

    metrics = doc.get("metrics")
    if metrics is not None:
        if not isinstance(metrics, dict):
            errors.append("'metrics' is not an object")
        else:
            for key, value in metrics.items():
                if not (_is_number(value) or isinstance(value, str)):
                    errors.append(
                        f"metric '{key}' is neither a number nor a string")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        errors = []
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            errors.append(str(exc))
            doc = None
        if doc is not None:
            validate(doc, errors)
        if errors:
            failed = True
            for message in errors:
                print(f"{path}: {message}")
        else:
            print(f"{path}: ok (bench={doc['bench']}, "
                  f"git_rev={doc['git_rev']}, simd={doc['simd_level']})")
            # A committed perf record should come from a clean tree — a
            # "-dirty" rev measured something no commit corresponds to.
            # Warning only: local iteration legitimately produces dirty
            # records, they just should not be checked in.
            rev = doc.get("git_rev")
            if isinstance(rev, str) and rev.endswith("-dirty"):
                print(f"{path}: WARNING git_rev '{rev}' is from a dirty "
                      "tree; regenerate from a clean checkout before "
                      "committing this record")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
