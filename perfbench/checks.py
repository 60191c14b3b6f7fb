"""Correctness checks on the program's outputs.

Each check takes plain values (program output next to an independent
reference, or next to a property the method must have) and returns a list
of failure messages, empty when the check holds. The benchmark's tests feed
each one a deliberately corrupted output to show that it can fail.
"""

from __future__ import annotations

import math

import numpy as np

import reference

LOSS_RTOL = 1e-9
PROBS_ATOL = 1e-9
GRAD_RTOL = 1e-5
GRAD_ATOL = 1e-10
ATTENTION_TOL = 1e-12
IOU_RTOL = 1e-12


def loss_matches(what: str, program: float, ref: float) -> list[str]:
    if abs(program - ref) <= LOSS_RTOL * abs(ref):
        return []
    return [f"{what}: program loss {program!r} vs reference {ref!r}"]


def all_finite(what: str, values) -> list[str]:
    bad = [v for v in values if not math.isfinite(v)]
    return [f"{what}: {len(bad)} non-finite values"] if bad else []


def arrays_identical(what: str, before: dict, after: dict) -> list[str]:
    """Named arrays must be bit-identical (same names, shapes and values)."""
    if before.keys() != after.keys():
        return [f"{what}: names differ ({sorted(before)} vs {sorted(after)})"]
    changed = [k for k in before if not np.array_equal(before[k], after[k])]
    return [f"{what}: changed {changed}"] if changed else []


def equal(what: str, a, b) -> list[str]:
    return [] if a == b else [f"{what}: {a!r} != {b!r}"]


def probs_match(what: str, program: np.ndarray, ref: np.ndarray) -> list[str]:
    err = float(np.max(np.abs(np.asarray(program).reshape(-1) - np.asarray(ref).reshape(-1))))
    return [] if err <= PROBS_ATOL else [f"{what}: max |program - reference| = {err:.3g}"]


def gradients_match(what: str, program: dict, ref: dict) -> list[str]:
    """{coordinate: value} from the tape against central differences."""
    out = []
    for key, g_ref in ref.items():
        g = program[key]
        if not abs(g - g_ref) <= GRAD_ATOL + GRAD_RTOL * abs(g_ref):
            out.append(f"{what}: d loss / d {key} tape {g!r} vs central difference {g_ref!r}")
    return out


def order_sensitive(what: str, original, permuted, ref_permuted) -> list[str]:
    """A sequence model must see the new order: the output changes, and it
    equals the reference run on the permuted sequence."""
    out = []
    if np.array_equal(original, permuted):
        out.append(f"{what}: output unchanged under a permutation of the views")
    out += probs_match(f"{what} (permuted order)", permuted, ref_permuted)
    return out


def attention_normalized(what: str, scores: np.ndarray) -> list[str]:
    s = np.asarray(scores)
    if (s < 0).any():
        return [f"{what}: negative attention score"]
    err = float(np.max(np.abs(np.sum(s.reshape(s.shape[0], -1), axis=0) - 1.0)))
    return [] if err <= ATTENTION_TOL else [f"{what}: a column sums to 1 {err:+.3g}"]


def eval_rows_match(what: str, rows: list, naive: dict) -> list[str]:
    """Reported (threshold, mean IoU) per N against ``naive_threshold_search``."""
    out = []
    for row in rows:
        t, mean = naive[row["n"]]
        if row["threshold"] != t:
            out.append(f"{what} N={row['n']}: threshold {row['threshold']} vs naive {t}")
        if not abs(row["mean_iou"] - mean) <= IOU_RTOL * abs(mean):
            out.append(f"{what} N={row['n']}: mean IoU {row['mean_iou']!r} vs naive {mean!r}")
    return out


def depth_matches_march(what: str, views: np.ndarray, occ: np.ndarray) -> list[str]:
    side = views.shape[-1]
    bad = [d for d in range(views.shape[0])
           if not np.array_equal(views[d], reference.march_depth(occ, d, side))]
    return [f"{what}: directions {bad} differ from the ray march"] if bad else []


def occupancy_in_range(what: str, gt: np.ndarray, lo: float = 0.02, hi: float = 0.5) -> list[str]:
    frac = float(np.mean(gt))
    return [] if lo <= frac <= hi else [f"{what}: occupancy {frac:.4f} outside [{lo}, {hi}]"]


def bytes_equal(what: str, a: bytes, b: bytes) -> list[str]:
    if a == b:
        return []
    first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return [f"{what}: {len(a)} vs {len(b)} bytes, first difference at byte {first}"]
