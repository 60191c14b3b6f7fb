"""Fast end-to-end invariant suite, runnable from the command line.

Each check re-derives one of the library's load-bearing mathematical
properties from scratch on fresh random inputs. The suite is the negative
control surface for the fault-injection flag: a deliberately broken
softmax normalization must flip the invariance checks to FAIL. The fault
lives here, not in the tensor core: ``enable_fault`` swaps the module
attribute ``tensor.softmax_set``, which every caller looks up at call time,
for a skewed version, and ``clear_faults`` puts the original back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import aggregators as ag
from . import data as D
from . import metrics as E
from . import model as M
from . import tensor as T
from .errors import ContractError
from .tensor import Tensor

__all__ = ["CheckResult", "run_selftest", "enable_fault", "clear_faults"]

_softmax_set = T.softmax_set


def _skewed_softmax_set(c: Tensor) -> Tensor:
    """``softmax_set`` with row n scaled by 1 + 0.1 n, so columns no longer
    sum to one; the recorded backward sees the skewed scores too."""
    out = _softmax_set(c)
    out.data *= (1.0 + 0.1 * np.arange(out.shape[0], dtype=np.float64))[:, None]
    return out


def enable_fault(name: str) -> None:
    """Switch on a deliberate defect (negative control for self-tests)."""
    if name != "softmax_skew":
        raise ContractError(f"unknown fault mode: {name!r}")
    T.softmax_set = _skewed_softmax_set


def clear_faults() -> None:
    T.softmax_set = _softmax_set


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check_softmax_normalization() -> CheckResult:
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        n, d = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        s = T.softmax_set(Tensor(rng.standard_normal((n, d)) * 10)).data
        if (s < 0).any():
            return CheckResult("softmax-normalization", False, "negative score")
        worst = max(worst, float(np.abs(s.sum(axis=0) - 1.0).max()))
    return CheckResult("softmax-normalization", worst <= 1e-12,
                       f"max |column sum - 1| = {worst:.2e}")


def _check_permutation_invariance() -> CheckResult:
    rng = np.random.default_rng(1)
    worst = 0.0
    for d in (1, 8, 64):
        for _ in range(5):
            n = int(rng.integers(2, 25))
            x = rng.standard_normal((n, d)) * 2
            pf = ag.aggregator_init("attsets_fc", d)
            pf.weights["W"] = Tensor(rng.standard_normal((d, d)) * 0.3, requires_grad=True)
            pe = ag.aggregator_init("attsets_elem", d)
            pe.weights["w"] = Tensor(rng.standard_normal((d, 1)) * 0.3, requires_grad=True)
            params = [pf, pe] + [ag.AggregatorParams(kind) for kind in ag.POOL_KINDS]
            outs = [ag.aggregate(ag.SetBatch(Tensor(x)), p)[0].data for p in params]
            for _ in range(10):
                xp = x[rng.permutation(n)]
                for p, out in zip(params, outs):
                    worst = max(worst, float(np.abs(
                        ag.aggregate(ag.SetBatch(Tensor(xp)), p)[0].data - out).max()))
    return CheckResult("permutation-invariance", worst <= 1e-9,
                       f"max deviation over permutations = {worst:.2e}")


def _check_gru_variance() -> CheckResult:
    rng = np.random.default_rng(2)
    for trial in range(20):
        params = ag.aggregator_init("gru", 8, seed=trial)
        x = rng.standard_normal((6, 8)) * 2
        fwd = ag.aggregate(ag.SetBatch(Tensor(x)), params)[0].data
        rev = ag.aggregate(ag.SetBatch(Tensor(x[::-1])), params)[0].data
        if np.abs(fwd - rev).max() > 1e-3:
            return CheckResult("gru-permutation-variance", True,
                               f"order flip moved output by {np.abs(fwd - rev).max():.2e}")
    return CheckResult("gru-permutation-variance", False,
                       "no order-sensitive output in 20 trials")


def _check_single_element_identity() -> CheckResult:
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = int(rng.integers(1, 16))
        x = rng.standard_normal((1, d))
        for kind in ("attsets_fc", "attsets_elem", "attsets_conv", "max", "mean", "sum"):
            params = ag.aggregator_init(kind, d, seed=0)
            for w in params.weights.values():
                w.data[:] = rng.standard_normal(w.shape)
            y, scores = ag.aggregate(ag.SetBatch(Tensor(x)), params)
            if not np.array_equal(y.data, x):
                return CheckResult("single-element-identity", False, kind)
            if scores is not None and not np.array_equal(scores, np.ones((1, d))):
                return CheckResult("single-element-identity", False, f"{kind} scores != 1")
    return CheckResult("single-element-identity", True, "all aggregators return the element")


def _fc_loss(x, w, rvec):
    params = ag.AggregatorParams("attsets_fc", {"W": w})
    y, _ = ag.aggregate(ag.SetBatch(Tensor(x)), params)
    return T.reduce_sum(T.ew_binary("mul", T.reshape(y, [y.size]), Tensor(rvec)), 0)


def _check_zero_gradient_single() -> CheckResult:
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 8))
    rvec = rng.standard_normal(8)
    w = Tensor(rng.standard_normal((8, 8)), requires_grad=True)
    with T.Tape() as tape:
        tape.backward(_fc_loss(x, w, rvec))
    if not np.array_equal(w.grad, np.zeros(64)):
        return CheckResult("zero-gradient-single-element", False, "tape gradient nonzero")
    fd = T.finite_diff_grad(lambda t: _fc_loss(x, t, rvec), w).data
    ok = np.abs(fd).max() < 1e-8
    return CheckResult("zero-gradient-single-element", ok,
                       f"finite differences agree to {np.abs(fd).max():.1e}")


def _check_nonzero_gradient_multi() -> CheckResult:
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 8))
    rvec = rng.standard_normal(8)
    w = Tensor(rng.standard_normal((8, 8)) * 0.3, requires_grad=True)
    with T.Tape() as tape:
        tape.backward(_fc_loss(x, w, rvec))
    ad = w.grad.reshape(8, 8)
    fd = T.finite_diff_grad(lambda t: _fc_loss(x, t, rvec), w).data
    denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-8)
    rel = float((np.abs(ad - fd) / denom).max())
    ok = np.abs(ad).max() > 0 and rel < 1e-5
    return CheckResult("nonzero-gradient-multi-element", ok,
                       f"max |grad| = {np.abs(ad).max():.2e}, fd rel err = {rel:.1e}")


def _check_finite_difference_ops() -> CheckResult:
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(5):
        n, d = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        wmat = Tensor(rng.standard_normal((n, d)))

        def f(t):
            s = T.softmax_set(t)
            return T.reduce_sum(T.set_sum(T.ew_binary("mul", s, wmat)), 0)

        x = Tensor(rng.standard_normal((n, d)), requires_grad=True)
        with T.Tape() as tape:
            tape.backward(f(x))
        ad = x.grad.reshape(n, d)
        fd = T.finite_diff_grad(f, x).data
        denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-8)
        worst = max(worst, float((np.abs(ad - fd) / denom).max()))
    return CheckResult("finite-difference-ops", worst < 1e-5, f"max rel err = {worst:.1e}")


def _check_zero_init_equivalence() -> CheckResult:
    rng = np.random.default_rng(7)
    for _ in range(10):
        n, d = int(rng.integers(2, 12)), int(rng.integers(1, 12))
        x = rng.standard_normal((n, d))
        mean = ag.aggregate(ag.SetBatch(Tensor(x)), ag.AggregatorParams("mean"))[0].data
        for kind in ("attsets_fc", "attsets_elem"):
            y, _ = ag.aggregate(ag.SetBatch(Tensor(x)), ag.aggregator_init(kind, d))
            if np.abs(y.data - mean).max() > 1e-12:
                return CheckResult("zero-init-mean-equivalence", False, kind)
    return CheckResult("zero-init-mean-equivalence", True,
                       "zero-weight attention equals mean pooling")


def _check_iou_oracle() -> CheckResult:
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 80))
        probs = rng.uniform(0, 1, n)
        gt = rng.integers(0, 2, n).astype(np.uint8)
        p = float(rng.choice(E.default_thresholds()))
        inter = union = 0
        for h, t in zip(probs, gt):
            if (h > p) and t:
                inter += 1
            if (h > p) or t:
                union += 1
        naive = 1.0 if union == 0 else inter / union
        if E.iou(probs, gt, p) != naive:
            return CheckResult("iou-oracle", False, f"mismatch at p={p}")
    return CheckResult("iou-oracle", True, "matches naive enumeration on 200 grids")


def _check_checkpoint_roundtrip() -> CheckResult:
    import tempfile
    from pathlib import Path

    cfg = M.ModelConfig(image_side=4, latent_dim=6, encoder_hidden=8, decoder_hidden=8,
                        grid_side=4, aggregator_kind="attsets_fc", seed=3)
    params = M.model_init(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.sfck"
        M.save_checkpoint(params, path)
        loaded = M.load_checkpoint(path, cfg)
    ok = loaded.checksum() == params.checksum()
    return CheckResult("checkpoint-roundtrip", ok, "bit-exact" if ok else "checksum drift")


def _check_dataset_roundtrip() -> CheckResult:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        meta = D.DatasetMeta(train_count=3, test_count=2, grid_side=8, image_side=8, seed=1)
        D.generate_dataset(meta, tmp)
        samples, loaded_meta = D.load_dataset(f"{tmp}/train.sfds")
        for s in samples:
            occ = s.gt.reshape(8, 8, 8)
            if not np.array_equal(D.render_all_views(occ, 8), s.views):
                return CheckResult("dataset-roundtrip", False, "stored views drift")
    ok = loaded_meta.train_count == 3 and len(samples) == 3
    return CheckResult("dataset-roundtrip", ok, "grids and views reload bit-exactly")


CHECKS = (
    _check_softmax_normalization,
    _check_permutation_invariance,
    _check_gru_variance,
    _check_single_element_identity,
    _check_zero_gradient_single,
    _check_nonzero_gradient_multi,
    _check_finite_difference_ops,
    _check_zero_init_equivalence,
    _check_iou_oracle,
    _check_checkpoint_roundtrip,
    _check_dataset_roundtrip,
)


def run_selftest(inject_fault: str | None = None) -> list[CheckResult]:
    """Run every named invariant check; optionally under an injected fault."""
    if inject_fault:
        enable_fault(inject_fault)
    try:
        return [check() for check in CHECKS]
    finally:
        clear_faults()
