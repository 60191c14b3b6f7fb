"""Reference computations, written from the method's definition in plain numpy.

Nothing here imports ``setfusion``: every function takes plain arrays and
re-derives what the library should produce, so a check that compares the
two catches a fault in either.

* ``forward_loss`` / ``predict_probs``: encoder, ``attsets_fc`` or GRU
  aggregation, decoder and mean binary cross-entropy.
* ``naive_iou`` / ``naive_threshold_search``: voxel IoU at a threshold and
  the 13-point threshold choice (0.20..0.80 step 0.05, ties to the lower).
* ``march_depth``: a per-ray depth march along the 8 fixed view directions.
"""

from __future__ import annotations

import math

import numpy as np

BCE_EPS = 1e-7
THRESHOLDS = tuple(k / 100 for k in range(20, 81, 5))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class Pattern:
    """The gates of one forward pass, in order: which ReLU units are active
    (``pre > 0``, so relu'(0) = 0) and where the BCE clamp is inactive.

    A new pattern records the gates of the pass it is given. A pattern made
    from ``held`` gates replays them instead, so the loss is evaluated on the
    one smooth piece that contains the pass the gates came from."""

    def __init__(self, held: list | None = None):
        self.gates: list = []
        self._held = iter(held) if held is not None else None

    def gate(self, open_: np.ndarray) -> np.ndarray:
        if self._held is not None:
            open_ = next(self._held)
        self.gates.append(open_)
        return open_


def _relu(pre: np.ndarray, pattern: Pattern | None) -> np.ndarray:
    if pattern is None:
        return np.maximum(pre, 0.0)
    return np.where(pattern.gate(pre > 0.0), pre, 0.0)


def encode(p: dict, views: np.ndarray, pattern: Pattern | None = None) -> np.ndarray:
    """[N, P] flattened views -> [N, D] latents."""
    h = _relu(views @ p["enc_w1"] + p["enc_b1"], pattern)
    return h @ p["enc_w2"] + p["enc_b2"]


def attention_scores(p: dict, latents: np.ndarray) -> np.ndarray:
    """Feature-wise attention: per-slot softmax of X W over the set axis."""
    act = latents @ p["att_W"]
    e = np.exp(act - act.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def aggregate(p: dict, kind: str, latents: np.ndarray) -> np.ndarray:
    """[N, D] -> [D] by ``attsets_fc`` or a left-to-right GRU."""
    if kind == "attsets_fc":
        return (latents * attention_scores(p, latents)).sum(axis=0)
    if kind == "gru":
        h = np.zeros(latents.shape[1])
        for x in latents:
            z = _sigmoid(x @ p["att_Wz"] + h @ p["att_Uz"] + p["att_bz"][0])
            r = _sigmoid(x @ p["att_Wr"] + h @ p["att_Ur"] + p["att_br"][0])
            cand = np.tanh(x @ p["att_Wh"] + (r * h) @ p["att_Uh"] + p["att_bh"][0])
            h = (1.0 - z) * h + z * cand
        return h
    raise ValueError(f"no reference for aggregator {kind!r}")


def decode(p: dict, fused: np.ndarray, pattern: Pattern | None = None) -> np.ndarray:
    """[B, D] fused latents -> [B, G^3] occupancy probabilities."""
    h = _relu(fused @ p["dec_w1"] + p["dec_b1"], pattern)
    return _sigmoid(h @ p["dec_w2"] + p["dec_b2"])


def predict_probs(p: dict, kind: str, views: np.ndarray) -> np.ndarray:
    """One reconstruction from an [N, P] stack of views."""
    return decode(p, aggregate(p, kind, encode(p, views))[None, :])[0]


def bce(probs: np.ndarray, targets: np.ndarray, pattern: Pattern | None = None) -> float:
    q = np.clip(probs, BCE_EPS, 1.0 - BCE_EPS)
    if pattern is not None:
        q = np.where(pattern.gate((probs > BCE_EPS) & (probs < 1.0 - BCE_EPS)), probs, q)
    per = -(targets * np.log(q) + (1.0 - targets) * np.log(1.0 - q))
    return float(per.sum() / per.size)


def forward_loss(p: dict, kind: str, sets, pattern: Pattern | None = None) -> float:
    """Mean BCE of one training step over (views [N, P], target [G^3]) sets."""
    fused = np.stack([aggregate(p, kind, encode(p, views, pattern)) for views, _ in sets])
    targets = np.stack([t for _, t in sets]).astype(np.float64)
    return bce(decode(p, fused, pattern), targets, pattern)


def single_view_sets(batch):
    """Stage-1 decomposition: every drawn view is its own one-element set."""
    return [(views[i : i + 1], target) for views, target in batch for i in range(len(views))]


def central_difference(p: dict, kind: str, sets, name: str, index,
                       eps: float = 1e-5) -> float:
    """d loss / d p[name][index] by a symmetric difference of ``forward_loss``.

    Both points are evaluated with the gates of the unbumped pass held, so
    the quotient never straddles a ReLU or BCE-clamp kink: at a unit whose
    input is exactly 0 (an all-zero view at a zero bias) it gives the
    derivative with that unit inactive, as relu'(0) = 0 defines it."""
    pattern = Pattern()
    forward_loss(p, kind, sets, pattern)
    bumped = {k: v.copy() for k, v in p.items()}
    base = p[name][index]
    bumped[name][index] = base + eps
    hi = forward_loss(bumped, kind, sets, Pattern(pattern.gates))
    bumped[name][index] = base - eps
    lo = forward_loss(bumped, kind, sets, Pattern(pattern.gates))
    return (hi - lo) / (2.0 * eps)


def naive_iou(probs, gt, threshold: float) -> float:
    """|pred AND gt| / |pred OR gt| with pred = probs > threshold; 1.0 if both empty."""
    on = np.asarray(probs).reshape(-1) > threshold
    occupied = np.asarray(gt).reshape(-1) > 0.5
    union = int(np.sum(on | occupied))
    return 1.0 if union == 0 else int(np.sum(on & occupied)) / union


def naive_threshold_search(pairs) -> tuple[float, float]:
    """(threshold, mean IoU) maximizing mean IoU over (probs, gt) pairs;
    a later threshold wins only if strictly better, so ties go low."""
    best_t, best = None, -math.inf
    for t in THRESHOLDS:
        mean = sum(naive_iou(probs, gt, t) for probs, gt in pairs) / len(pairs)
        if mean > best:
            best_t, best = t, mean
    return best_t, best


def _ray_voxels(direction: int, a: int, b: int, g: int):
    """Voxels (x, y, z) a ray visits, in march order, for pixel cells (a, b)."""
    for s in range(g):
        if direction == 0:
            yield s, a, b
        elif direction == 1:
            yield g - 1 - s, a, b
        elif direction == 2:
            yield a, s, b
        elif direction == 3:
            yield a, g - 1 - s, b
        elif direction == 4:
            yield a, b, s
        elif direction == 5:
            yield a, b, g - 1 - s
        elif direction == 6:
            if a + s >= g:
                return
            yield a + s, s, b
        elif direction == 7:
            if a + s >= g:
                return
            yield a + s, b, s
        else:
            raise ValueError(f"no direction {direction}")


def march_depth(occ: np.ndarray, direction: int, image_side: int) -> np.ndarray:
    """Depth image: 1 - s/G at the first occupied step s of each ray, else 0."""
    g = occ.shape[0]
    cube = occ.reshape(g, g, g).tolist()
    image = np.zeros((image_side, image_side))
    for pa in range(image_side):
        for pb in range(image_side):
            a, b = pa * g // image_side, pb * g // image_side
            for s, (x, y, z) in enumerate(_ray_voxels(direction, a, b, g)):
                if cube[x][y][z]:
                    image[pa, pb] = 1.0 - s / g
                    break
    return image
