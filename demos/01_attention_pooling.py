"""Walk through the aggregation operators on a small feature set.

Builds a 4-element set of 6-dimensional features, fuses it with every
aggregator, and shows the two behaviors everything else in this library
builds on: reordering the set changes nothing except for the GRU, and the
attention scores form a per-slot distribution over the set.
"""

import numpy as np

from setfusion import SetBatch, Tensor, aggregate, aggregator_init

rng = np.random.default_rng(0)
x = rng.standard_normal((4, 6)).round(2)
one_set = SetBatch(Tensor(x))

print("feature set (4 elements, 6 features each):")
print(x, "\n")

for kind in ("attsets_fc", "attsets_elem", "max", "mean", "sum", "gru"):
    params = aggregator_init(kind, 6, seed=1)
    # give the attention variants something to say
    for w in params.weights.values():
        if kind.startswith("attsets"):
            w.data[:] = rng.standard_normal(w.shape) * 0.5
    y, scores = aggregate(one_set, params)

    perm = rng.permutation(4)
    y_perm, _ = aggregate(SetBatch(Tensor(x[perm])), params)
    drift = np.abs(y.data - y_perm.data).max()

    print(f"{kind:>12}:  output {np.round(y.data[0], 3)}")
    print(f"{'':>12}   max |change| under permutation: {drift:.2e}")
    if scores is not None:
        print(f"{'':>12}   attention column sums: {np.round(scores.sum(axis=0), 12)}")
    print()

print("note the GRU: it is the only aggregator above with a nonzero drift.")
