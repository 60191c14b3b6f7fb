"""Show why the two-stage schedule exists: the attention weights get
exactly zero gradient on one-element sets and a real gradient on larger
sets, verified against the finite-difference oracle.
"""

import numpy as np

from setfusion import AggregatorParams, SetBatch, Tensor, aggregate, finite_diff_grad
from setfusion.tensor import Tape, ew_binary, reduce_sum, reshape

rng = np.random.default_rng(7)
d = 5
probe = Tensor(rng.standard_normal(d))  # random linear readout of the output


def loss_for(x, w):
    y, _ = aggregate(SetBatch(Tensor(x)), AggregatorParams("attsets_fc", {"W": w}))
    return reduce_sum(ew_binary("mul", reshape(y, [d]), probe), 0)


for n in (1, 2, 6):
    x = rng.standard_normal((n, d))
    w = Tensor(rng.standard_normal((d, d)) * 0.4, requires_grad=True)
    with Tape() as tape:
        tape.backward(loss_for(x, w))
    tape_grad = w.grad.reshape(d, d)
    oracle = finite_diff_grad(lambda t: loss_for(x, t), w).data
    print(f"set size N={n}:")
    print(f"  tape   max |dL/dW| = {np.abs(tape_grad).max():.3e}")
    print(f"  oracle max |dL/dW| = {np.abs(oracle).max():.3e}")
    print(f"  max |tape - oracle| = {np.abs(tape_grad - oracle).max():.3e}\n")

print("at N=1 the attention weights cannot move no matter the optimizer;")
print("training them therefore needs multi-element sets (stage 2), while")
print("the encoder-decoder can be trained on single views (stage 1).")
