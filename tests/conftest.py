"""Pin the BLAS to one thread before numpy loads, as the benchmark does.

Adam's shares, the shares of a large product and of the threshold counts,
and a matmul's two backward products then run side by side on the CPUs
the BLAS leaves free (``tensor.side_by_side``), so the full-scale runs of
the acceptance and golden-bits tests take those paths. A
thread count already set in the environment is kept.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
