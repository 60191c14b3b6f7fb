"""Pin the BLAS to one thread before numpy loads, as the benchmark does.

Adam's shares, the shares of a large product and of the threshold counts,
and a matmul's two backward products then run side by side on the CPUs
the BLAS leaves free (``tensor.side_by_side``), so the full-scale runs of
the acceptance and golden-bits tests take those paths. A
thread count already set in the environment is kept.
"""

import errno
import os

import pytest

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def disk_fills(monkeypatch):
    """``disk_fills(n)`` makes every later file that the library's writers
    open raise ``OSError(ENOSPC)`` once ``n`` writes in all have gone
    through, as a disk that fills up would."""
    import builtins

    from setfusion import model

    def arm(n):
        count = [0]

        class Filling:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                if count[0] == n:
                    raise OSError(errno.ENOSPC, "No space left on device")
                count[0] += 1
                return self.f.write(data)

        monkeypatch.setattr(model, "open", lambda *a, **k: Filling(builtins.open(*a, **k)),
                            raising=False)

    return arm
