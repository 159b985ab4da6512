"""A fixed reference kernel that gauges how fast the host runs at the moment.

On a shared host the CPU slows for seconds to minutes at a time, long enough
for a whole run to fall into a slow spell.  Just before every timed pass and
set-up probe, run.py runs this kernel a few times and multiplies the time it
then measures by scale(): the ratio of REFERENCE_S to the kernel's fastest
time.  A slow spell stretches the kernel and the pass alike and cancels; a
change to circspec moves only the pass.  The kernel does not touch circspec:
it does a little of each kind of work a pass does (interpreted Python, a
dense complex LU factor, a dense Hermitian eigensolve, FFTs and large memory
copies) on fixed inputs, so it does the same work in every run.
"""

from __future__ import annotations

import time

# the kernel's fastest time on a calm host (2-vCPU Xeon virtual machine,
# scipy-openblas 0.3.31, one BLAS thread); scaled times are at this speed
REFERENCE_S = 0.09
# kernel runs per scale(); their fastest is the host speed of the moment
RUNS = 2

# built on first use, after run.py has read peak_rss_mb, so they do not count in it
_inputs = None


def _make_inputs():
    import numpy as np

    rng = np.random.default_rng(20230523)
    a = rng.standard_normal((600, 600)) + 1j * rng.standard_normal((600, 600))
    h = a[:340, :340] + a[:340, :340].conj().T
    return a, h, rng.standard_normal(1 << 16) + 0j, np.ones(1 << 21)


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    global _inputs
    import numpy as np
    import scipy.linalg

    if _inputs is None:
        _inputs = _make_inputs()
    a, h, signal, block = _inputs
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    scipy.linalg.lu_factor(a)
    np.linalg.eigvalsh(h)
    for _ in range(8):
        np.fft.ifft(np.fft.fft(signal))
    for _ in range(12):
        block.copy()
    return time.perf_counter() - start


def scale() -> float:
    """The factor that takes a time measured now to reference host speed."""
    return REFERENCE_S / min(kernel_s() for _ in range(RUNS))
