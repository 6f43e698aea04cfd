"""Machine-speed calibration for the end-to-end times.

The machine this benchmark was written on changes speed by up to 1.7x,
in spells from under a second to minutes, from load outside it. Raw wall
times therefore spread by 7-30% between runs of the same code. While a
pass runs, `SpeedProbe` interrupts it every INTERVAL_S of wall time and
times a fixed calibration kernel. The pass is charged its wall time minus
those interruptions, rescaled to the speed at which the kernel takes
REF_KERNEL_S per call. A change to gateflow does not move the kernel: it
is a frozen copy of one order-0 flow evaluation at L=150, written against
numpy only.
"""

import signal
import time

import numpy as np

# Reference speed: the kernel's time per call on the 2-core Xeon the
# benchmark was written on, in its fast spells. Any constant would do;
# this one makes rescaled times read close to that machine's unloaded
# wall times.
REF_KERNEL_S = 1.0e-3

INTERVAL_S = 0.25
CALLS_PER_PROBE = 20

# Fixed inputs; any Hermitian matrices give the same amount of work.
_H0 = np.diag([1.0, -0.5, 0.25, -0.75]).astype(complex)
_CONTROLS = np.sin(np.arange(32.0)).reshape(2, 4, 4) + 1j * np.cos(np.arange(32.0)).reshape(2, 4, 4)
_CONTROLS = _CONTROLS + _CONTROLS.conj().transpose(0, 2, 1)
_AMPS = np.sin(0.37 * np.arange(300.0)).reshape(2, 150)
_TARGET = np.eye(4, dtype=complex)


def kernel():
    """One flow evaluation's worth of work: slice Hamiltonians, batched
    eigh, step exponentials, the prefix loop and the trace contraction."""
    hams = _H0[None] + np.einsum("kl,kab->lab", _AMPS, _CONTROLS)
    lam, vecs = np.linalg.eigh(hams)
    steps = (vecs * np.exp(-0.03j * lam)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    prefixes = np.empty((151, 4, 4), dtype=complex)
    prefixes[0] = np.eye(4)
    for l in range(150):
        prefixes[l + 1] = steps[l] @ prefixes[l]
    a = _TARGET.conj().T @ prefixes[-1]
    w = prefixes[:150] @ a @ prefixes[:150].conj().transpose(0, 2, 1)
    return np.einsum("lij,kji->kl", w, _CONTROLS).imag


def kernel_seconds(calls):
    """Wall time of `calls` kernel calls, run back to back."""
    started = time.perf_counter()
    for _ in range(calls):
        kernel()
    return time.perf_counter() - started


def rescale(seconds, kernel_s, calls):
    """seconds at the reference speed, given that `calls` kernel calls
    took kernel_s around the same time."""
    return seconds * REF_KERNEL_S * calls / kernel_s


class SpeedProbe:
    """While active, times CALLS_PER_PROBE kernel calls every INTERVAL_S.

    Uses SIGALRM, so it must be entered from the main thread. `probe_s`
    accumulates the wall time spent in the probes, handler included.
    """

    def __init__(self):
        self.probes = 0
        self.kernel_s = 0.0
        self.probe_s = 0.0
        self._previous = None

    def _fire(self, signum, frame):
        entered = time.perf_counter()
        self.kernel_s += kernel_seconds(CALLS_PER_PROBE)
        self.probes += 1
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self.probe_s += time.perf_counter() - entered

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def calls(self):
        return self.probes * CALLS_PER_PROBE
