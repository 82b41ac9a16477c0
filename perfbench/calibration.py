"""Reference seconds: program times scaled by the host's speed at the time.

The benchmark's host is a share of a machine whose speed changes by half
or more within seconds, depending on what else the machine runs, and the
change does not slow every kind of work alike.  So while a job runs, a
timer interrupts it every ``INTERVAL_S`` and times a probe: four short
fixed kernels, for interpreted code, passes over arrays, normal draws and
reads at random places.  A part's reference time over its mean time
during the job is the host's speed for that kind of work.  The job's time
in reference seconds is its own time, probes excluded, times the mean of
those speeds: about the time the job would take on the host where the
parts take their reference times.

The probes touch neither planarcrit nor its random streams, so they leave
the program's output alone (the benchmark checks this byte for byte), and
a change to the program moves reference seconds as much as raw ones.
"""

import contextlib
import signal
import time

import numpy as np

# Seconds between probes.
INTERVAL_S = 0.25

_RNG = np.random.default_rng(20220909)
_SHORT = _RNG.standard_normal(64)
_MEDIUM = _RNG.standard_normal(2_000)
_MATRIX = _RNG.standard_normal((48, 48))
_SPD = _MATRIX @ _MATRIX.T + 48.0 * np.eye(48)
_BIG = _RNG.standard_normal(1_000_000)  # 8 MB, more than a core's own caches hold
_BIG_OUT = np.empty_like(_BIG)
_DRAWS = np.empty(100_000)
_TABLE = _RNG.standard_normal(4_000_000)  # 32 MB, read at random places
_INDEX = _RNG.integers(0, _TABLE.size, 100_000)
_GATHERED = np.empty(_INDEX.size)


def _interpreted() -> None:
    """Python loops, numpy calls on short arrays, small linear algebra."""
    acc = 0.0
    for i in range(5_000):
        acc += (i * i) % 7
    for _ in range(3):
        acc += float(np.sort(np.exp(_MEDIUM) * np.sin(_MEDIUM))[-1])
        acc += float(np.linalg.solve(_SPD, _MATRIX[:, 0])[0])
        for _ in range(40):
            acc += float(np.hypot(_SHORT[:32], _SHORT[32:]).sum())


def _streaming() -> None:
    """Element-wise passes over arrays larger than a core's own caches."""
    np.multiply(_BIG, 1.0001, out=_BIG_OUT)
    np.add(_BIG_OUT, _BIG, out=_BIG_OUT)


def _drawing() -> None:
    """Normal draws from a generator of the probe's own."""
    np.random.default_rng(7).standard_normal(out=_DRAWS)


def _gathering() -> None:
    """Reads at random places in an array larger than a core's own caches."""
    np.take(_TABLE, _INDEX, out=_GATHERED)


# Each part of a probe with its reference time: its median wall (and CPU)
# seconds on the host the bounds were set on (2 vCPUs of an Intel Xeon at
# 2.0 GHz, numpy 2.4, one OpenBLAS thread).  No one part tracks every
# workload: while the host was busy, scaling followed the array parts best
# and triangle the interpreted part, so the parts weigh the same.
PARTS = {
    "interpreted": (_interpreted, 0.0016),
    "streaming": (_streaming, 0.0028),
    "drawing": (_drawing, 0.0021),
    "gathering": (_gathering, 0.0021),
}

# The probe's arrays, which the process's peak memory includes.
FOOTPRINT_MB = sum(a.nbytes for a in (_BIG, _BIG_OUT, _DRAWS, _TABLE, _INDEX, _GATHERED)) / 2**20


class Probe:
    """Probe times taken in this process, while ``running()`` is active."""

    def __init__(self) -> None:
        self.samples: list[dict] = []  # {part: (wall, cpu)} per probe

    def take(self, *_) -> None:
        sample = {}
        for name, (fn, _) in PARTS.items():
            t0, c0 = time.perf_counter(), time.process_time()
            fn()
            sample[name] = (time.perf_counter() - t0, time.process_time() - c0)
        self.samples.append(sample)

    @contextlib.contextmanager
    def running(self):
        """Probe now and every INTERVAL_S until the block ends."""
        previous = signal.signal(signal.SIGALRM, self.take)
        try:
            self.take()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def spent(self) -> tuple[float, float]:
        """Wall and CPU seconds the probes took."""
        wall = sum(w for sample in self.samples for w, _ in sample.values())
        cpu = sum(c for sample in self.samples for _, c in sample.values())
        return wall, cpu

    def means(self) -> dict:
        """Mean wall seconds of each part."""
        n = len(self.samples)
        return {name: sum(sample[name][0] for sample in self.samples) / n for name in PARTS}

    def scale(self) -> tuple[float, float]:
        """Wall and CPU factors from raw to reference seconds.

        A part's factor is its reference time over its mean probe time; the
        probe's factor is the mean of the parts' factors.
        """
        n = len(self.samples)
        factors = []
        for k in (0, 1):
            factors.append(sum(
                ref * n / sum(sample[name][k] for sample in self.samples)
                for name, (_, ref) in PARTS.items()
            ) / len(PARTS))
        return factors[0], factors[1]
