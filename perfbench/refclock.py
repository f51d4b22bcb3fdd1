"""Reference-normalised timing.

The host this benchmark is tuned on slows down by a shared factor of
15-25% over spans from under a second to minutes, with near-zero steal
time, so raw wall-clock throughput drifts between runs of identical code.
Timing a fixed reference kernel right before and right after each short
slice of program time, and dividing the slice by the mean of the two,
cancels most of that factor.  Slices must stay short (0.2 s or less): the
factor moves within half a second.

The reference kernel is owned by the benchmark and never changes with the
program.  It mixes the same kinds of small numpy calls the engine makes
(6x6 sandwiches, determinants of a small stack, three-operand einsums, a
6x6 eigvals), so both sides feel a slow-down about the same way.  Measured
on the 2-vCPU host, this mix tracked the program better than a pure-Python
loop or a sandwich/det/einsum-only kernel.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal duration of one reference call in seconds.  Normalised times are
# multiplied by it, so throughputs read in 1/s on a host where the
# reference takes exactly this long.  Fixed forever: changing it rescales
# every recorded throughput.
REF_NOMINAL_S = 0.010

_REF_REPS = 60


class ReferenceKernel:
    """Fixed numpy workload; inputs are built once from a fixed seed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20240917)
        a = rng.standard_normal((6, 6))
        self._a = np.eye(6) + 0.05 * (a - a.T)
        s = rng.standard_normal((6, 6))
        self._s = s @ s.T + 6.0 * np.eye(6)
        self._dets = rng.standard_normal((16, 4, 4)) + 3.0 * np.eye(4)
        self._mats = rng.standard_normal((8, 6, 6))
        self._interior = rng.standard_normal((4, 6, 6))
        self.sink = 0.0

    def __call__(self) -> float:
        """Run the kernel once and return its wall time in seconds."""
        a, s, dets, mats, interior = self._a, self._s, self._dets, self._mats, self._interior
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(_REF_REPS):
            s = a @ s @ a.T
            s = 0.5 * (s + s.T)
            acc += float(np.linalg.det(dets).sum())
            acc += float(np.einsum("ab,kbc,dc->kad", a, mats, a)[:, 0, 0].sum())
            acc += float(np.abs(np.linalg.eigvals(mats[0] @ s)).max())
            stages = np.einsum("nab,kbc,ndc->knad", interior, mats[:3], interior)
            acc += float(stages[0, 0, 0, 0])
        elapsed = time.perf_counter() - t0
        self.sink = acc + float(s[0, 0])
        return elapsed


class SliceClock:
    """Alternates reference calls with slices of program time.

    Every slice has a reference measured right before it and one right
    after it.  A slice that starts within STALE_S of the previous
    reference reuses it as its leading one; otherwise a fresh one is taken.
    `excluded` is the wall time spent in reference calls, so a tracer can
    read program time as perf_counter() - excluded.
    """

    STALE_S = 0.02

    def __init__(self, ref: ReferenceKernel) -> None:
        self._ref = ref
        self.refs: list[float] = []
        self.slices: list[float] = []
        self.lead: list[int] = []  # slice k sits between refs[lead[k]] and refs[lead[k] + 1]
        self.excluded = 0.0
        self._t0: float | None = None
        self._ref_end = -float("inf")

    def _measure_ref(self) -> None:
        t0 = time.perf_counter()
        self.refs.append(self._ref())
        self._ref_end = time.perf_counter()
        self.excluded += self._ref_end - t0

    def start(self) -> None:
        if self._t0 is not None:
            raise RuntimeError("slice already open")
        if time.perf_counter() - self._ref_end > self.STALE_S:
            self._measure_ref()
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        if self._t0 is None:
            raise RuntimeError("no open slice")
        self.slices.append(time.perf_counter() - self._t0)
        self._t0 = None
        self.lead.append(len(self.refs) - 1)
        self._measure_ref()

    def cut(self) -> None:
        """End the open slice and open the next one at once."""
        self.stop()
        self.start()

    def mark(self) -> int:
        return len(self.slices)

    def discard(self, mark: int) -> None:
        """Forget the slices recorded since `mark`; their unit failed."""
        if self._t0 is not None:
            self.stop()
        del self.slices[mark:]
        del self.lead[mark:]

    def normalised(self) -> list[float]:
        return normalise(self.slices, self.refs, self.lead)


def normalise(slices: list[float], refs: list[float], lead: list[int]) -> list[float]:
    """Each slice divided by the mean of the references on either side.

    Raises ValueError if any slice lacks a reference on both sides, so a
    broken hook can never yield unnormalised numbers.
    """
    if len(slices) != len(lead):
        raise ValueError(f"{len(slices)} slices but {len(lead)} leading references")
    out = []
    for k, (s, i) in enumerate(zip(slices, lead)):
        if not 0 <= i < len(refs) - 1:
            raise ValueError(f"slice {k} lacks a reference on both sides")
        out.append(s / (0.5 * (refs[i] + refs[i + 1])))
    return out


def throughput(units: float, normalised_slices: list[float]) -> float:
    """Units per nominal second: units over the rescaled normalised time."""
    total = sum(normalised_slices)
    if not total > 0.0:
        raise ValueError("no normalised program time recorded")
    return units / (total * REF_NOMINAL_S)


def median_ref_ms(refs: list[float]) -> float:
    return 1e3 * statistics.median(refs)
