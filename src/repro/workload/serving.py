"""The open-loop serving front-end: sessions, curves, admission, SLO.

This is the "million clients" tier of the ROADMAP north-star.  The
paper's harness is closed-loop (one client per node, next call after
the previous returns), which measures *capacity*; a serving tier is
open-loop — arrivals are decoupled from completions — which is what
exposes the latency-vs-load curve and the saturation knee.

Scalability comes from representing sessions as **data, not
processes**: a session is an integer id whose per-session state lives
in flat ``array`` slabs (one unsigned counter each), so a hundred
thousand — or a million — sessions cost a few megabytes and zero
scheduler pressure.  The only simulation process is the single
aggregate arrival generator (thinned Poisson over the session
population, :func:`arrival_instants`); an admitted request is a
callback on its node's reply, and a redirected one the only request
that runs a process of its own.

Admission control is SafarDB-flavoured: tenants are session groups
with a bounded number of outstanding requests each; an arrival beyond
its tenant's bound (or the global bound) is **shed with accounting**
(``dropped`` per tenant, ``dropped_arrivals`` on the run result)
rather than queued, which is what keeps an overloaded tier's latency
bounded instead of divergent.

Arrival-rate curves shape the offered load over the run.  Every curve
has mean 1.0 — ``offered_load_ops_per_us`` is always the *time-averaged*
aggregate rate — and a known peak factor used for Lewis thinning:
arrivals are drawn from a homogeneous Poisson process at the peak rate
and accepted with probability ``rate(phase)/peak``, which preserves
seeded determinism (one :class:`~repro.sim.SeedSequence` substream per
concern, the ``sim/faults.py`` idiom).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = [
    "ARRIVAL_CURVES",
    "SessionTier",
    "TenantStats",
    "arrival_instants",
    "curve_peak",
    "curve_rate",
]

#: The supported arrival-rate shapes.
ARRIVAL_CURVES = ("steady", "diurnal", "burst", "flash-crowd")

#: Square-wave window of the ``burst`` curve (phase fractions).
_BURST_WINDOW = (0.4, 0.6)
_BURST_HI = 3.0
_BURST_LO = 0.5  # 0.2*3.0 + 0.8*0.5 == 1.0 (mean stays the offered load)

#: Spike window of the ``flash-crowd`` curve.
_FLASH_WINDOW = (0.6, 0.7)
_FLASH_HI = 5.5
_FLASH_LO = 0.5  # 0.1*5.5 + 0.9*0.5 == 1.0

#: Diurnal modulation amplitude (day/night swing around the mean).
_DIURNAL_AMP = 0.8

#: The step curves as (window, high, low), for the candidate loop.
_STEPS = {
    "burst": (_BURST_WINDOW, _BURST_HI, _BURST_LO),
    "flash-crowd": (_FLASH_WINDOW, _FLASH_HI, _FLASH_LO),
}


def curve_rate(curve: str, phase: float) -> float:
    """Relative arrival-rate factor at ``phase`` in ``[0, 1)``.

    Each curve integrates to 1.0 over the run, so multiplying by the
    configured offered load gives an instantaneous rate whose time
    average is exactly that offered load.
    """
    if curve == "steady":
        return 1.0
    if curve == "diurnal":
        return 1.0 + _DIURNAL_AMP * math.sin(2.0 * math.pi * phase)
    if curve == "burst":
        lo, hi = _BURST_WINDOW
        return _BURST_HI if lo <= phase < hi else _BURST_LO
    if curve == "flash-crowd":
        lo, hi = _FLASH_WINDOW
        return _FLASH_HI if lo <= phase < hi else _FLASH_LO
    raise ValueError(
        f"unknown arrival curve {curve!r}; expected one of "
        f"{', '.join(ARRIVAL_CURVES)}"
    )


def curve_peak(curve: str) -> float:
    """The curve's maximum rate factor (the thinning envelope)."""
    if curve == "steady":
        return 1.0
    if curve == "diurnal":
        return 1.0 + _DIURNAL_AMP
    if curve == "burst":
        return _BURST_HI
    if curve == "flash-crowd":
        return _FLASH_HI
    raise ValueError(
        f"unknown arrival curve {curve!r}; expected one of "
        f"{', '.join(ARRIVAL_CURVES)}"
    )


def arrival_instants(random: Callable[[], float], curve: str,
                     offered_load: float, start: float,
                     duration: float) -> Iterator[float]:
    """The instants at which a run's arrivals wake the driver.

    Candidates are a homogeneous Poisson process at ``offered_load *
    curve_peak(curve)`` from ``start``; each is kept with probability
    ``rate(phase)/peak`` (Lewis thinning).  Yields every kept candidate
    before ``start + duration``, then the first candidate at or past it,
    and stops.  A thinned candidate costs two draws, no event and no
    function call: the curve is resolved into its shape once, and the
    loop computes :func:`curve_rate`'s float inline.

    ``random`` is the stream's ``Random.random``.  Per candidate it
    draws the exponential gap (``Random.expovariate``, inlined) and,
    for every curve but ``steady``, the thinning draw.  Instants are
    the running sum ``t + gap``: the floats a chain of relative timers
    reaches, which an absolute-time timer then hits exactly.
    """
    peak = curve_peak(curve)
    peak_rate = offered_load * peak
    thinning = peak > 1.0
    step = curve in _STEPS
    if step:
        (lo, hi), high, low = _STEPS[curve]
    amp = _DIURNAL_AMP
    two_pi = 2.0 * math.pi
    log = math.log
    sin = math.sin
    deadline = start + duration
    t = start
    while True:
        t += -log(1.0 - random()) / peak_rate
        if t >= deadline:
            yield t
            return
        if thinning:
            phase = (t - start) / duration
            if step:
                rate = high if lo <= phase < hi else low
            else:  # diurnal: the one thinned curve that is not a step
                rate = 1.0 + amp * sin(two_pi * phase)
            if random() * peak >= rate:
                continue
        yield t


@dataclass
class TenantStats:
    """One tenant's admission accounting (a row of the serving table)."""

    tenant: int
    sessions: int
    admitted: int
    dropped: int
    peak_outstanding: int

    @property
    def offered(self) -> int:
        return self.admitted + self.dropped

    @property
    def shed_fraction(self) -> float:
        offered = self.offered
        return self.dropped / offered if offered else 0.0


class SessionTier:
    """Array-backed session/tenant bookkeeping — no per-session objects.

    Sessions are dense integer ids.  Session ``s`` belongs to tenant
    ``s % n_tenants`` and is homed on node ``s % n_nodes`` (a static
    round-robin placement; real deployments would hash, but modulo
    keeps tests exact).  Per-session state is one unsigned issue
    counter in a flat slab; per-tenant state is four counters in flat
    slabs — memory is ``O(sessions + tenants)`` with constants of a few
    bytes, which is what makes six-figure session counts free.
    """

    __slots__ = (
        "n_sessions", "n_tenants", "n_nodes",
        "max_outstanding_per_tenant", "max_outstanding_total",
        "issued", "outstanding", "admitted", "dropped", "peak",
        "outstanding_total", "admitted_total", "dropped_total",
        "active_sessions",
    )

    def __init__(self, n_sessions: int, n_tenants: int, n_nodes: int,
                 max_outstanding_per_tenant: int,
                 max_outstanding_total: int = 0):
        if n_sessions <= 0:
            raise ValueError("need at least one session")
        if n_tenants <= 0 or n_tenants > n_sessions:
            raise ValueError(
                f"tenants must be in [1, sessions]; got {n_tenants} "
                f"over {n_sessions} sessions"
            )
        self.n_sessions = n_sessions
        self.n_tenants = n_tenants
        self.n_nodes = n_nodes
        self.max_outstanding_per_tenant = max_outstanding_per_tenant
        #: 0 disables the global cap (per-tenant caps still apply).
        self.max_outstanding_total = max_outstanding_total
        #: Per-session issued-request counters ("lightweight sessions").
        self.issued = array("I", bytes(4 * n_sessions))
        #: Per-tenant slabs.
        self.outstanding = array("i", bytes(4 * n_tenants))
        self.admitted = array("Q", bytes(8 * n_tenants))
        self.dropped = array("Q", bytes(8 * n_tenants))
        self.peak = array("i", bytes(4 * n_tenants))
        self.outstanding_total = 0
        self.admitted_total = 0
        self.dropped_total = 0
        #: Distinct sessions that issued at least one request.
        self.active_sessions = 0

    def admit(self, session: int) -> bool:
        """Admit or shed one arrival from ``session``.

        Sheds (returns False, with the drop accounted to the session's
        tenant) when the tenant's outstanding bound — or the global
        bound, when configured — is reached.
        """
        tenant = session % self.n_tenants
        outstanding = self.outstanding
        if outstanding[tenant] >= self.max_outstanding_per_tenant or (
            self.max_outstanding_total
            and self.outstanding_total >= self.max_outstanding_total
        ):
            self.dropped[tenant] += 1
            self.dropped_total += 1
            return False
        if not self.issued[session]:
            self.active_sessions += 1
        self.issued[session] += 1
        now_out = outstanding[tenant] + 1
        outstanding[tenant] = now_out
        if now_out > self.peak[tenant]:
            self.peak[tenant] = now_out
        self.admitted[tenant] += 1
        self.admitted_total += 1
        self.outstanding_total += 1
        return True

    def complete(self, session: int) -> None:
        """A previously admitted request finished."""
        tenant = session % self.n_tenants
        self.outstanding[tenant] -= 1
        self.outstanding_total -= 1

    def tenant_stats(self) -> list[TenantStats]:
        """Per-tenant admission accounting, tenant order."""
        n_tenants = self.n_tenants
        base, extra = divmod(self.n_sessions, n_tenants)
        return [
            TenantStats(
                tenant=t,
                sessions=base + (1 if t < extra else 0),
                admitted=self.admitted[t],
                dropped=self.dropped[t],
                peak_outstanding=self.peak[t],
            )
            for t in range(n_tenants)
        ]

    def stats(self) -> dict:
        """Tier-level rollup (JSON-friendly, for --stats and telemetry)."""
        return {
            "sessions": self.n_sessions,
            "active_sessions": self.active_sessions,
            "tenants": self.n_tenants,
            "admitted": self.admitted_total,
            "dropped": self.dropped_total,
            "outstanding": self.outstanding_total,
            "peak_outstanding_per_tenant": max(self.peak) if self.peak
            else 0,
            "max_outstanding_per_tenant": self.max_outstanding_per_tenant,
            "max_outstanding_total": self.max_outstanding_total,
        }
