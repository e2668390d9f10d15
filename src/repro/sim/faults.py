"""Deterministic fault injection for chaos runs.

A :class:`FaultPlan` is a declarative, seeded schedule of faults:

* **scheduled** actions fire once at an absolute sim time — node
  ``crash`` / ``restart``, link ``partition`` / ``heal``, and the
  elastic-membership events ``join`` (scale-out: the target node is
  built, wired, and state-transferred into the running cluster) and
  ``leave`` (scale-in: fail-stop + unwire + epoch bump; removing a
  group leader forces a re-election);
* **window** actions arm a probabilistic fault over a time interval —
  one-sided RDMA op failure (``opfail``), message/op ``delay``,
  ``dup``\\ lication, message ``drop``, the silent-data-corruption
  classes: ``corrupt`` (bitflip ``k`` bytes of an in-flight one-sided
  write's payload, which still completes SUCCESS) and ``torn`` (land
  only a prefix of the write, then complete SUCCESS — modelling the
  non-atomicity of one-sided RDMA writes), and the *gray-failure*
  (fail-slow) classes: ``slow`` (every matched op's completion is
  stretched by a per-link latency multiplier ``mult`` plus uniform
  ``jitter_us`` — a congested link or limping NIC; the op still
  succeeds), ``flaky`` (intermittent stall bursts: the window's
  substream precomputes a deterministic burst schedule with duty cycle
  ``rate`` and mean burst length ``burst_us``, and ops inside a burst
  are stalled ``delay_us``), and ``cpuslow`` (the target node's CPU
  resource runs at fraction ``frac`` of full speed for the window —
  every poll/apply loop on that node slows down).  Corruption windows
  apply to RDMA *writes* only; the op completes successfully, so
  nothing at the sender ever notices — detection is entirely the
  receiver's (checksummed ring records, scrubber) problem.  Fail-slow
  windows never fail an op at all — detection is the adaptive failure
  detector's (phi accrual + latency EWMA) problem.

Window randomness draws from a per-window substream derived from the
plan seed (:class:`repro.sim.SeedSequence`), so the same plan over the
same workload produces a byte-identical fault schedule — chaos runs are
replayable and CI failures reproduce locally with ``--seed N`` or
``--faults PLAN``.

The :class:`FaultInjector` arms the plan against a live cluster by
installing hooks on the RDMA fabric (``fabric.fault_hook``) and the
message-passing network (``network.fault_hook``), and by scheduling the
one-shot actions on the sim clock.  Every injected fault is appended to
``injector.log`` and emitted through the runtime probe seam
(``probe.trace_fault``) so Chrome traces show faults inline with rule
events.

Selectors are resolved *at fire time*, not at plan-build time:

* ``node:p2`` — the named node;
* ``leader:0`` — the current leader of the 0th (sorted) sync group,
  falling back to the first node for conflict-free types with no
  sync groups;
* ``follower:0`` — the 0th non-leader node;
* ``minority:1`` — partition the last ``1`` node(s) away from the rest;
* ``*`` — any node / link (windows only).

Link windows additionally honor a ``direction``: ``"both"`` (default)
matches ops where the target is either endpoint, ``"in"`` only ops
*toward* the target (its RX path is congested), ``"out"`` only ops
*from* it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .rng import SeedSequence

__all__ = [
    "CORRUPTION_KINDS",
    "GRAY_KINDS",
    "GRAY_PLAN_NAMES",
    "MEMBERSHIP_PLAN_NAMES",
    "PLAN_NAMES",
    "SHARDED_PLAN_NAMES",
    "FaultAction",
    "FaultDecision",
    "FaultInjector",
    "FaultPlan",
    "resolve_plan",
]

#: One-shot actions fired at ``at_us`` on the sim clock.
SCHEDULED_KINDS = ("crash", "restart", "partition", "heal", "join", "leave")
#: Probabilistic actions armed over ``[at_us, until_us)``.
WINDOW_KINDS = (
    "opfail", "delay", "dup", "drop", "corrupt", "torn",
    "slow", "flaky", "cpuslow",
)
#: Window kinds that mutate an in-flight RDMA *write* payload.
CORRUPTION_KINDS = ("corrupt", "torn")
#: Gray-failure (fail-slow) window kinds: ops never fail, they limp.
GRAY_KINDS = ("slow", "flaky", "cpuslow")
#: Supported link/node selector shapes, for error messages.
_NODE_SELECTORS = "'node:<name>', 'leader:<k>', 'follower:<k>'"
_PARTITION_SELECTORS = (
    "'minority:<k>' or explicit sides 'a,b|c,d'"
)

#: The named plans exercised by the CI chaos matrix.
PLAN_NAMES = (
    "crash-leader",
    "partition-minority",
    "lossy-10pct",
    "delay-spike",
    "restart-follower",
    "corrupt-5pct",
    "torn-writes",
    "corrupt-crash",
)

#: Presets aimed at one *victim shard* of a sharded topology; the chaos
#: harness arms the injector against that shard's cluster only, so the
#: remaining shards see a perfectly healthy fabric.  Kept out of
#: :data:`PLAN_NAMES` so the single-cluster CI matrix is unchanged.
SHARDED_PLAN_NAMES = ("shard-isolate",)

#: Elastic-membership presets (checker-gated in CI): scale-out during a
#: live partition, and scale-in of the current conflict leader.  Kept
#: out of :data:`PLAN_NAMES` so the base chaos matrix is unchanged.
MEMBERSHIP_PLAN_NAMES = ("scale-out-partition", "scale-in-leader")

#: Gray-failure presets: a fail-slow leader and a flaky link.  These
#: exercise the peer-health tracker, hedged reads, and slow-leader
#: demotion; kept out of :data:`PLAN_NAMES` so the base matrix is
#: unchanged.
GRAY_PLAN_NAMES = ("gray-leader", "flaky-link")


@dataclass(frozen=True)
class FaultDecision:
    """What a hook told the transport to do to the current op.

    ``flips`` (``corrupt`` only) are ``(position, xor_mask)`` pairs to
    apply to the payload; ``cut`` (``torn`` only) is the number of
    payload bytes that actually land.  Both are drawn from the window's
    private substream at consult time, so the same seed mutates the
    same ops the same way.
    """

    kind: str  # opfail | delay | dup | drop | corrupt | torn | slow | flaky
    delay_us: float = 0.0
    flips: tuple = ()
    cut: int = 0

    def mutate(self, payload: bytes) -> bytes:
        """The bytes that actually land, after this decision."""
        if self.kind == "corrupt" and self.flips:
            mutated = bytearray(payload)
            for position, mask in self.flips:
                if position < len(mutated):
                    mutated[position] ^= mask
            return bytes(mutated)
        if self.kind == "torn":
            return payload[: self.cut]
        return payload


@dataclass(frozen=True)
class FaultAction:
    """One entry in a :class:`FaultPlan`.

    ``target`` is a selector (see module docstring).  For windows,
    ``rate`` is the per-op injection probability (for ``flaky``: the
    stall *duty cycle*) and ``ops`` optionally restricts the window to
    specific RDMA opcodes (``"write"``, ``"read"``,
    ``"compare_and_swap"``, ``"send"``); an empty ``ops`` matches
    everything.  ``k`` (``corrupt`` only) is how many payload bytes
    each injection bitflips.

    Gray-failure fields (serialized only when non-default, so existing
    plans keep byte-identical canonical JSON): ``mult`` and
    ``jitter_us`` shape a ``slow`` window's latency stretch,
    ``burst_us`` a ``flaky`` window's mean stall-burst length,
    ``frac`` a ``cpuslow`` node's remaining CPU speed fraction, and
    ``direction`` restricts a link window to inbound (``"in"``) or
    outbound (``"out"``) ops of the target.
    """

    at_us: float
    kind: str
    target: str = "*"
    until_us: float = 0.0
    rate: float = 0.0
    delay_us: float = 0.0
    ops: tuple = ()
    k: int = 1
    mult: float = 1.0
    jitter_us: float = 0.0
    burst_us: float = 0.0
    frac: float = 1.0
    direction: str = "both"

    def __post_init__(self):
        if self.kind not in SCHEDULED_KINDS + WINDOW_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}: supported scheduled "
                f"kinds are {SCHEDULED_KINDS} and window kinds "
                f"{WINDOW_KINDS}"
            )
        if self.kind in WINDOW_KINDS and self.until_us <= self.at_us:
            raise ValueError(
                f"{self.kind} window needs until_us > at_us "
                f"(got [{self.at_us}, {self.until_us}))"
            )
        if self.kind == "corrupt" and self.k < 1:
            raise ValueError("corrupt window needs k >= 1 bytes to flip")
        if self.direction not in ("both", "in", "out"):
            raise ValueError(
                f"direction must be 'both', 'in', or 'out' "
                f"(got {self.direction!r})"
            )
        if self.kind == "slow" and self.mult < 1.0:
            raise ValueError("slow window needs mult >= 1.0")
        if self.kind == "slow" and self.mult == 1.0 and self.jitter_us <= 0:
            raise ValueError(
                "slow window needs mult > 1.0 or jitter_us > 0 "
                "(otherwise it injects nothing)"
            )
        if self.kind == "flaky" and (self.burst_us <= 0 or self.delay_us <= 0):
            raise ValueError(
                "flaky window needs burst_us > 0 and delay_us > 0"
            )
        if self.kind == "cpuslow" and not (0.0 < self.frac < 1.0):
            raise ValueError(
                f"cpuslow window needs 0 < frac < 1 (got {self.frac})"
            )

    def is_window(self) -> bool:
        return self.kind in WINDOW_KINDS

    def to_dict(self) -> dict:
        out = {
            "at_us": self.at_us,
            "kind": self.kind,
            "target": self.target,
            "until_us": self.until_us,
            "rate": self.rate,
            "delay_us": self.delay_us,
            "ops": list(self.ops),
            "k": self.k,
        }
        # Gray-failure fields serialize only when non-default so plans
        # predating them keep byte-identical canonical JSON.
        if self.mult != 1.0:
            out["mult"] = self.mult
        if self.jitter_us != 0.0:
            out["jitter_us"] = self.jitter_us
        if self.burst_us != 0.0:
            out["burst_us"] = self.burst_us
        if self.frac != 1.0:
            out["frac"] = self.frac
        if self.direction != "both":
            out["direction"] = self.direction
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultAction":
        # Forward-compat guard: plans written by a newer repo (or by
        # hand) must fail loudly, naming the offending kind AND the
        # vocabulary this build supports — not surface a confusing
        # window-bounds error or, worse, misbehave downstream.
        kind = str(data["kind"])
        if kind not in SCHEDULED_KINDS + WINDOW_KINDS:
            raise ValueError(
                f"cannot deserialize fault action of unknown kind "
                f"{kind!r}: this build supports scheduled kinds "
                f"{SCHEDULED_KINDS} and window kinds {WINDOW_KINDS}"
            )
        return cls(
            at_us=float(data["at_us"]),
            kind=kind,
            target=str(data.get("target", "*")),
            until_us=float(data.get("until_us", 0.0)),
            rate=float(data.get("rate", 0.0)),
            delay_us=float(data.get("delay_us", 0.0)),
            ops=tuple(data.get("ops", ())),
            k=int(data.get("k", 1)),
            mult=float(data.get("mult", 1.0)),
            jitter_us=float(data.get("jitter_us", 0.0)),
            burst_us=float(data.get("burst_us", 0.0)),
            frac=float(data.get("frac", 1.0)),
            direction=str(data.get("direction", "both")),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative schedule of faults."""

    seed: int
    name: str = "custom"
    actions: tuple = ()

    def __post_init__(self):
        ordered = tuple(
            sorted(self.actions, key=lambda a: (a.at_us, a.kind, a.target))
        )
        object.__setattr__(self, "actions", ordered)

    # -- serialisation ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "name": self.name,
            "actions": [a.to_dict() for a in self.actions],
        }

    def to_json(self) -> str:
        """Canonical JSON: same plan ⇒ byte-identical text."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            seed=int(data["seed"]),
            name=str(data.get("name", "custom")),
            actions=tuple(
                FaultAction.from_dict(a) for a in data.get("actions", ())
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    # -- construction -------------------------------------------------

    @classmethod
    def from_seed(
        cls,
        seed: int,
        n_nodes: int = 4,
        horizon_us: float = 1000.0,
    ) -> "FaultPlan":
        """A randomized-but-deterministic plan: one crash/restart pair
        plus one window of each probabilistic fault class.
        """
        rng = SeedSequence(seed).derive("plan")
        names = [f"p{i + 1}" for i in range(n_nodes)]
        victim = rng.choice(names[1:])  # never the bootstrap node
        crash_at = rng.uniform(0.20, 0.40) * horizon_us
        restart_at = rng.uniform(0.55, 0.70) * horizon_us
        actions = [
            FaultAction(at_us=crash_at, kind="crash", target=f"node:{victim}"),
            FaultAction(
                at_us=restart_at, kind="restart", target=f"node:{victim}"
            ),
        ]
        for kind in ("opfail", "delay", "dup"):
            start = rng.uniform(0.05, 0.45) * horizon_us
            length = rng.uniform(0.10, 0.25) * horizon_us
            actions.append(
                FaultAction(
                    at_us=start,
                    kind=kind,
                    until_us=start + length,
                    rate=rng.uniform(0.02, 0.10),
                    delay_us=(
                        rng.uniform(5.0, 40.0) if kind == "delay" else 0.0
                    ),
                )
            )
        return cls(seed=seed, name=f"seed-{seed}", actions=tuple(actions))

    @classmethod
    def named(
        cls,
        name: str,
        seed: int = 0,
        n_nodes: int = 4,
        horizon_us: float = 1000.0,
    ) -> "FaultPlan":
        """One of the :data:`PLAN_NAMES` presets used by CI."""
        h = horizon_us
        if name == "crash-leader":
            actions = (
                FaultAction(at_us=0.25 * h, kind="crash", target="leader:0"),
                FaultAction(
                    at_us=0.65 * h, kind="restart", target="leader:0"
                ),
            )
        elif name == "partition-minority":
            actions = (
                FaultAction(
                    at_us=0.20 * h, kind="partition", target="minority:1"
                ),
                FaultAction(at_us=0.55 * h, kind="heal", target="*"),
            )
        elif name == "lossy-10pct":
            actions = (
                FaultAction(
                    at_us=0.10 * h,
                    kind="drop",
                    until_us=0.60 * h,
                    rate=0.10,
                ),
                FaultAction(
                    at_us=0.10 * h,
                    kind="opfail",
                    until_us=0.60 * h,
                    rate=0.10,
                    ops=("write", "read"),
                ),
            )
        elif name == "delay-spike":
            actions = (
                FaultAction(
                    at_us=0.15 * h,
                    kind="delay",
                    until_us=0.50 * h,
                    rate=0.25,
                    delay_us=60.0,
                ),
            )
        elif name == "restart-follower":
            actions = (
                FaultAction(
                    at_us=0.25 * h, kind="crash", target="follower:0"
                ),
                FaultAction(
                    at_us=0.55 * h, kind="restart", target="follower:0"
                ),
            )
        elif name == "corrupt-5pct":
            # Silent corruption: 5% of one-sided writes land with two
            # bitflipped payload bytes, completing SUCCESS.  Nothing at
            # the sender notices — checksummed rings must catch it.
            # The window opens early (0.02h): the data-plane write burst
            # is front-loaded in short CI runs, and the point of the
            # preset is to corrupt *records*, not just late acks.
            actions = (
                FaultAction(
                    at_us=0.02 * h,
                    kind="corrupt",
                    until_us=0.60 * h,
                    rate=0.05,
                    ops=("write",),
                    k=2,
                ),
            )
        elif name == "torn-writes":
            # Non-atomic one-sided writes: 5% land only a prefix, then
            # complete SUCCESS — half a record (or half an ack) is in
            # the remote region and the writer believes it all arrived.
            actions = (
                FaultAction(
                    at_us=0.02 * h,
                    kind="torn",
                    until_us=0.60 * h,
                    rate=0.05,
                    ops=("write",),
                ),
            )
        elif name == "shard-isolate":
            # Isolate one shard of a sharded topology: partition a
            # minority inside the victim shard, crash the txn
            # coordinator's conflict leader there *while the partition
            # is still up*, bring it back, then heal.  Commuting txns on
            # the *other* shards must keep committing throughout — the
            # isolation claim of commutativity-driven cross-shard
            # commits.  The overlap is deliberate: a minority node
            # partitioned across a leader change used to permanently
            # miss L-ring records (it kept trusting the stale leader's
            # write permission); the authoritative state-transfer rejoin
            # path closes that gap, and this preset keeps it closed.
            actions = (
                FaultAction(
                    at_us=0.20 * h, kind="partition", target="minority:1"
                ),
                FaultAction(at_us=0.30 * h, kind="crash", target="leader:0"),
                FaultAction(
                    at_us=0.60 * h, kind="restart", target="leader:0"
                ),
                FaultAction(at_us=0.65 * h, kind="heal", target="*"),
            )
        elif name == "scale-out-partition":
            # Scale-out under fire: a minority node is partitioned away,
            # a brand-new node joins mid-partition (its authoritative
            # state transfer must pick live sources), then the fabric
            # heals.  Both the joiner and the partitioned node must
            # converge to the same state as the majority.
            actions = (
                FaultAction(
                    at_us=0.15 * h, kind="partition", target="minority:1"
                ),
                FaultAction(
                    at_us=0.30 * h, kind="join",
                    target=f"node:p{n_nodes + 1}",
                ),
                FaultAction(at_us=0.55 * h, kind="heal", target="*"),
            )
        elif name == "scale-in-leader":
            # Scale-in the current conflict leader: the membership epoch
            # bumps, remaining nodes elect a fresh leader, and the run
            # must converge without the departed node (which the
            # checkers excuse from convergence after its member_leave).
            actions = (
                FaultAction(at_us=0.35 * h, kind="leave", target="leader:0"),
            )
        elif name == "corrupt-crash":
            # Silent corruption compounded with a follower crash and
            # supervised rejoin: the rejoining node repairs its rings
            # from copies that were themselves under bitflip fire.
            actions = (
                FaultAction(
                    at_us=0.02 * h,
                    kind="corrupt",
                    until_us=0.60 * h,
                    rate=0.04,
                    ops=("write",),
                    k=1,
                ),
                FaultAction(
                    at_us=0.30 * h, kind="crash", target="follower:0"
                ),
                FaultAction(
                    at_us=0.60 * h, kind="restart", target="follower:0"
                ),
            )
        elif name == "gray-leader":
            # Fail-slow leader: every RDMA op touching the group-0
            # leader — either direction, as a degraded NIC slows both
            # its RX and TX paths — is stretched 12x (plus jitter) for
            # most of the run.  The victim never *fails* an op and its
            # heartbeat counter keeps advancing, so heartbeat silence
            # never trips while the leader's replication fan-out limps
            # and conflicting calls queue behind it.  The peer-health
            # tracker must classify the leader degraded from one-sided
            # op latency and demote it.
            actions = (
                FaultAction(
                    at_us=0.10 * h,
                    kind="slow",
                    target="leader:0",
                    until_us=0.70 * h,
                    rate=1.0,
                    mult=12.0,
                    jitter_us=4.0,
                ),
            )
        elif name == "flaky-link":
            # Flaky NIC: ops touching the victim node stall in
            # intermittent bursts (duty cycle ``rate``, mean burst
            # ``burst_us``, stall ``delay_us``) — the in-between gaps
            # keep a fixed-timeout detector happy while tail latency
            # craters.  Exercises phi accrual over irregular arrivals
            # and hedged reads around the flapping source.
            actions = (
                FaultAction(
                    at_us=0.10 * h,
                    kind="flaky",
                    target=f"node:p{n_nodes}",
                    until_us=0.65 * h,
                    rate=0.5,
                    burst_us=25.0,
                    delay_us=30.0,
                ),
            )
        else:
            raise ValueError(
                f"unknown plan {name!r}; expected one of "
                f"{PLAN_NAMES + SHARDED_PLAN_NAMES + MEMBERSHIP_PLAN_NAMES + GRAY_PLAN_NAMES}"
            )
        return cls(seed=seed, name=name, actions=actions)

    def scaled(self, factor: float) -> "FaultPlan":
        """The same plan with every timestamp scaled by ``factor``."""
        return FaultPlan(
            seed=self.seed,
            name=self.name,
            actions=tuple(
                replace(
                    a,
                    at_us=a.at_us * factor,
                    until_us=a.until_us * factor,
                )
                for a in self.actions
            ),
        )

    def horizon_us(self) -> float:
        """Sim time after which the plan injects nothing further."""
        horizon = 0.0
        for a in self.actions:
            horizon = max(horizon, a.at_us, a.until_us)
        return horizon


class FaultInjector:
    """Arms a :class:`FaultPlan` against a live cluster.

    One injector serves one run.  ``log`` records every injected fault
    as ``(sim_us, kind, target)`` tuples, in injection order — with a
    fixed seed and workload the log is identical across runs.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.log: list = []
        self.cluster = None
        self.env = None
        seq = SeedSequence(plan.seed)
        # One private substream per window so windows never perturb
        # each other's draws.  ``cpuslow`` windows are not consulted
        # per-op — they are scheduled as engage/restore pairs in
        # :meth:`arm` — so they stay out of the hook list; flaky
        # windows precompute their whole burst schedule from the
        # substream up front, so consults are draw-free.
        self._windows = []
        for i, action in enumerate(plan.actions):
            if not action.is_window() or action.kind == "cpuslow":
                continue
            rng = seq.derive(f"window:{i}")
            bursts = (
                self._burst_schedule(action, rng)
                if action.kind == "flaky" else ()
            )
            self._windows.append(
                (i, action, rng, bursts, [b[0] for b in bursts])
            )
        #: Gray-window emission rate limiting: slow/flaky/cpuslow fire
        #: per *op*, which would bloat traces — note each (window, link)
        #: / (window, burst) once instead.
        self._noted: set = set()
        #: id(action) -> slowed CPU resources, so the restore hits the
        #: same CPUs even if a ``leader:`` selector resolves elsewhere
        #: by then.
        self._cpu_slowed: dict = {}
        #: window idx -> node name: gray windows with role selectors
        #: (``leader:k``/``follower:k``) pin their victim at window
        #: OPEN.  A fail-slow NIC is a property of the box, not of the
        #: leadership role — without the pin, demoting the slow leader
        #: would teleport the fault onto its successor and no
        #: mitigation could ever help.
        self._pinned: dict = {}
        self._fabric_cfg = None
        self._net_cfg = None

    @staticmethod
    def _burst_schedule(action: FaultAction, rng) -> list:
        """Deterministic ``(start, end)`` stall bursts for a flaky
        window: duty cycle ``rate``, mean burst length ``burst_us``,
        gaps sized so the duty cycle holds in expectation.  All draws
        happen here, at construction — consults are pure lookups.
        """
        duty = min(max(action.rate, 0.01), 0.95)
        mean_gap = action.burst_us * (1.0 - duty) / duty
        bursts = []
        t = action.at_us
        while True:
            start = t + mean_gap * rng.uniform(0.5, 1.5)
            if start >= action.until_us:
                break
            length = action.burst_us * rng.uniform(0.5, 1.5)
            bursts.append((start, min(start + length, action.until_us)))
            t = start + length
        return bursts

    # -- arming -------------------------------------------------------

    def arm(self, cluster) -> "FaultInjector":
        self.cluster = cluster
        self.env = cluster.env
        fabric = getattr(cluster, "fabric", None)
        if fabric is not None:
            fabric.fault_hook = self._rdma_hook
            self._fabric_cfg = fabric.config
        network = getattr(cluster, "network", None)
        if network is not None:
            network.fault_hook = self._msg_hook
            self._net_cfg = network.config
        for action in self.plan.actions:
            if action.kind == "cpuslow":
                # A window on the sim clock, not the op stream: engage
                # at open, restore at close.
                self.env.call_later(
                    max(0.0, action.at_us - self.env.now),
                    lambda a=action: self._cpu_slow_engage(a),
                )
                self.env.call_later(
                    max(0.0, action.until_us - self.env.now),
                    lambda a=action: self._cpu_slow_restore(a),
                )
            elif not action.is_window():
                self.env.call_later(
                    max(0.0, action.at_us - self.env.now),
                    lambda a=action: self._execute(a),
                )
        for i, action, _rng, _bursts, _starts in self._windows:
            if (action.kind in GRAY_KINDS and action.target != "*"
                    and not action.target.startswith("node:")):
                self.env.call_later(
                    max(0.0, action.at_us - self.env.now),
                    lambda i=i, a=action: self._pin_target(i, a),
                )
        return self

    def _pin_target(self, idx: int, action: FaultAction) -> None:
        """Freeze a gray window's role selector to a concrete node."""
        try:
            self._pinned[idx] = self._resolve_node(action.target)
        except ValueError:
            pass  # unresolvable now: fall back to per-consult resolution

    def horizon_us(self) -> float:
        return self.plan.horizon_us()

    def counts(self) -> dict:
        """Injection counts by fault kind (for summaries and tests)."""
        out: dict = {}
        for _t, kind, _target in self.log:
            out[kind] = out.get(kind, 0) + 1
        return out

    # -- hooks --------------------------------------------------------

    def _rdma_hook(
        self, op: str, src: str, dst: str, nbytes: int
    ) -> Optional[FaultDecision]:
        """Consulted by the fabric for every one-sided op and send."""
        return self._consult(op, src, dst, nbytes, drop_ok=False)

    def _msg_hook(
        self, src: str, dst: str, nbytes: int
    ) -> Optional[FaultDecision]:
        """Consulted by the message-passing network for every send."""
        return self._consult("send", src, dst, nbytes, drop_ok=True)

    def _consult(
        self, op: str, src: str, dst: str, nbytes: int, drop_ok: bool
    ) -> Optional[FaultDecision]:
        now = self.env.now
        for idx, action, rng, bursts, burst_starts in self._windows:
            if not (action.at_us <= now < action.until_us):
                continue
            if action.kind == "drop" and not drop_ok:
                continue
            if action.kind in CORRUPTION_KINDS and (
                op != "write" or nbytes == 0
            ):
                continue  # only one-sided write payloads can land wrong
            if action.ops and op not in action.ops:
                continue
            if not self._link_matches(idx, action, src, dst):
                continue
            if action.kind == "flaky":
                # Duty cycle, not per-op probability: stall iff the op
                # falls inside a precomputed burst.  No draws here.
                burst = self._burst_index(bursts, burst_starts, now)
                if burst is None:
                    continue
                self._note(
                    ("flaky", idx, burst), "flaky", dst,
                    f"burst {burst}: {op}:{src}->{dst} "
                    f"stalled {action.delay_us:.0f}us",
                    probe_at=src,
                )
                return FaultDecision("flaky", delay_us=action.delay_us)
            if rng.random() >= action.rate:
                continue
            if action.kind == "slow":
                base = self._slow_base_us(nbytes, drop_ok)
                extra = (action.mult - 1.0) * base
                if action.jitter_us > 0:
                    extra += rng.uniform(0.0, action.jitter_us)
                self._note(
                    ("slow", idx, src, dst), "slow", dst,
                    f"{op}:{src}->{dst} stretched {action.mult:.1f}x",
                    probe_at=src,
                )
                return FaultDecision("slow", delay_us=extra)
            self._emit(action.kind, dst, f"{op}:{src}->{dst}", probe_at=src)
            if action.kind == "corrupt":
                flips = tuple(
                    (rng.randrange(nbytes), 1 << rng.randrange(8))
                    for _ in range(max(1, action.k))
                )
                return FaultDecision("corrupt", flips=flips)
            if action.kind == "torn":
                cut = rng.randrange(1, nbytes) if nbytes > 1 else 0
                return FaultDecision("torn", cut=cut)
            return FaultDecision(action.kind, delay_us=action.delay_us)
        return None

    @staticmethod
    def _burst_index(bursts, burst_starts, now) -> Optional[int]:
        import bisect

        i = bisect.bisect_right(burst_starts, now) - 1
        if i >= 0 and bursts[i][0] <= now < bursts[i][1]:
            return i
        return None

    def _slow_base_us(self, nbytes: int, drop_ok: bool) -> float:
        """The op's nominal network latency, so ``mult`` stretches what
        the link would actually have cost."""
        if drop_ok:
            cfg = self._net_cfg
            if cfg is None:
                return 1.0
            return cfg.wire_us + cfg.byte_us * nbytes
        cfg = self._fabric_cfg
        if cfg is None:
            return 1.0
        return cfg.wire_us + cfg.ack_us + cfg.tx_time(nbytes)

    def _link_matches(self, idx: int, action: FaultAction,
                      src: str, dst: str) -> bool:
        target = action.target
        if target == "*":
            return True
        if target.startswith("node:"):
            name = target.split(":", 1)[1]
        elif idx in self._pinned:
            # Gray windows: the victim was frozen at window open (a
            # slow NIC does not follow a leadership change).
            name = self._pinned[idx]
        else:
            # leader:/follower: resolved at consult time
            try:
                name = self._resolve_node(target)
            except ValueError:
                return False
        if action.direction == "in":
            return dst == name
        if action.direction == "out":
            return src == name
        return src == name or dst == name

    # -- cpuslow windows ----------------------------------------------

    def _cpu_slow_engage(self, action: FaultAction) -> None:
        try:
            name = self._resolve_node(action.target)
        except ValueError:
            return
        cpus = self._cpus_of(name)
        if not cpus:
            return
        self._cpu_slowed[id(action)] = cpus
        for cpu in cpus:
            cpu.speed = action.frac
        self._emit(
            "cpuslow", name,
            f"{action.target} cpu at {action.frac:.2f}x until "
            f"{action.until_us:.0f}us",
        )

    def _cpu_slow_restore(self, action: FaultAction) -> None:
        for cpu in self._cpu_slowed.pop(id(action), ()):
            cpu.speed = 1.0

    def _cpus_of(self, name: str) -> list:
        cpus = []
        fabric = getattr(self.cluster, "fabric", None)
        if fabric is not None and name in getattr(fabric, "nodes", {}):
            cpus.append(fabric.nodes[name].cpu)
        network = getattr(self.cluster, "network", None)
        if network is not None and name in getattr(network, "hosts", {}):
            cpus.append(network.hosts[name].cpu)
        return cpus

    def _note(
        self,
        key: tuple,
        kind: str,
        target: str,
        detail: str,
        probe_at: Optional[str] = None,
    ) -> None:
        """Emit once per ``key`` — gray windows fire per op and would
        otherwise flood the trace with fault events."""
        if key in self._noted:
            return
        self._noted.add(key)
        self._emit(kind, target, detail, probe_at=probe_at)

    # -- scheduled actions --------------------------------------------

    def _execute(self, action: FaultAction) -> None:
        cluster = self.cluster
        if action.kind == "partition":
            sides = self._resolve_partition(action.target)
            cluster.partition(*sides)
            self._emit("partition", action.target, "|".join(
                ",".join(side) for side in sides
            ))
        elif action.kind == "heal":
            cluster.heal()
            self._emit("heal", "*", "all links restored")
        elif action.kind == "crash":
            name = self._resolve_node(action.target)
            cluster.crash(name)
            self._emit("crash", name, f"{action.target} crashed")
        elif action.kind == "restart":
            name = self._resolve_node(action.target)
            cluster.restart(name)
            self._emit("restart", name, f"{action.target} restarted")
        elif action.kind == "join":
            # The joiner does not exist yet, so the target must be a
            # literal node name — selectors cannot resolve to it.
            if not action.target.startswith("node:"):
                raise ValueError(
                    f"join target must be 'node:<name>', "
                    f"got {action.target!r}"
                )
            name = action.target.split(":", 1)[1]
            cluster.add_node(name)
            self._emit("join", name, f"{name} joined (scale-out)")
        elif action.kind == "leave":
            name = self._resolve_node(action.target)
            cluster.remove_node(name)
            self._emit("leave", name, f"{action.target} left (scale-in)")

    def _names(self) -> list:
        return sorted(self.cluster.nodes.keys())

    def _resolve_node(self, target: str) -> str:
        """Resolve a node selector *at fire time*."""
        names = self._names()
        if target.startswith("node:"):
            name = target.split(":", 1)[1]
            if name not in names:
                raise ValueError(f"unknown node {name!r}")
            return name
        if target.startswith("leader:") or target.startswith("follower:"):
            which, _, idx_s = target.partition(":")
            idx = int(idx_s)
            leader = self._current_leader(idx if which == "leader" else 0)
            if which == "leader":
                return leader
            followers = [n for n in names if n != leader]
            return followers[idx % len(followers)]
        raise ValueError(
            f"unresolvable node selector {target!r}: expected one of "
            f"{_NODE_SELECTORS}"
        )

    def _current_leader(self, group_index: int) -> str:
        names = self._names()
        observer = self.cluster.nodes[names[0]]
        conflict = getattr(observer, "conflict", None)
        gids = sorted(getattr(conflict, "mu_groups", {}) or ())
        if not gids:
            return names[0]  # conflict-free type: no sync groups
        gid = gids[group_index % len(gids)]
        leader = conflict.leader_of(gid)
        return leader if leader in names else names[0]

    def _resolve_partition(self, target: str):
        names = self._names()
        if target.startswith("minority:"):
            k = int(target.split(":", 1)[1])
            k = max(1, min(k, len(names) - 1))
            return (names[-k:], names[:-k])
        if "|" in target:
            left, right = target.split("|", 1)
            return (
                [n for n in left.split(",") if n],
                [n for n in right.split(",") if n],
            )
        raise ValueError(
            f"unresolvable partition selector {target!r}: expected "
            f"{_PARTITION_SELECTORS}"
        )

    # -- trace emission -----------------------------------------------

    def _emit(
        self,
        kind: str,
        target: str,
        detail: str,
        probe_at: Optional[str] = None,
    ) -> None:
        self.log.append((self.env.now, kind, target))
        node = None
        if self.cluster is not None:
            nodes = self.cluster.nodes
            node = nodes.get(probe_at or target)
            if node is None and nodes:
                node = nodes[sorted(nodes)[0]]
        probe = getattr(node, "probe", None)
        if probe is not None:
            probe.trace_fault(kind, target, detail)


def resolve_plan(
    spec: Optional[str],
    seed: Optional[int],
    n_nodes: int,
    horizon_us: float = 1000.0,
    is_file: Optional[Callable[[str], bool]] = None,
) -> FaultPlan:
    """Resolve a CLI-style plan spec: named preset, JSON file, or seed."""
    import os

    if is_file is None:
        is_file = os.path.isfile
    if spec is not None:
        if (spec in PLAN_NAMES or spec in SHARDED_PLAN_NAMES
                or spec in MEMBERSHIP_PLAN_NAMES
                or spec in GRAY_PLAN_NAMES):
            return FaultPlan.named(
                spec,
                seed=seed if seed is not None else 0,
                n_nodes=n_nodes,
                horizon_us=horizon_us,
            )
        if is_file(spec):
            return FaultPlan.from_file(spec)
        raise ValueError(
            f"--faults {spec!r} is neither a named plan "
            f"{PLAN_NAMES + SHARDED_PLAN_NAMES + MEMBERSHIP_PLAN_NAMES + GRAY_PLAN_NAMES} "
            f"nor a JSON file"
        )
    if seed is not None:
        return FaultPlan.from_seed(seed, n_nodes=n_nodes, horizon_us=horizon_us)
    raise ValueError("chaos needs --faults PLAN or --seed N")
