"""Perceptual quality scoring: packet outcomes -> E-model R-factor -> MOS.

The paper motivates WRT-Ring with QoS for *applications* (voice,
multimedia), but deadline-miss ratios are a network-side abstraction.  This
module closes the gap with the standard telephony pipeline (ITU-T G.107
E-model, simplified to the terms our simulation can feed):

1. **Per-packet outcomes.**  A :class:`PerceptualScorer` subscribes to the
   delivery/drop events on a network's bus and classifies every packet of
   its registered flows: delivered on time, delivered *late* (past its
   deadline — a real-time receiver has already played silence, so late
   counts as lost), or destroyed.  Packets still unresolved when the flow
   is finalized count as lost once their deadline has passed; unresolved
   packets whose deadline has *not* yet passed (in flight when the
   measurement window closed) are censored — excluded from scoring — so a
   finite horizon doesn't punish the tail of an otherwise clean flow.

2. **Loss-burst run lengths.**  Outcomes are ordered by packet creation
   and folded into loss-run statistics; the E-model's burst ratio
   ``BurstR = mean_burst_len * (1 - p)`` (clamped to >= 1) captures how
   much worse clustered loss sounds than independent loss at the same rate.

3. **R-factor and MOS.**  ``R = 93.2 - Id(d) - Ie_eff`` with the delay
   impairment ``Id(d) = 0.024 d + 0.11 (d - 177.3) H(d - 177.3)`` (d = mean
   one-way delay in ms of the on-time packets) and the G.711 packet-loss
   impairment ``Ie_eff = (95 - Ie) * Ppl / (Ppl / BurstR + Bpl)`` (Ie = 0,
   Bpl = 4.3, Ppl in percent).  R maps to MOS through the usual cubic,
   clamped to [1.0, 4.5].

Determinism contract: scores are computed from event payloads and packet
lifecycle fields only — never from process-global identifiers (``pid`` and
``flow_id`` differ between two runs in the same process), so summaries stay
byte-identical from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.events.types import PacketLost, PacketOrphaned, SlotDeliver

__all__ = ["FlowScore", "PerceptualScorer", "loss_runs", "burst_ratio",
           "e_model_r", "mos_from_r", "score_outcomes",
           "DEFAULT_MOS_FLOOR", "G711_BPL"]

#: "acceptable" telephony threshold: MOS 3.5 ~ R 70 (G.107 Annex B)
DEFAULT_MOS_FLOOR = 3.5
#: G.711 packet-loss robustness factor (ITU-T G.113 Appendix I)
G711_BPL = 4.3


# ----------------------------------------------------------------------
# the E-model pipeline (pure functions, unit-testable in isolation)
# ----------------------------------------------------------------------
def loss_runs(outcomes: List[bool]) -> List[int]:
    """Lengths of the consecutive-loss runs in an outcome sequence
    (``True`` = delivered on time, ``False`` = lost/late)."""
    runs: List[int] = []
    current = 0
    for ok in outcomes:
        if ok:
            if current:
                runs.append(current)
            current = 0
        else:
            current += 1
    if current:
        runs.append(current)
    return runs


def burst_ratio(outcomes: List[bool]) -> float:
    """E-model BurstR: mean loss-run length relative to the expected run
    length under independent loss at the same rate (``1 / (1 - p)``), i.e.
    ``mean_run * (1 - p)``.  1.0 for independent (or no) loss; > 1 when
    losses cluster.  Clamped to >= 1 so sparse samples can't *reward*
    loss."""
    if not outcomes:
        return 1.0
    runs = loss_runs(outcomes)
    if not runs:
        return 1.0
    p = sum(runs) / len(outcomes)
    if p >= 1.0:
        return float(len(outcomes))
    mean_run = sum(runs) / len(runs)
    return max(1.0, mean_run * (1.0 - p))


def e_model_r(loss_pct: float, burst_r: float = 1.0, delay_ms: float = 0.0,
              ie: float = 0.0, bpl: float = G711_BPL) -> float:
    """Simplified G.107 rating: ``R = 93.2 - Id(delay) - Ie_eff(loss)``.

    ``loss_pct`` is the effective packet loss in **percent** (late packets
    already folded in by the caller); ``delay_ms`` the mean one-way delay
    in milliseconds.
    """
    if loss_pct < 0 or burst_r <= 0:
        raise ValueError(f"invalid loss {loss_pct!r} / burst {burst_r!r}")
    id_delay = 0.024 * delay_ms
    if delay_ms > 177.3:
        id_delay += 0.11 * (delay_ms - 177.3)
    ie_eff = ie + (95.0 - ie) * loss_pct / (loss_pct / burst_r + bpl)
    return 93.2 - id_delay - ie_eff


def mos_from_r(r: float) -> float:
    """ITU-T G.107 Annex B mapping, clamped to the MOS scale [1.0, 4.5]."""
    if r <= 0:
        return 1.0
    if r >= 100.0:
        return 4.5
    mos = 1.0 + 0.035 * r + 7e-6 * r * (r - 60.0) * (100.0 - r)
    return max(1.0, min(4.5, mos))


def score_outcomes(outcomes: List[bool], delay_ms: float = 0.0,
                   ie: float = 0.0, bpl: float = G711_BPL
                   ) -> Tuple[float, float, float]:
    """(loss_pct, R, MOS) for one outcome sequence + mean on-time delay."""
    if outcomes:
        loss_pct = 100.0 * outcomes.count(False) / len(outcomes)
    else:
        loss_pct = 0.0
    r = e_model_r(loss_pct, burst_ratio(outcomes), delay_ms, ie=ie, bpl=bpl)
    return loss_pct, r, mos_from_r(r)


# ----------------------------------------------------------------------
@dataclass
class FlowScore:
    """Perceptual verdict for one unidirectional flow."""

    sent: int               # scored packets (censored tail excluded)
    delivered: int          # on time
    late: int               # delivered past the deadline (counted as lost)
    lost: int               # destroyed, or unresolved past the deadline
    censored: int           # in flight at finalize, deadline still open
    loss_pct: float         # effective loss (late + lost), percent
    burst_r: float
    mean_delay_slots: float  # mean e2e delay of the on-time packets
    r_factor: float
    mos: float

    def to_dict(self) -> Dict[str, float]:
        return {"sent": self.sent, "delivered": self.delivered,
                "late": self.late, "lost": self.lost,
                "censored": self.censored,
                "loss_pct": round(self.loss_pct, 4),
                "burst_r": round(self.burst_r, 4),
                "mean_delay_slots": round(self.mean_delay_slots, 4),
                "r_factor": round(self.r_factor, 4),
                "mos": round(self.mos, 4)}


class _FlowState:
    """Streaming per-flow outcome accumulator."""

    __slots__ = ("outcomes", "delay_sum", "ontime", "resolved")

    def __init__(self) -> None:
        #: (creation_time, pid) -> delivered-on-time; pids order packets of
        #: one flow by creation (each source emits sequentially) but never
        #: leave this process-local structure
        self.outcomes: Dict[Tuple[float, int], bool] = {}
        self.delay_sum = 0.0
        self.ontime = 0
        self.resolved = 0


class PerceptualScorer:
    """Folds a network's delivery/drop events into per-flow MOS scores.

    Usage: ``scorer.attach(net.events)``, register each flow of interest
    with :meth:`register_flow`, run, then :meth:`finalize_flow` with the
    flow's generated packets (unresolved ones count as lost).  Works
    against any network exposing the shared event vocabulary — WRT-Ring,
    TPT and CSMA all emit ``SlotDeliver``/``PacketLost``/``PacketOrphaned``
    on their buses.

    ``slot_ms`` converts slot delays to milliseconds for the E-model's
    ``Id`` term (default 1 ms/slot: a 20-slot voice period = G.711's 20 ms
    packetization, a 150-slot deadline = the ITU one-way delay target).
    """

    def __init__(self, slot_ms: float = 1.0, ie: float = 0.0,
                 bpl: float = G711_BPL):
        if slot_ms <= 0:
            raise ValueError(f"slot_ms must be positive, got {slot_ms!r}")
        self.slot_ms = slot_ms
        self.ie = ie
        self.bpl = bpl
        self._flows: Dict[int, _FlowState] = {}
        self._scores: Dict[int, FlowScore] = {}

    # ------------------------------------------------------------------
    def attach(self, bus) -> "PerceptualScorer":
        bus.subscribe(SlotDeliver, self._on_deliver)
        bus.subscribe(PacketLost, self._on_lost)
        bus.subscribe(PacketOrphaned, self._on_orphaned)
        return self

    def register_flow(self, flow_id: int) -> None:
        """Start scoring packets stamped with ``flow_id``."""
        self._flows.setdefault(flow_id, _FlowState())

    # ------------------------------------------------------------------
    def _state_for(self, pkt) -> Optional[_FlowState]:
        if pkt.flow_id is None:
            return None
        return self._flows.get(pkt.flow_id)

    def _on_deliver(self, ev) -> None:
        state = self._state_for(ev.packet)
        if state is None:
            return
        pkt = ev.packet
        ok = pkt.deadline is None or ev.t <= pkt.deadline
        state.outcomes[(pkt.created, pkt.pid)] = ok
        state.resolved += 1
        if ok:
            state.ontime += 1
            state.delay_sum += ev.t - pkt.created

    def _record_loss(self, pkt) -> None:
        state = self._state_for(pkt)
        if state is None:
            return
        state.outcomes[(pkt.created, pkt.pid)] = False
        state.resolved += 1

    def _on_lost(self, ev) -> None:
        self._record_loss(ev.packet)

    def _on_orphaned(self, ev) -> None:
        self._record_loss(ev.packet)

    # ------------------------------------------------------------------
    def finalize_flow(self, flow_id: int, generated,
                      now: Optional[float] = None) -> FlowScore:
        """Close the books on one flow.  ``generated`` is the flow's packet
        list in creation order (a generator's ``.packets``).  A packet
        without a recorded outcome is *lost* if its deadline has already
        passed (``now`` is the clock at finalize), and *censored* —
        excluded from the score — while its deadline is still open: the
        receiver hasn't given up on it, the measurement window just ended
        first.  With ``now=None`` (or no deadline) every unresolved packet
        is censored.  Idempotent."""
        if flow_id in self._scores:
            return self._scores[flow_id]
        state = self._flows.get(flow_id)
        if state is None:
            raise KeyError(f"flow {flow_id} was never registered")
        outcomes: List[bool] = []
        delivered = late = lost = censored = 0
        for pkt in generated:
            ok = state.outcomes.get((pkt.created, pkt.pid))
            if ok:
                delivered += 1
                outcomes.append(True)
            elif ok is None:
                if (now is not None and pkt.deadline is not None
                        and pkt.deadline < now):
                    lost += 1
                    outcomes.append(False)
                else:
                    censored += 1
            else:
                outcomes.append(False)
                if pkt.t_deliver is not None:
                    late += 1
                else:
                    lost += 1
        mean_delay = (state.delay_sum / state.ontime) if state.ontime else 0.0
        loss_pct, r, mos = score_outcomes(
            outcomes, delay_ms=mean_delay * self.slot_ms,
            ie=self.ie, bpl=self.bpl)
        score = FlowScore(sent=len(outcomes), delivered=delivered, late=late,
                          lost=lost, censored=censored, loss_pct=loss_pct,
                          burst_r=burst_ratio(outcomes),
                          mean_delay_slots=mean_delay, r_factor=r, mos=mos)
        self._scores[flow_id] = score
        return score
