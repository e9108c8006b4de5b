"""Mapping Internet Differentiated Services onto WRT-Ring (Sec. 2.3).

The paper maps the two-bit Diffserv architecture [15] onto the quotas:

- **Premium** (full guarantees)        -> the guaranteed ``l`` quota,
- **Assured** (priority, no guarantee) -> a share ``k1`` of the ``k`` quota,
- **best-effort** (lowest priority)    -> the remaining ``k2 = k - k1``.

The mapping is purely local: "any single station can decide the number of
classes of services to implement ... without affecting and without being
affected by the behavior of the other stations."  :class:`DiffservProfile`
expresses a station's class mix and produces the corresponding
:class:`~repro.core.quotas.QuotaConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.packet import ServiceClass
from repro.core.quotas import QuotaConfig

__all__ = ["PRIORITY_CLASSES", "DiffservProfile", "split_k_quota",
           "dscp_to_service_class"]

#: Canonical order of the service classes in the decision codes the ring's
#: decision layer hands to its effects layer: Premium, Assured, best-effort
#: — identical to the strict send priority of Sec. 2.2/2.3, and indexable
#: by ``int(ServiceClass)`` since the enum values follow the same order.
PRIORITY_CLASSES: Tuple[ServiceClass, ...] = (
    ServiceClass.PREMIUM, ServiceClass.ASSURED, ServiceClass.BEST_EFFORT)


def split_k_quota(k: int, assured_fraction: float) -> Tuple[int, int]:
    """Split ``k`` into ``(k1, k2)`` with ``k1 ≈ assured_fraction * k``.

    ``k1 + k2 == k`` always holds (Sec. 2.3's constraint).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not 0.0 <= assured_fraction <= 1.0:
        raise ValueError(f"assured_fraction must be in [0,1], got {assured_fraction!r}")
    k1 = round(k * assured_fraction)
    return k1, k - k1


@dataclass(frozen=True)
class DiffservProfile:
    """A station's desired per-round class capacities, in packets."""

    premium: int
    assured: int
    best_effort: int

    def __post_init__(self) -> None:
        for name in ("premium", "assured", "best_effort"):
            v = getattr(self, name)
            if v < 0:
                raise ValueError(f"{name} must be >= 0, got {v}")
        if self.premium + self.assured + self.best_effort == 0:
            raise ValueError("profile must reserve at least one packet per round")

    def to_quota(self) -> QuotaConfig:
        """The Sec. 2.3 mapping: premium->l, assured->k1, best_effort->k2."""
        return QuotaConfig(l=self.premium, k1=self.assured, k2=self.best_effort)

    @classmethod
    def from_quota(cls, quota: QuotaConfig) -> "DiffservProfile":
        return cls(premium=quota.l, assured=quota.k1, best_effort=quota.k2)

    def service_share(self, service: ServiceClass) -> int:
        if service is ServiceClass.PREMIUM:
            return self.premium
        if service is ServiceClass.ASSURED:
            return self.assured
        return self.best_effort


#: Two-bit-architecture codepoint names -> WRT-Ring service classes.
_DSCP_MAP = {
    "premium": ServiceClass.PREMIUM,
    "ef": ServiceClass.PREMIUM,          # expedited forwarding
    "assured": ServiceClass.ASSURED,
    "af": ServiceClass.ASSURED,          # assured forwarding
    "best_effort": ServiceClass.BEST_EFFORT,
    "be": ServiceClass.BEST_EFFORT,
    "default": ServiceClass.BEST_EFFORT,
}


def dscp_to_service_class(name: str) -> ServiceClass:
    """Map a Diffserv class name (as used at the gateway) to a ring class."""
    try:
        return _DSCP_MAP[name.lower()]
    except KeyError:
        raise ValueError(f"unknown Diffserv class {name!r}; "
                         f"known: {sorted(_DSCP_MAP)}") from None
