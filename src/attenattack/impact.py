"""Security impact of an attenuation change on a weak-coherent QKD source.

The source calibrates its mean photon number through the attenuator, so a
drop of D dB in attenuation inflates the emitted mean photon number by
10^(-D/10). A 1 dB drop is roughly a 26% increase; a 3 dB rise roughly
halves it (denial of service).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, asdict

DEFAULT_SUCCESS_THRESHOLD_DB = -1.0
DEFAULT_FAILURE_THRESHOLD_DB = 3.0


class ImpactClass(enum.Enum):
    COMPROMISED = "Compromised"
    DENIAL_OF_SERVICE = "DenialOfService"
    UNAFFECTED = "Unaffected"


def mpn_ratio(delta_attenuation_db: float) -> float:
    """Mean-photon-number multiplier caused by an attenuation change (dB)."""
    if not math.isfinite(delta_attenuation_db):
        raise ValueError(f"delta must be finite, got {delta_attenuation_db}")
    return 10.0 ** (-delta_attenuation_db / 10.0)


def adjusted_mu(mu0: float, delta_attenuation_db: float) -> float:
    """Mean photon number after the attenuation change."""
    if not 0 < mu0 < math.inf:
        raise ValueError(f"mu0 must be finite and > 0, got {mu0}")
    return mu0 * mpn_ratio(delta_attenuation_db)


def classify(
    delta_attenuation_db: float,
    success_threshold_db: float = DEFAULT_SUCCESS_THRESHOLD_DB,
    failure_threshold_db: float = DEFAULT_FAILURE_THRESHOLD_DB,
) -> ImpactClass:
    """Attack outcome class for a measured attenuation change."""
    if not success_threshold_db < 0 < failure_threshold_db:
        raise ValueError("need success_threshold < 0 < failure_threshold")
    if delta_attenuation_db <= success_threshold_db:
        return ImpactClass.COMPROMISED
    if delta_attenuation_db >= failure_threshold_db:
        return ImpactClass.DENIAL_OF_SERVICE
    return ImpactClass.UNAFFECTED


@dataclass(frozen=True)
class ImpactReport:
    delta_attenuation_db: float
    mpn_ratio: float
    mu_before: float
    mu_after: float
    classification: ImpactClass

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["classification"] = self.classification.value
        return d

    def summary_line(self) -> str:
        pct = (self.mpn_ratio - 1.0) * 100.0
        return (
            f"delta {self.delta_attenuation_db:+.2f} dB -> mean photon number "
            f"x{self.mpn_ratio:.3f} ({pct:+.1f}%), {self.classification.value}"
        )


def impact_report(
    delta_attenuation_db: float,
    mu_before: float = 0.5,
    success_threshold_db: float = DEFAULT_SUCCESS_THRESHOLD_DB,
    failure_threshold_db: float = DEFAULT_FAILURE_THRESHOLD_DB,
) -> ImpactReport:
    ratio = mpn_ratio(delta_attenuation_db)
    return ImpactReport(
        delta_attenuation_db=delta_attenuation_db,
        mpn_ratio=ratio,
        mu_before=mu_before,
        mu_after=adjusted_mu(mu_before, delta_attenuation_db),
        classification=classify(
            delta_attenuation_db, success_threshold_db, failure_threshold_db
        ),
    )
