"""Power handling of standard single-mode fiber under c.w. injection.

Backward stimulated Raman scattering (SRS) and stimulated Brillouin
scattering (SBS) set the maximum power an attacker can launch without the
backward Stokes wave destroying the source. All internal computation is in
SI units (W, m); dBm and um^2 appear only at the API boundary.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _checked

# Standard SMF-28 constants at 1550 nm.
DEFAULT_ALPHA_PER_KM = 0.05      # natural-log loss, 1/km
DEFAULT_A_EFF_UM2 = 50.0         # effective core area, um^2
DEFAULT_G_R_M_PER_W = 6.67e-14   # Raman-gain coefficient, m/W
DEFAULT_G_B_M_PER_W = 5e-11      # Brillouin-gain coefficient, m/W
DEFAULT_DELTA_NU_B_MHZ = 16.0    # Brillouin-gain FWHM, MHz

# Most grid points threshold_curve tabulates: at ~56 bytes a CSV row, ~56 MB.
MAX_CURVE_POINTS = 10**6


def dbm_to_watts(p_dbm: float) -> float:
    """Convert absolute power in dBm to watts; inf above about 3082.5 dBm."""
    try:
        return 10.0 ** (p_dbm / 10.0) / 1000.0
    except OverflowError:  # float ** raises where the result overflows
        return math.inf


def watts_to_dbm(p_w: float) -> float:
    """Convert watts to dBm. Requires p_w > 0."""
    if p_w <= 0:
        raise ValueError(f"power must be positive for dBm conversion, got {p_w}")
    return 10.0 * math.log10(p_w * 1000.0)


@_checked
class FiberLink(NamedTuple):
    """Geometry and material constants of the injection fiber."""

    length_km: float
    alpha_per_km: float = DEFAULT_ALPHA_PER_KM
    a_eff_um2: float = DEFAULT_A_EFF_UM2
    g_r_m_per_w: float = DEFAULT_G_R_M_PER_W
    g_b_m_per_w: float = DEFAULT_G_B_M_PER_W
    delta_nu_b_mhz: float = DEFAULT_DELTA_NU_B_MHZ

    def _check(self):
        # `< math.inf` also rejects NaN, which fails every comparison
        if not 0 < self.length_km < math.inf:
            raise ValueError(f"length_km must be finite and > 0, got {self.length_km}")
        if not 0 <= self.alpha_per_km < math.inf:
            raise ValueError(f"alpha_per_km must be finite and >= 0, got {self.alpha_per_km}")
        for name in ("a_eff_um2", "g_r_m_per_w", "g_b_m_per_w", "delta_nu_b_mhz"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")


@_checked
class LaserSource(NamedTuple):
    """The attacker's c.w. laser (amplified diode)."""

    max_power_w: float = 9.0
    linewidth_ghz: float = 10.0

    def _check(self):
        if not 0 <= self.max_power_w < math.inf:
            raise ValueError(f"max_power_w must be finite and >= 0, got {self.max_power_w}")
        if not 0 <= self.linewidth_ghz < math.inf:
            raise ValueError(f"linewidth_ghz must be finite and >= 0, got {self.linewidth_ghz}")


def effective_length(link: FiberLink) -> float:
    """Loss-weighted nonlinear interaction length (1 - e^-aL)/a, in meters."""
    return _effective_length_m(link.length_km, link.alpha_per_km)


def _effective_length_m(length_km: float, alpha_per_km: float) -> float:
    length_m = length_km * 1000.0
    alpha_per_m = alpha_per_km / 1000.0
    if alpha_per_m == 0.0:
        return length_m
    # expm1 keeps precision for short fibers where aL << 1
    return -math.expm1(-alpha_per_m * length_m) / alpha_per_m


def srs_threshold(link: FiberLink) -> float:
    """Backward-SRS input power threshold, watts: 20 A_eff / (g_R L_eff)."""
    return _srs_thresholds(link, [effective_length(link)])[0]


def _srs_thresholds(link: FiberLink, l_effs_m: list[float]) -> list[float]:
    a_eff_m2 = link.a_eff_um2 * 1e-12
    try:
        p_w = [20.0 * a_eff_m2 / (link.g_r_m_per_w * l_eff) for l_eff in l_effs_m]
    except ZeroDivisionError:
        p_w = [math.inf]
    return _finite("SRS", p_w, l_effs_m)


def sbs_threshold(link: FiberLink, laser: LaserSource) -> float:
    """Backward-SBS input power threshold, watts.

    21 A_eff / (g_B L_eff), enhanced by (1 + dnu_pump/dnu_Brillouin) when the
    pump linewidth exceeds the Brillouin-gain bandwidth.
    """
    return _sbs_thresholds(link, laser, [effective_length(link)])[0]


def _sbs_thresholds(link: FiberLink, laser: LaserSource, l_effs_m: list[float]) -> list[float]:
    a_eff_m2 = link.a_eff_um2 * 1e-12
    broadening = 1.0 + (laser.linewidth_ghz * 1e3) / link.delta_nu_b_mhz
    try:
        p_w = [21.0 * a_eff_m2 / (link.g_b_m_per_w * l_eff) * broadening for l_eff in l_effs_m]
    except ZeroDivisionError:
        p_w = [math.inf]
    return _finite("SBS", p_w, l_effs_m)


def _finite(kind: str, p_w: list[float], l_effs_m: list[float]) -> list[float]:
    """p_w, or ValueError unless every threshold in it is finite.

    A link so short for its loss that L_eff underflows puts no finite bound
    on the launch power.
    """
    if not max(p_w) < math.inf:
        raise ValueError(
            f"{kind} threshold is not finite at an effective length of "
            f"{min(l_effs_m):.3g} m"
        )
    return p_w


def max_injectable_power(link: FiberLink, laser: LaserSource) -> tuple[float, str]:
    """Maximum safe launch power and the binding constraint.

    Returns (power_w, constraint) where constraint is one of
    "laser", "srs", "sbs".
    """
    candidates = {
        "srs": srs_threshold(link),
        "sbs": sbs_threshold(link, laser),
        "laser": laser.max_power_w,
    }
    constraint = min(candidates, key=candidates.get)
    return candidates[constraint], constraint


def delivered_power(link: FiberLink, p_in_w: float) -> float:
    """Power reaching the far end of the fiber: P_in e^-aL."""
    if p_in_w < 0:
        raise ValueError(f"input power must be >= 0, got {p_in_w}")
    return p_in_w * math.exp(-link.alpha_per_km * link.length_km)


class ThresholdCurve(NamedTuple):
    """SRS/SBS thresholds tabulated over a log-spaced length grid."""

    lengths_km: list[float]
    p_srs_w: list[float]
    p_sbs_w: list[float]

    def to_csv(self) -> str:
        lines = ["length_km,p_srs_w,p_sbs_w"]
        for l_km, srs, sbs in zip(self.lengths_km, self.p_srs_w, self.p_sbs_w):
            lines.append(f"{l_km!r},{srs!r},{sbs!r}")
        return "\n".join(lines) + "\n"


def threshold_curve(
    link_template: FiberLink,
    laser: LaserSource,
    l_min_km: float,
    l_max_km: float,
    n_points: int,
) -> ThresholdCurve:
    """Tabulate both backscattering thresholds versus fiber length.

    Only the length of `link_template` varies over the grid; every other
    field applies at each point.
    """
    # `< math.inf` also rejects NaN, which fails every comparison
    if not 0 < l_min_km < l_max_km < math.inf:
        raise ValueError(f"need 0 < l_min < l_max < inf, got {l_min_km}, {l_max_km}")
    if not 2 <= n_points <= MAX_CURVE_POINTS:
        raise ValueError(f"n_points must lie in [2, {MAX_CURVE_POINTS}], got {n_points}")
    log_lo = math.log10(l_min_km)
    log_hi = math.log10(l_max_km)
    try:
        lengths = [
            10.0 ** (log_lo + (log_hi - log_lo) * i / (n_points - 1)) for i in range(n_points)
        ]
    except OverflowError:  # log10 rounds up near the float maximum
        raise ValueError(f"l_max_km is too close to the float maximum, got {l_max_km}") from None
    alpha = link_template.alpha_per_km
    l_effs = [_effective_length_m(l_km, alpha) for l_km in lengths]
    return ThresholdCurve(
        lengths_km=lengths,
        p_srs_w=_srs_thresholds(link_template, l_effs),
        p_sbs_w=_sbs_thresholds(link_template, laser, l_effs),
    )
