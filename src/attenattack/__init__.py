"""Laser-damage attack simulator for QKD source attenuators.

Each export is imported from its module on first use (PEP 562), so
`import attenattack` alone loads neither numpy nor scipy.
"""

import functools
import importlib
import operator

_EXPORTS = {
    "fiber": (
        "FiberLink",
        "LaserSource",
        "ThresholdCurve",
        "dbm_to_watts",
        "delivered_power",
        "effective_length",
        "max_injectable_power",
        "sbs_threshold",
        "srs_threshold",
        "threshold_curve",
        "watts_to_dbm",
    ),
    "attenuators": (
        "AttenuatorClass",
        "AttenuatorState",
        "DamageProfile",
        "DEFAULT_PROFILES",
        "apply_exposure",
        "attenuation",
        "cool_down",
        "load_profiles",
        "new_attenuator",
    ),
    "campaign": (
        "CampaignConfig",
        "CampaignOutcome",
        "CampaignResult",
        "CampaignStep",
        "MonteCarloSummary",
        "check_fuse",
        "monte_carlo",
        "run_campaign",
    ),
    "impact": (
        "ImpactClass",
        "ImpactReport",
        "adjusted_mu",
        "classify",
        "impact_report",
        "mpn_ratio",
    ),
    "risk": (
        "Prior",
        "RiskQuery",
        "TestRecord",
        "beta_binomial_pmf",
        "posterior",
        "prob_exceeds_infinite_population",
        "prob_fraction_vulnerable_exceeds",
        "risk_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, *_EXPORTS]
__version__ = "0.1.0"


def _left_sum(values, start=0):
    """`start` plus `values` added left to right, as the built-in sum adds
    floats before Python 3.12; from 3.12 it compensates, and its bits differ."""
    return functools.reduce(operator.add, values, start)


def _checked(record):
    """Makes a NamedTuple record's constructor, `_make` and `_replace` run the `_check`
    its class body holds: it raises ValueError, or returns None or a record to use."""
    make = record.__new__

    def __new__(cls, *args, **kwargs):
        made = make(cls, *args, **kwargs)
        return made._check() or made  # a record has fields, so is never false

    record.__new__, record._make = __new__, classmethod(lambda cls, values: cls(*values))
    return record


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as the eager imports once bound it
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_EXPORTS})
