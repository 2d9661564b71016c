"""The paper's contribution: timekeeping metrics, predictors, mechanisms."""

from . import predictors, prefetch
from .decay import DecayPolicy, DecayStats
from .generations import GenerationRecord, GenerationTracker
from .metrics import MissCorrelation, TimekeepingMetrics
from .tick import GlobalTicker, SaturatingCounter, saturate, victim_filter_counter_value
from .victim import (
    AdaptiveTimekeepingAdmission,
    AdmissionFilter,
    CollinsAdmission,
    TimekeepingAdmission,
    UnfilteredAdmission,
    little_law_threshold,
    make_admission_filter,
)

__all__ = [
    "predictors",
    "prefetch",
    "DecayPolicy",
    "DecayStats",
    "AdaptiveTimekeepingAdmission",
    "GenerationRecord",
    "GenerationTracker",
    "MissCorrelation",
    "TimekeepingMetrics",
    "GlobalTicker",
    "SaturatingCounter",
    "saturate",
    "victim_filter_counter_value",
    "AdmissionFilter",
    "CollinsAdmission",
    "TimekeepingAdmission",
    "UnfilteredAdmission",
    "little_law_threshold",
    "make_admission_filter",
]
