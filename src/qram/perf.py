"""Tracking scenario generation and the quality/utility performance model.

The model is deliberately minimal but physically shaped: signal-to-noise
follows the radar range equation (energy on target over range^4), the
steady-state tracking error is a measurement error inflated by target motion
between revisits, and utility saturates as the error shrinks.  What matters
for the solvers is the structure this induces: spending more resource on a
task buys more utility with diminishing returns.

Dwell length doubles as the revisit interval of the track, which is why a
longer dwell cheapens the task (lower duty cycle) but degrades the error.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .core import Configuration
from .rng import PortableRng


class TargetType(enum.Enum):
    HELICOPTER = "Helicopter"
    FIGHTER = "Fighter"
    MISSILE = "Missile"


#: Sampling order for random draws (index 0, 1, 2).
TYPE_ORDER = (TargetType.HELICOPTER, TargetType.FIGHTER, TargetType.MISSILE)

#: Utility weight per target type: threat-ordered.
TYPE_UTILITY_WEIGHT = {
    TargetType.HELICOPTER: 1.0,
    TargetType.FIGHTER: 1.2,
    TargetType.MISSILE: 1.5,
}

#: Speed intervals (m/s) used when generating targets.
TYPE_SPEED_RANGE = {
    TargetType.HELICOPTER: (0.0, 100.0),
    TargetType.FIGHTER: (100.0, 450.0),
    TargetType.MISSILE: (300.0, 1000.0),
}

#: Range interval (km) used when generating targets.
RANGE_INTERVAL_KM = (5.0, 150.0)

# SNR calibration: a 500 ms dwell transmitting 6 ms at 2 kW against a target
# at 50 km yields SNR 20.
_CAL_RANGE_KM = 50.0
_CAL_R4 = (_CAL_RANGE_KM * _CAL_RANGE_KM) * (_CAL_RANGE_KM * _CAL_RANGE_KM)
SNR_CONST = 20.0 * _CAL_R4 / (2.0 * 6.0)

#: Measurement error coefficient: sigma = 100 m / sqrt(SNR).
MEASUREMENT_COEFF_M = 100.0
#: Length scale dividing the per-revisit target travel in the error growth.
GROWTH_SCALE_M = 1000.0
#: Tracking error at which utility halves.
ERROR_HALF_M = 50.0


def _json_int(d: dict, key: str) -> int:
    """``d[key]`` if it is a JSON integer (not a float or a boolean)."""
    value = d[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _json_number(d: dict, key: str) -> float:
    """``d[key]`` as a float if it is a JSON number (not a boolean)."""
    value = d[key]
    if type(value) not in (int, float):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{key} is out of range: {value!r}") from None


@dataclass(frozen=True)
class Target:
    id: int
    ttype: TargetType
    range_km: float
    speed_mps: float

    def __post_init__(self):
        if not (math.isfinite(self.range_km) and self.range_km > 0):
            raise ValueError(f"target range must be finite and positive: {self.range_km}")
        lo, hi = TYPE_SPEED_RANGE[self.ttype]
        if not lo <= self.speed_mps <= hi:
            raise ValueError(
                f"{self.ttype.value} speed {self.speed_mps} outside [{lo}, {hi}]")

    def to_dict(self) -> dict:
        return {"id": self.id, "ttype": self.ttype.value,
                "range_km": self.range_km, "speed_mps": self.speed_mps}

    @classmethod
    def from_dict(cls, d: dict) -> "Target":
        return cls(id=_json_int(d, "id"), ttype=TargetType(d["ttype"]),
                   range_km=_json_number(d, "range_km"),
                   speed_mps=_json_number(d, "speed_mps"))


@dataclass(frozen=True)
class Scenario:
    targets: tuple[Target, ...]
    seed: int
    _by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_id = {t.id: t for t in self.targets}
        if len(by_id) != len(self.targets):
            raise ValueError("target ids must be unique")
        object.__setattr__(self, "_by_id", by_id)

    def target_by_id(self, target_id: int) -> Target:
        try:
            return self._by_id[target_id]
        except KeyError:
            raise KeyError(f"no target with id {target_id}") from None

    def to_dict(self) -> dict:
        return {"format": 1, "seed": self.seed,
                "targets": [t.to_dict() for t in self.targets]}

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        if d.get("format") != 1:
            raise ValueError(f"unsupported scenario format {d.get('format')!r}")
        return cls(targets=tuple(Target.from_dict(t) for t in d["targets"]),
                   seed=_json_int(d, "seed"))


def generate_scenario(n_targets: int, seed: int) -> Scenario:
    """Draw ``n_targets`` random targets, reproducibly for a given seed.

    Per target the stream is consumed in a fixed order: type (uniform over
    the three types), range (uniform in the range interval), speed (uniform
    in the type's interval).
    """
    if n_targets < 1:
        raise ValueError(f"need at least one target, got {n_targets}")
    rng = PortableRng(seed)
    targets = []
    for i in range(n_targets):
        ttype = TYPE_ORDER[rng.randint(len(TYPE_ORDER))]
        range_km = rng.uniform(*RANGE_INTERVAL_KM)
        speed = rng.uniform(*TYPE_SPEED_RANGE[ttype])
        targets.append(Target(id=i, ttype=ttype, range_km=range_km, speed_mps=speed))
    return Scenario(targets=tuple(targets), seed=seed)


@dataclass(frozen=True)
class QualityValue:
    """Expected steady-state tracking error in meters (smaller is better)."""

    track_error: float

    def __post_init__(self):
        if self.track_error <= 0:
            raise ValueError(f"track error must be positive: {self.track_error}")


def snr(config: Configuration, target: Target) -> float:
    """Signal-to-noise ratio: energy on target over the fourth power of range."""
    r2 = target.range_km * target.range_km
    r4 = r2 * r2
    return SNR_CONST * config.transmit_power * config.transmit_duration / r4


def quality(config: Configuration, target: Target) -> QualityValue:
    """Tracking error: measurement error grown by target travel per revisit."""
    sigma = MEASUREMENT_COEFF_M / math.sqrt(snr(config, target))
    travel = target.speed_mps * (config.dwell_length / 1000.0)
    ratio = travel / GROWTH_SCALE_M
    growth = math.sqrt(1.0 + ratio * ratio)
    return QualityValue(track_error=sigma * growth)


def utility_from_quality(q: QualityValue, target: Target) -> float:
    """Saturating utility in (0, type weight], halved at ERROR_HALF_M."""
    weight = TYPE_UTILITY_WEIGHT[target.ttype]
    return weight / (1.0 + q.track_error / ERROR_HALF_M)


def task_utility(config: Configuration, target: Target) -> float:
    return utility_from_quality(quality(config, target), target)
