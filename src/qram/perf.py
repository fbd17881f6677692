"""Tracking scenarios and the constants of the quality/utility model.

The model is deliberately minimal but physically shaped: signal-to-noise
follows the radar range equation (energy on target over range^4), the
steady-state tracking error is a measurement error inflated by target motion
between revisits, and utility saturates as the error shrinks.  What matters
for the solvers is the structure this induces: spending more resource on a
task buys more utility with diminishing returns.  The constants live here;
:func:`qram.kernels.utility` evaluates the model.

Dwell length doubles as the revisit interval of the track, which is why a
longer dwell cheapens the task (lower duty cycle) but degrades the error.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import _json_int, _json_number
from .rng import PortableRng


class TargetType(enum.Enum):
    HELICOPTER = "Helicopter"
    FIGHTER = "Fighter"
    MISSILE = "Missile"


#: Sampling order for random draws (index 0, 1, 2).
TYPE_ORDER = (TargetType.HELICOPTER, TargetType.FIGHTER, TargetType.MISSILE)
#: Each type's position in TYPE_ORDER, by its name in a scenario file.
_TYPE_CODE = {t.value: i for i, t in enumerate(TYPE_ORDER)}

#: Utility weight per target type: threat-ordered.
TYPE_UTILITY_WEIGHT = {
    TargetType.HELICOPTER: 1.0,
    TargetType.FIGHTER: 1.2,
    TargetType.MISSILE: 1.5,
}
#: The largest utility of any target: utility saturates below its type weight.
MAX_UTILITY = max(TYPE_UTILITY_WEIGHT.values())

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

    @classmethod
    def from_dict(cls, d: dict) -> "Target":
        """One entry of a scenario file's target list, checked field by
        field in this order."""
        return cls(id=_json_int(d, "id"), ttype=TargetType(d["ttype"]),
                   range_km=_json_number(d, "range_km"),
                   speed_mps=_json_number(d, "speed_mps"))


#: A scenario file's target fields, in the order ``Target.from_dict`` reads them.
_FIELDS = operator.itemgetter("id", "ttype", "range_km", "speed_mps")
#: Each type's speed interval, indexed by its position in TYPE_ORDER.
_SPEED_LO, _SPEED_HI = np.array([TYPE_SPEED_RANGE[t] for t in TYPE_ORDER]).T


def _read_columns(rows):
    """The id, type, range and speed columns of a scenario file's target
    list, or None if some entry is not a valid target.

    The checks are ``Target.from_dict``'s, made one column at a time: every
    id an integer; every type a known name; every range and speed a number
    (an integer beyond the float range fails); every range finite and
    positive and every speed within its type's interval.  A None answer
    says only that a row is bad; the per-row check then names the first.
    """
    if type(rows) is not list:
        return None
    if not rows:
        return (), (), (), ()
    try:
        ids, names, ranges, speeds = zip(*map(_FIELDS, rows))
        codes = list(map(_TYPE_CODE.__getitem__, names))
        if not ({*map(type, ids)} <= {int}
                and {*map(type, ranges), *map(type, speeds)} <= {int, float}):
            return None
        ranges, speeds = tuple(map(float, ranges)), tuple(map(float, speeds))
    except (KeyError, TypeError, OverflowError):
        return None
    r, v, c = np.array(ranges), np.array(speeds), np.array(codes)
    if not np.all(np.isfinite(r) & (r > 0)
                  & (_SPEED_LO[c] <= v) & (v <= _SPEED_HI[c])):
        return None
    return ids, tuple(map(TYPE_ORDER.__getitem__, codes)), ranges, speeds


@dataclass(frozen=True, init=False)
class Scenario:
    """The targets of a scenario as columns in file order, and its seed.

    The columns are checked: ``Scenario(targets, seed)`` reads them from
    targets, and :meth:`from_dict` checks them as :class:`Target` checks a
    row.  The solve path reads the columns; :attr:`targets` builds one
    ``Target`` per row for a caller that asks.
    """

    ids: tuple[int, ...]
    types: tuple[TargetType, ...]
    range_km: tuple[float, ...]
    speed_mps: tuple[float, ...]
    seed: int

    def __init__(self, targets, seed: int):
        """The scenario of these targets, in order."""
        targets = tuple(targets)
        self._hold(tuple(t.id for t in targets), tuple(t.ttype for t in targets),
                   tuple(t.range_km for t in targets),
                   tuple(t.speed_mps for t in targets), seed)

    @classmethod
    def from_columns(cls, ids, types, range_km, speed_mps,
                     seed: int) -> "Scenario":
        """The scenario of checked columns, with no ``Target``."""
        scenario = object.__new__(cls)
        scenario._hold(ids, types, range_km, speed_mps, seed)
        return scenario

    def _hold(self, ids, types, range_km, speed_mps, seed) -> None:
        if len(set(ids)) != len(ids):
            raise ValueError("target ids must be unique")
        for name, value in zip(("ids", "types", "range_km", "speed_mps", "seed"),
                               (ids, types, range_km, speed_mps, seed)):
            object.__setattr__(self, name, value)

    @cached_property
    def targets(self) -> tuple[Target, ...]:
        """One :class:`Target` per row, built on first use."""
        return tuple(map(Target, self.ids, self.types, self.range_km,
                         self.speed_mps))

    def to_dict(self) -> dict:
        return {"format": 1, "seed": self.seed,
                "targets": [{"id": tid, "ttype": ttype.value, "range_km": r,
                             "speed_mps": v}
                            for tid, ttype, r, v in zip(
                                self.ids, self.types, self.range_km,
                                self.speed_mps)]}

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        """Inverse of :meth:`to_dict`.  A bad entry raises the error of the
        first bad target in file order; then a bad seed, then duplicate
        ids."""
        if type(d.get("format")) is not int or d["format"] != 1:
            raise ValueError(f"unsupported scenario format {d.get('format')!r}")
        rows = d["targets"]
        columns = _read_columns(rows)
        if columns is None:  # the per-row check raises at the first bad row
            targets = tuple(map(Target.from_dict, rows))
            return cls(targets, seed=_json_int(d, "seed"))
        return cls.from_columns(*columns, seed=_json_int(d, "seed"))


def draw_target(rng: PortableRng, target_id: int) -> Target:
    """One random target; the target distribution of scenarios and training.

    The stream is consumed in a fixed order: type (uniform over the three
    types), range (uniform in the range interval), speed (uniform in the
    type's interval).
    """
    ttype = TYPE_ORDER[rng.randint(len(TYPE_ORDER))]
    range_km = rng.uniform(*RANGE_INTERVAL_KM)
    speed = rng.uniform(*TYPE_SPEED_RANGE[ttype])
    return Target(id=target_id, ttype=ttype, range_km=range_km, speed_mps=speed)


def generate_scenario(n_targets: int, seed: int) -> Scenario:
    """Draw ``n_targets`` random targets (ids 0, 1, ...), reproducibly for a
    given seed."""
    if n_targets < 1:
        raise ValueError(f"need at least one target, got {n_targets}")
    rng = PortableRng(seed)
    return Scenario(targets=tuple(draw_target(rng, i) for i in range(n_targets)),
                    seed=seed)
