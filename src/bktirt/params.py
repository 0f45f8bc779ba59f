"""Parameter bundles and response data shared by every other module.

Defines the five mastery-chain probabilities, the logistic item-response
bundles, the random-walk ability configuration, and the longitudinal response
panel, together with their validity checks and the CSV/JSON formats used at
the tool boundary. All types are immutable values after construction and safe
to share across threads.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import (
    ForgettingNonzero,
    InvalidPanel,
    OutOfRange,
    Unidentified,
)


def _check_unit(name: str, value: float) -> None:
    # Closed interval, no epsilon slack: exact 0 and 1 are legal and the
    # degenerate chains they produce are handled downstream.
    if not isinstance(value, (int, float)) or math.isnan(value):
        raise OutOfRange(f"{name} must be a number in [0, 1], got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise OutOfRange(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class BktParams:
    """Per-skill probabilities of the two-state mastery chain.

    p_init    starting in the mastered state
    p_learn   unmastered -> mastered after one attempt
    p_forget  mastered -> unmastered after one attempt
    p_slip    incorrect response while mastered
    p_guess   correct response while unmastered
    """

    p_init: float
    p_learn: float
    p_forget: float
    p_slip: float
    p_guess: float

    _FIELDS = ("p_init", "p_learn", "p_forget", "p_slip", "p_guess")

    def __post_init__(self) -> None:
        for name in self._FIELDS:
            _check_unit(name, getattr(self, name))

    def to_json(self) -> str:
        return json.dumps({name: getattr(self, name) for name in self._FIELDS})

    @classmethod
    def from_json(cls, text: str) -> "BktParams":
        raw = json.loads(text)
        missing = [name for name in cls._FIELDS if name not in raw]
        if missing:
            raise OutOfRange(f"missing BKT parameter keys: {missing}")
        return cls(**{name: raw[name] for name in cls._FIELDS})


def validate_bkt(
    params: BktParams,
    *,
    classic: bool = False,
    identified: bool = False,
) -> BktParams:
    """Check range and constraint-flag invariants; return params unchanged.

    ``classic`` demands p_forget == 0 exactly. ``identified`` demands
    p_guess < 0.5 and p_slip < 0.5 (strict), which selects the interpretable
    member of each label-swapped parameter pair attaining equal likelihood.
    Idempotent: a value that passes once passes forever.
    """
    for name in BktParams._FIELDS:
        _check_unit(name, getattr(params, name))
    if classic and params.p_forget != 0.0:
        raise ForgettingNonzero(
            f"classic constraint requires p_forget == 0, got {params.p_forget}"
        )
    if identified and not (params.p_guess < 0.5 and params.p_slip < 0.5):
        raise Unidentified(
            "identified constraint requires p_guess < 0.5 and p_slip < 0.5, "
            f"got p_guess={params.p_guess}, p_slip={params.p_slip}"
        )
    return params


@dataclass(frozen=True)
class Irf4pl:
    """Four-parameter logistic item response function.

    a  discrimination (> 0)
    b  difficulty
    c  lower asymptote (guessing)
    d  upper asymptote (1 - inattention)
    """

    a: float
    b: float
    c: float = 0.0
    d: float = 1.0

    def __post_init__(self) -> None:
        if not self.a > 0:
            raise OutOfRange(f"discrimination a must be > 0, got {self.a}")
        _check_unit("c", self.c)
        _check_unit("d", self.d)
        if not self.c < self.d:
            raise OutOfRange(f"asymptotes must satisfy c < d, got c={self.c}, d={self.d}")

    # Constrained subsets of the 4PL family.
    @classmethod
    def one_pl(cls, b: float) -> "Irf4pl":
        return cls(a=1.0, b=b, c=0.0, d=1.0)

    @classmethod
    def two_pl(cls, a: float, b: float) -> "Irf4pl":
        return cls(a=a, b=b, c=0.0, d=1.0)

    @classmethod
    def three_pl(cls, a: float, b: float, c: float) -> "Irf4pl":
        return cls(a=a, b=b, c=c, d=1.0)


@dataclass(frozen=True)
class MirtIrf:
    """Compensatory multidimensional 4PL: c + (d-c) * logistic(a.theta + beta)."""

    loadings: tuple[float, ...]
    beta: float
    c: float = 0.0
    d: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "loadings", tuple(float(v) for v in self.loadings))
        _check_unit("c", self.c)
        _check_unit("d", self.d)
        if not self.c < self.d:
            raise OutOfRange(f"asymptotes must satisfy c < d, got c={self.c}, d={self.d}")


@dataclass(frozen=True)
class DynamicIrtConfig:
    """Random-walk ability over fixed item difficulties.

    Ability drifts between attempts by zero-mean Gaussian steps of standard
    deviation noise_sd; each item i is answered correctly with probability
    logistic(theta_t - difficulties[i]).
    """

    theta0: float
    noise_sd: float
    difficulties: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.noise_sd >= 0:
            raise OutOfRange(f"noise_sd must be >= 0, got {self.noise_sd}")
        object.__setattr__(
            self, "difficulties", tuple(float(b) for b in self.difficulties)
        )


class PanelRecord(NamedTuple):
    person_id: int
    item_id: int
    skill_id: int
    attempt: int
    correct: int


PANEL_CSV_HEADER = ["person_id", "item_id", "skill_id", "attempt", "correct"]


@dataclass(frozen=True)
class ResponsePanel:
    """Longitudinal records (person, item, skill, attempt index, correct).

    Attempt indices per (person, skill) must be consecutive starting at 1 and
    (person, skill, attempt) keys unique, so each person owns one well-ordered
    response sequence per skill.
    """

    records: tuple[PanelRecord, ...]

    def __post_init__(self) -> None:
        seen: dict[tuple[int, int], list[int]] = {}
        keys: set[tuple[int, int, int]] = set()
        for rec in self.records:
            if rec.attempt < 1:
                raise InvalidPanel(f"attempt index must be >= 1, got {rec.attempt}")
            if rec.correct not in (0, 1):
                raise InvalidPanel(f"correct must be 0 or 1, got {rec.correct}")
            key = (rec.person_id, rec.skill_id, rec.attempt)
            if key in keys:
                raise InvalidPanel(f"duplicate (person, skill, attempt) key {key}")
            keys.add(key)
            seen.setdefault((rec.person_id, rec.skill_id), []).append(rec.attempt)
        for (person, skill), attempts in seen.items():
            attempts.sort()
            if attempts != list(range(1, len(attempts) + 1)):
                raise InvalidPanel(
                    f"attempts for person {person}, skill {skill} are not "
                    f"consecutive from 1: {attempts}"
                )

    @classmethod
    def from_records(
        cls, records: Iterable[tuple[int, int, int, int, int]]
    ) -> "ResponsePanel":
        return cls(tuple(PanelRecord(*map(int, rec)) for rec in records))

    def skills(self) -> list[int]:
        return sorted({rec.skill_id for rec in self.records})

    def sequences(self, skill_id: int) -> dict[int, list[int]]:
        """Responses per person for one skill, ordered by attempt index."""
        rows: dict[int, list[tuple[int, int]]] = {}
        for rec in self.records:
            if rec.skill_id == skill_id:
                rows.setdefault(rec.person_id, []).append((rec.attempt, rec.correct))
        return {
            person: [correct for _, correct in sorted(pairs)]
            for person, pairs in sorted(rows.items())
        }

    @classmethod
    def from_csv(cls, path: str) -> "ResponsePanel":
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != PANEL_CSV_HEADER:
                raise InvalidPanel(
                    f"expected header {','.join(PANEL_CSV_HEADER)}, got {header}"
                )
            try:
                records = [PanelRecord(*map(int, row)) for row in reader if row]
            except (TypeError, ValueError):
                # TypeError: a row whose column count is not the header's.
                # The reader's line number is that of the failing row.
                raise InvalidPanel(
                    f"line {reader.line_num}: expected "
                    f"{len(PANEL_CSV_HEADER)} integer fields"
                ) from None
        return cls(tuple(records))

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(PANEL_CSV_HEADER)
            writer.writerows(self.records)
