"""Parameter bundles and response data shared by every other module.

Defines the five mastery-chain probabilities, the 4PL item-response bundle,
and the longitudinal response panel, together with their validity checks and
the CSV/JSON formats used at the tool boundary. The two bundles are value
types on the package's slotted base (``_value.Value``): equal by value,
hashable, and closed to assignment once their checks have run. The panel
keeps its records read-only. All are safe to share across threads.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from typing import TYPE_CHECKING, Iterable

from ._value import Value
from .errors import (
    ForgettingNonzero,
    InvalidPanel,
    OutOfRange,
    Unidentified,
)

if TYPE_CHECKING:
    import numpy as np


def read_json(text: str):
    """``json.loads``, except that two inputs json lets through as bare
    Python errors raise OutOfRange: an integer longer than Python converts
    (a ValueError) and nesting deeper than the recursion limit (a
    RecursionError)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        raise OutOfRange(f"unreadable JSON number: {exc}") from None
    except RecursionError:
        raise OutOfRange("JSON nested too deeply") from None


def finite_number(value) -> float | None:
    """``value`` as a float when it is a finite int or float (a bool is not
    a number here), else None. An int beyond float range is not finite,
    where ``math.isfinite`` would raise OverflowError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            return None
        if math.isfinite(number):
            return number
    return None


def _check_unit(name: str, value: float) -> None:
    # Closed interval, no epsilon slack: exact 0 and 1 are legal and the
    # degenerate chains they produce are handled downstream.
    number = finite_number(value)
    if number is None or not 0.0 <= number <= 1.0:
        raise OutOfRange(f"{name} must be a number in [0, 1], got {value!r}")


class BktParams(Value):
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

    def __post_init__(self) -> None:
        # Kept as plain floats: a JSON 1 reads back as 1.0 and -0.0 as 0.0,
        # both exact, so every output prints each probability the same way.
        for name in self.__slots__:
            value = getattr(self, name)
            _check_unit(name, value)
            object.__setattr__(self, name, float(value) + 0.0)

    def to_json(self) -> str:
        return json.dumps({name: getattr(self, name) for name in self.__slots__})

    @classmethod
    def from_json(cls, text: str) -> "BktParams":
        raw = read_json(text)
        if not isinstance(raw, dict):
            raise OutOfRange(
                f"BKT parameters must be a JSON object, got {type(raw).__name__}"
            )
        missing = [name for name in cls.__slots__ if name not in raw]
        if missing:
            raise OutOfRange(f"missing BKT parameter keys: {missing}")
        unknown = [name for name in raw if name not in cls.__slots__]
        if unknown:
            raise OutOfRange(f"unknown BKT parameter keys: {unknown}")
        return cls(**{name: raw[name] for name in cls.__slots__})


def validate_bkt(
    params: BktParams,
    *,
    classic: bool = False,
    identified: bool = False,
) -> BktParams:
    """Check the constraint flags (BktParams checks ranges); return params.

    ``classic`` demands p_forget == 0 exactly. ``identified`` demands
    p_guess < 0.5 and p_slip < 0.5 (strict), which selects the interpretable
    member of each label-swapped parameter pair attaining equal likelihood.
    Idempotent: a value that passes once passes forever.
    """
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


class Irf4pl(Value):
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
        for name, value in (("a", self.a), ("b", self.b)):
            if finite_number(value) is None:
                raise OutOfRange(f"{name} must be a finite number, got {value!r}")
        _check_unit("c", self.c)
        _check_unit("d", self.d)
        if not self.c < self.d:
            raise OutOfRange(f"asymptotes must satisfy c < d, got c={self.c}, d={self.d}")


PANEL_CSV_HEADER = ["person_id", "item_id", "skill_id", "attempt", "correct"]
_PERSON, _SKILL, _ATTEMPT, _CORRECT = 0, 2, 3, 4


def _first_bad_line(lines: Iterable[str]) -> int | None:
    """First line after the header that is neither empty nor five int64
    fields: the first row ``np.loadtxt`` rejects. Only a rejected file gets
    here, so the pattern is compiled here, not when the module loads."""
    int_row = re.compile(r"\s*[+-]?[0-9]+\s*(,\s*[+-]?[0-9]+\s*){4}")
    for number, line in enumerate(lines, start=1):
        if number > 1 and line != "\n" and not (int_row.fullmatch(line) and all(
                -(2**63) <= int(field) < 2**63 for field in line.split(","))):
            return number
    return None


def _in_key_order(rows: np.ndarray) -> bool:
    """Whether no row comes before the one above it in (skill, person,
    attempt) order; keys are compared, as their differences wrap in int64."""
    import numpy as np

    after = True
    for key in (rows[:, _ATTEMPT], rows[:, _PERSON], rows[:, _SKILL]):
        after = (key[1:] > key[:-1]) | (key[1:] == key[:-1]) & after
    return bool(np.all(after))


def _int64_rows(records) -> np.ndarray:
    """records as an (N, 5) int64 array, else InvalidPanel. An int64 array
    is taken as it is; anything else must come out of numpy as integers
    that int64 holds, so a float is refused where a cast would cut 1.5 to
    1, and so is an int beyond int64, which numpy reads as a float or an
    object. No rows at all (an empty list, a header-only CSV) is an empty
    panel."""
    import numpy as np

    try:
        rows = np.asarray(records)
    except ValueError:  # rows of unequal lengths
        rows = None
    if rows is not None and rows.ndim and not len(rows):
        rows = rows.reshape(0, 5)
    if rows is None or rows.ndim != 2 or rows.shape[1] != 5:
        got = "rows of unequal lengths" if rows is None else f"shape {rows.shape}"
        raise InvalidPanel(f"records must be rows of 5 integers, got {got}")
    if rows.size and (rows.dtype.kind not in "iu" or not np.can_cast(rows.dtype, np.int64)):
        raise InvalidPanel(f"records must be integers within int64, read as {rows.dtype}")
    return rows.astype(np.int64, copy=False)


class ResponsePanel:
    """Longitudinal records (person, item, skill, attempt index, correct).

    Attempt indices per (person, skill) must be consecutive starting at 1 and
    (person, skill, attempt) keys unique, so each person owns one well-ordered
    response sequence per skill. ``records`` is a read-only (N, 5) int64
    array in the CSV's column order, sorted by (skill, person, attempt); each
    sequence is a run of rows, and ``_starts`` holds the first row of each.

    The one type in this module that holds arrays: its methods import
    numpy, so that the scalar bundles above load without it.
    """

    def __init__(self, records) -> None:
        import numpy as np

        rows = np.array(_int64_rows(records), order="F")  # a copy, each column contiguous
        if not _in_key_order(rows):
            order = np.lexsort((rows[:, _ATTEMPT], rows[:, _PERSON], rows[:, _SKILL]))
            rows = np.asfortranarray(rows[order])
        rows.flags.writeable = False
        person, skill, attempt = rows[:, _PERSON], rows[:, _SKILL], rows[:, _ATTEMPT]
        # Checked in key order, so the value named does not depend on row order.
        bad = (rows[:, _CORRECT] != 0) & (rows[:, _CORRECT] != 1)
        if bad.any():
            raise InvalidPanel(f"correct must be 0 or 1, got {rows[bad, _CORRECT][0]}")
        # Differences wrap around in int64 but are 0 only between equal values.
        new = (np.diff(skill, prepend=skill[:1] - 1) | np.diff(person, prepend=0)) != 0
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], len(rows))
        # Each run's attempts must be 1..len, which also rules out attempts below 1.
        expected = np.arange(1, len(rows) + 1) - np.repeat(starts, ends - starts)
        if not np.array_equal(attempt, expected):
            # Sorted, a run first breaks 1..len at a repeated attempt or a gap.
            k = int(np.argmax(attempt != expected))
            if not new[k] and attempt[k] == attempt[k - 1]:
                key = (int(person[k]), int(skill[k]), int(attempt[k]))
                raise InvalidPanel(f"duplicate (person, skill, attempt) key {key}")
            run = np.searchsorted(starts, k, "right") - 1
            raise InvalidPanel(
                f"attempts for person {person[k]}, skill {skill[k]} are not "
                f"consecutive from 1: {attempt[starts[run] : ends[run]].tolist()}"
            )
        self.records, self._starts = rows, starts

    def __eq__(self, other: object) -> bool:
        import numpy as np

        same = isinstance(other, ResponsePanel)
        return same and np.array_equal(self.records, other.records)

    def skills(self) -> list[int]:
        import numpy as np

        return np.unique(self.records[:, _SKILL]).tolist()

    def skill_block(self, skill_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One skill's persons (ascending), their responses end to end in
        attempt order, and the length of each person's sequence."""
        import numpy as np

        lo, hi = (np.searchsorted(self.records[:, _SKILL], skill_id, side)
                  for side in ("left", "right"))
        starts = self._starts[slice(*np.searchsorted(self._starts, (lo, hi)))]
        lengths = np.diff(starts, append=hi)
        return self.records[starts, _PERSON], self.records[lo:hi, _CORRECT], lengths

    def sequences(self, skill_id: int) -> dict[int, list[int]]:
        """Responses per person for one skill, ordered by attempt index."""
        import numpy as np

        persons, responses, lengths = self.skill_block(skill_id)
        runs = np.split(responses, np.cumsum(lengths)[:-1])
        return {person: run.tolist() for person, run in zip(persons.tolist(), runs)}

    @classmethod
    def from_csv(cls, path: str) -> "ResponsePanel":
        """The header, then rows of five unquoted base-10 integers within
        int64; empty lines are skipped."""
        import numpy as np

        with open(path, encoding="utf-8") as handle:
            header = handle.readline().rstrip("\n").split(",")
        if header != PANEL_CSV_HEADER:
            expected = ",".join(PANEL_CSV_HEADER)
            raise InvalidPanel(f"expected header {expected}, got {header}")
        with warnings.catch_warnings():
            # A header-only file is an empty panel, not worth a warning.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                # By path: numpy parses a path in blocks, an open handle line by line.
                rows = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2,
                                  skiprows=1, comments=None, encoding="utf-8")
            except ValueError:
                rows = None
        if rows is None or rows.size and rows.shape[1] != 5:
            # loadtxt counts only the rows it kept: rescan for the line.
            with open(path, encoding="utf-8") as handle:
                line = _first_bad_line(handle)
            raise InvalidPanel(f"line {line}: expected 5 integer fields")
        return cls(rows)

    def to_csv(self, path: str) -> None:
        import numpy as np

        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(",".join(PANEL_CSV_HEADER) + "\n")
            np.savetxt(handle, self.records, fmt="%d", delimiter=",")
