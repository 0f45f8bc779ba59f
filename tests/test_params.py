"""Validation, serialization round-trips, and panel invariants."""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from json_strategies import bkt_objects, json_values, near_objects, networks

from bktirt import (
    BktParams,
    Irf4pl,
    IsingNetwork,
    ResponsePanel,
    validate_bkt,
)
from bktirt.errors import (
    DomainError,
    ForgettingNonzero,
    InvalidPanel,
    OutOfRange,
    Unidentified,
)


def test_validate_accepts_classic_params():
    params = BktParams(0.2, 0.3, 0.0, 0.1, 0.2)
    assert validate_bkt(params, classic=True) is params


def test_validate_rejects_forgetting_under_classic():
    params = BktParams(0.2, 0.3, 0.1, 0.1, 0.2)
    with pytest.raises(ForgettingNonzero):
        validate_bkt(params, classic=True)


def test_validate_rejects_large_slip_under_identified():
    params = BktParams(0.2, 0.3, 0.1, 0.6, 0.2)
    with pytest.raises(Unidentified):
        validate_bkt(params, identified=True)


def test_identified_boundary_is_strict():
    with pytest.raises(Unidentified):
        validate_bkt(BktParams(0.2, 0.3, 0.1, 0.1, 0.5), identified=True)
    validate_bkt(BktParams(0.2, 0.3, 0.1, 0.1, 0.4999), identified=True)


def test_construction_rejects_out_of_range_fields():
    with pytest.raises(OutOfRange):
        BktParams(0.2, 1.3, 0.0, 0.1, 0.2)
    with pytest.raises(OutOfRange):
        BktParams(-0.1, 0.3, 0.0, 0.1, 0.2)
    with pytest.raises(OutOfRange):
        BktParams(0.2, float("nan"), 0.0, 0.1, 0.2)


def test_exact_zero_and_one_are_legal():
    validate_bkt(BktParams(0.0, 1.0, 0.0, 0.0, 1.0))


def test_fields_are_plain_floats_without_negative_zero():
    params = BktParams(0, 1, -0.0, np.float64(0.25), 0.5)
    values = [getattr(params, name) for name in BktParams.__slots__]
    assert [type(v) for v in values] == [float] * 5
    assert [math.copysign(1.0, v) for v in values] == [1.0] * 5
    assert values == [0.0, 1.0, 0.0, 0.25, 0.5]


def test_validate_is_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(100):
        params = BktParams(*rng.random(5))
        assert validate_bkt(validate_bkt(params)) == params


def test_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(3)
    for _ in range(200):
        params = BktParams(*rng.random(5))
        again = BktParams.from_json(params.to_json())
        assert again == params


def test_json_missing_key_rejected():
    with pytest.raises(OutOfRange):
        BktParams.from_json('{"p_init": 0.2}')


class TestIrf4pl:
    def test_asymptote_order_enforced(self):
        with pytest.raises(OutOfRange):
            Irf4pl(a=1.0, b=0.0, c=0.9, d=0.4)
        with pytest.raises(OutOfRange):
            Irf4pl(a=1.0, b=0.0, c=0.5, d=0.5)

    def test_positive_discrimination_enforced(self):
        with pytest.raises(OutOfRange):
            Irf4pl(a=0.0, b=0.0)

    def test_nan_discrimination_rejected(self):
        with pytest.raises(OutOfRange, match="a must be > 0"):
            Irf4pl(a=math.nan, b=0.0)

    def test_asymptotes_must_be_probabilities(self):
        for c, d in ((-0.1, 0.9), (0.1, 1.1), (math.nan, 0.9), (0.1, math.nan), (True, 0.9)):
            with pytest.raises(OutOfRange):
                Irf4pl(a=1.0, b=0.0, c=c, d=d)


class TestResponsePanel:
    def test_accepts_consecutive_attempts(self):
        panel = ResponsePanel(
            [
                (1, 10, 7, 1, 1),
                (1, 11, 7, 2, 0),
                (2, 10, 7, 1, 0),
            ]
        )
        assert panel.skills() == [7]
        assert panel.sequences(7) == {1: [1, 0], 2: [0]}

    def test_rejects_duplicate_keys(self):
        with pytest.raises(InvalidPanel):
            ResponsePanel([(1, 10, 7, 1, 1), (1, 12, 7, 1, 0)])

    def test_rejects_gapped_attempts(self):
        with pytest.raises(InvalidPanel):
            ResponsePanel([(1, 10, 7, 1, 1), (1, 10, 7, 3, 0)])

    def test_rejects_attempts_not_starting_at_one(self):
        with pytest.raises(InvalidPanel):
            ResponsePanel([(1, 10, 7, 2, 1)])

    def test_rejects_nonbinary_response(self):
        with pytest.raises(InvalidPanel):
            ResponsePanel([(1, 10, 7, 1, 2)])

    def test_same_attempt_different_skills_ok(self):
        panel = ResponsePanel(
            [(1, 10, 7, 1, 1), (1, 10, 8, 1, 0)]
        )
        assert panel.skills() == [7, 8]

    def test_csv_round_trip(self, tmp_path):
        panel = ResponsePanel(
            [(1, 10, 7, 1, 1), (1, 11, 7, 2, 0), (2, 10, 8, 1, 1)]
        )
        path = tmp_path / "panel.csv"
        panel.to_csv(str(path))
        assert path.read_text().splitlines()[0] == "person_id,item_id,skill_id,attempt,correct"
        assert ResponsePanel.from_csv(str(path)) == panel

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidPanel):
            ResponsePanel.from_csv(str(path))


def _reference_panel(records):
    """The record-by-record panel check the columnar one replaced.

    Returns (skills, {skill: {person: responses}}) or raises InvalidPanel.
    """
    seen: dict[tuple[int, int], list[tuple[int, int]]] = {}
    keys: set[tuple[int, int, int]] = set()
    for person, _, skill, attempt, correct in records:
        if attempt < 1:
            raise InvalidPanel(f"attempt index must be >= 1, got {attempt}")
        if correct not in (0, 1):
            raise InvalidPanel(f"correct must be 0 or 1, got {correct}")
        if (person, skill, attempt) in keys:
            raise InvalidPanel(f"duplicate key {(person, skill, attempt)}")
        keys.add((person, skill, attempt))
        seen.setdefault((skill, person), []).append((attempt, correct))
    sequences: dict[int, dict[int, list[int]]] = {}
    for (skill, person), pairs in sorted(seen.items()):
        pairs.sort()
        if [a for a, _ in pairs] != list(range(1, len(pairs) + 1)):
            raise InvalidPanel(f"attempts for person {person} are not consecutive")
        sequences.setdefault(skill, {})[person] = [c for _, c in pairs]
    return sorted(sequences), sequences


@st.composite
def _panels(draw):
    """Small panels: valid sequences, then shuffled rows and at most a few
    of duplicates, dropped rows (gaps), shifted attempts and bad responses."""
    records = []
    for person in range(draw(st.integers(0, 4))):
        for skill in draw(st.sets(st.integers(-1, 2), max_size=3)):
            length = draw(st.integers(1, 4))
            records += [
                [person, draw(st.integers(0, 3)), skill, attempt, draw(st.integers(0, 1))]
                for attempt in range(1, length + 1)
            ]
    for _ in range(draw(st.integers(0, 2))):
        if not records:
            break
        k = draw(st.integers(0, len(records) - 1))
        fault = draw(st.sampled_from(["duplicate", "drop", "shift", "correct"]))
        if fault == "duplicate":
            records.append(list(records[k]))
        elif fault == "drop":
            del records[k]
        elif fault == "shift":
            records[k][3] += draw(st.sampled_from([-1, 1]))
        else:
            records[k][4] = draw(st.sampled_from([2, -1]))
    return [tuple(rec) for rec in draw(st.permutations(records))]


class TestColumnarPanelAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(_panels())
    def test_accepts_rejects_and_groups_like_the_reference(self, records):
        try:
            want_skills, want = _reference_panel(records)
        except InvalidPanel:
            with pytest.raises(InvalidPanel):
                ResponsePanel(records)
            return
        panel = ResponsePanel(records)
        assert len(panel.records) == len(records)
        assert panel.skills() == want_skills
        for skill in want_skills + [99]:
            assert panel.sequences(skill) == want.get(skill, {})
            persons, responses, lengths = panel.skill_block(skill)
            expected = want.get(skill, {})
            assert persons.tolist() == list(expected)
            assert lengths.tolist() == [len(seq) for seq in expected.values()]
            assert responses.tolist() == [x for seq in expected.values() for x in seq]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "panel.csv")
            panel.to_csv(path)
            again = ResponsePanel.from_csv(path)
        assert again == panel
        assert again.skills() == want_skills
        assert all(again.sequences(skill) == want[skill] for skill in want_skills)

    @settings(max_examples=300, deadline=None)
    @given(_panels(), st.randoms(use_true_random=False))
    def test_key_sorted_rows_load_like_shuffled_rows(self, records, random):
        # Rows already in (skill, person, attempt) order skip the sort.
        ordered = sorted(records, key=lambda rec: (rec[2], rec[0], rec[3]))
        shuffled = random.sample(records, len(records))
        outcomes = []
        for rows in (ordered, shuffled):
            try:
                outcomes.append(ResponsePanel(rows).records.tolist())
            except InvalidPanel as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("column", [0, 2])
    def test_key_order_compares_across_the_int64_range(self, column):
        # low - high wraps around to 1 in int64, so a check on the sign of
        # the differences would take the rows (high, low) for sorted.
        low, high = -(2**63), 2**63 - 1
        records = [[0, 0, 0, 1, 1], [0, 0, 0, 1, 0]]
        records[0][column], records[1][column] = high, low
        for rows in (records, records[::-1]):
            panel = ResponsePanel([tuple(rec) for rec in rows])
            assert panel.records[:, column].tolist() == [low, high]
            assert panel.records[:, 4].tolist() == [0, 1]

    def test_duplicate_named_by_its_key(self):
        with pytest.raises(InvalidPanel, match=r"duplicate .* key \(1, 7, 2\)"):
            ResponsePanel(
                [(1, 10, 7, 2, 1), (1, 10, 7, 1, 1), (1, 12, 7, 2, 0)]
            )

    def test_records_are_sorted_and_read_only(self):
        panel = ResponsePanel([(2, 0, 7, 1, 1), (1, 5, 8, 1, 0), (1, 4, 7, 1, 0)])
        assert panel.records.tolist() == [[1, 4, 7, 1, 0], [2, 0, 7, 1, 1], [1, 5, 8, 1, 0]]
        with pytest.raises(ValueError):
            panel.records[0, 4] = 1

    @pytest.mark.parametrize("records", [[(1, 2, 3, 4)], [(1, 2, 3, 4, 1, 0)] * 5])
    def test_rows_of_other_widths_rejected(self, records):
        with pytest.raises(ValueError):
            ResponsePanel(records)

    def test_empty_panel_has_no_skills(self):
        panel = ResponsePanel([])
        assert panel.skills() == []
        assert panel.sequences(7) == {}


class TestJsonReadersFuzzed:
    """Each JSON reader either builds its object or raises a DomainError
    subclass, whatever JSON value it is handed."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(json_values | near_objects(bkt_objects))
    def test_bkt_params_build_or_raise_a_domain_error(self, raw):
        try:
            params = BktParams.from_json(json.dumps(raw))
        except DomainError as exc:
            event(type(exc).__name__)
        else:
            event("built")
            assert params == BktParams(**raw)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(json_values | networks())
    def test_ising_network_builds_or_raises_a_domain_error(self, raw):
        try:
            net = IsingNetwork.from_dict(json.loads(json.dumps(raw)))
        except DomainError as exc:
            event(type(exc).__name__)
        else:
            event("built")
            assert net.n_nodes == raw["n"]
