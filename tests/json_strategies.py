"""Hypothesis strategies for JSON input files, shared by the in-process
fuzz of the JSON readers (test_params.py) and of the commands that read
them (test_cli.py)."""

from __future__ import annotations

import math

from hypothesis import strategies as st

from bktirt import BktParams

# JSON values as json.loads returns them: NaN and the infinities included,
# which json writes and reads as NaN and Infinity. Integers stay within 25,
# so no node count asks for a large network.
json_scalars = (
    st.none() | st.booleans() | st.integers(-25, 25) | st.floats() | st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# A number a reader should take, or a near miss of one.
near_numbers = st.floats(-0.5, 1.5) | st.sampled_from(
    [0, 1, -1, True, None, "0.5", [0.5], math.nan, math.inf, -math.inf, 1e308]
)


@st.composite
def near_objects(draw, valid):
    """An object drawn from ``valid``, then at most two faults: a key
    dropped, a key added, or a value swapped for a near miss or any JSON
    value."""
    raw = draw(valid)
    keys = sorted(raw)
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["drop", "add", "near", "any"]))
        key = draw(st.sampled_from(keys))
        if fault == "drop":
            raw.pop(key, None)
        elif fault == "add":
            raw[draw(st.text(max_size=4))] = draw(json_values)
        else:
            raw[key] = draw(near_numbers if fault == "near" else json_values)
    return raw


bkt_objects = st.fixed_dictionaries({name: st.floats(0.0, 1.0) for name in BktParams.__slots__})


@st.composite
def networks(draw):
    """A valid network object of 1 to 6 nodes, then at most two faults
    inside it: "n" swapped (-1 to 25, or any JSON scalar), a near-miss
    coupling entry (a node off the end, the same node twice, a bad
    strength, any JSON value), a pair listed again, or a field or emission
    pair swapped or dropped."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    couplings = [
        [i, j, draw(st.floats(-1.0, 1.0))]
        for i, j in draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    ]
    fields = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    emissions = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
                              min_size=n, max_size=n))
    node = st.integers(-1, n) | json_scalars
    listed = [entry[:2] for entry in couplings]
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["n", "coupling", "repeat", "field", "emission"]))
        if fault == "n":
            n = draw(st.integers(-1, 25) | json_scalars)
        elif fault == "coupling":
            couplings.append(draw(st.tuples(node, node, near_numbers).map(list) | json_values))
        elif fault == "repeat" and listed:
            i, j = draw(st.sampled_from(listed))
            couplings.append([j, i, draw(near_numbers)])
        elif fault == "field":
            k = draw(st.integers(0, len(fields)))
            fields[k:k + 1] = draw(st.lists(near_numbers | json_values, max_size=2))
        elif fault == "emission":
            k = draw(st.integers(0, len(emissions)))
            emissions[k:k + 1] = draw(st.lists(st.lists(near_numbers, min_size=1, max_size=3)
                                               | json_values, max_size=2))
    raw = {"n": n, "couplings": couplings, "fields": fields, "emissions": emissions}
    return draw(near_objects(st.just(raw)))
