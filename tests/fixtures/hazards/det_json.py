"""Hazard corpus: DET004 (JSON serialized without sorted keys).

Each ``# expect[RULE]`` marks a line the rule must flag (recall); every
unmarked line is a benign look-alike the rule must NOT flag (precision).
The files here are analysis input only — tests never import them.
"""

import json


def bad_dump_dynamic(payload: dict) -> str:
    return json.dumps(payload)  # expect[DET004]


def bad_dump_computed(counters) -> str:
    data = {key: value for key, value in counters}
    return json.dumps(data, indent=2)  # expect[DET004]


def bad_dump_to_file(payload: dict, fh) -> None:
    json.dump(payload, fh)  # expect[DET004]


def good_sorted_dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def good_constant_literal() -> str:
    # A dict literal's order is part of the source, not of hashing.
    return json.dumps({"kind": "hop", "node": 3})


def good_constant_named() -> str:
    record = {"kind": "hop", "node": 3}
    return json.dumps(record)


def good_loads(text: str):
    return json.loads(text)
