"""Sanitizer corpus: DET001 (unseeded RNG) and DET002 (OS entropy).

Each ``# expect[RULE]`` marks a line the rule must flag (recall); every
unmarked line is a benign look-alike the rule must NOT flag (precision).
This file is analysis input only — it is never imported by tests.
"""

import os
import random
import random as rnd
import secrets
import uuid
from random import randint

from repro.core.determinism import seeded_rng


def bad_global_stream():
    return random.random()  # expect[DET001]


def bad_aliased_module():
    return rnd.choice([1, 2, 3])  # expect[DET001]


def bad_from_import():
    return randint(0, 9)  # expect[DET001]


def bad_global_shuffle(items):
    random.shuffle(items)  # expect[DET001]
    return items


def bad_sampled_ports(count):
    # The draw hides two frames down; it is flagged where it happens.
    return [_pick_port() for _ in range(count)]


def _pick_port():
    return _draw_port()


def _draw_port():
    return random.randrange(64)  # expect[DET001]


def bad_unseeded_instance():
    return random.Random()  # expect[DET001]


def bad_urandom():
    return os.urandom(8)  # expect[DET002]


def bad_uuid4():
    return uuid.uuid4()  # expect[DET002]


def bad_system_random():
    return random.SystemRandom()  # expect[DET002]


def bad_secrets():
    return secrets.token_hex(4)  # expect[DET002]


def good_provider(seed: int):
    return seeded_rng(seed).random()


def good_seeded_instance(seed: int):
    return random.Random(seed).random()


def good_instance_method(rng):
    # Methods on a passed-in RNG object resolve to nothing global.
    return rng.random() + rng.randint(0, 3)


def good_uuid5(namespace, name):
    # uuid5 is a deterministic hash of its inputs.
    return uuid.uuid5(namespace, name)


def good_local_random_name():
    random = 4  # shadows the module; calls through it are not RNG reads
    return random


def good_os_path(path):
    return os.path.basename(path)
