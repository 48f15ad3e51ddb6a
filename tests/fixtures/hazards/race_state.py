"""Hazard corpus: RACE001 (module state shared across engines)."""

REGISTRY: dict = {}
LIMITS = [10, 20]
FROZEN = ("a", "b")
NAMES = frozenset({"x", "y"})
_HITS = 0

REGISTRY["boot"] = True  # import-time init is exempt
LIMITS.append(30)  # likewise


def bad_register(name, value):
    REGISTRY[name] = value  # expect[RACE001]


def bad_append(value):
    LIMITS.append(value)  # expect[RACE001]


def bad_delete(name):
    del REGISTRY[name]  # expect[RACE001]


def bad_batch_register(pairs):
    REGISTRY.update(pairs)  # expect[RACE001]


def bad_global_augment():
    global LIMITS
    LIMITS += [40]  # expect[RACE001]


def bad_global_counter():
    global _HITS
    _HITS += 1  # expect[RACE001]


def bad_lookup_with_stats(name):
    # The write hides two calls down; it is flagged where it happens.
    _note_hit()
    return REGISTRY.get(name)


def _note_hit():
    bad_global_counter()


def good_local_shadow():
    REGISTRY = {}
    REGISTRY["x"] = 1
    return REGISTRY


def good_param_shadow(LIMITS):
    LIMITS.append(99)
    return LIMITS


def good_read_only(name):
    return REGISTRY.get(name), len(LIMITS), FROZEN, NAMES


def good_reads_scalar_global():
    global _HITS  # declaring the name is not a write
    return _HITS + 1
