"""Hazard corpus: DET006 (id() values escaping an identity comparison)."""


def bad_id_as_key(cache: dict, obj):
    cache[id(obj)] = obj  # expect[DET006]


def bad_id_as_tag(obj):
    return f"obj-{id(obj)}"  # expect[DET006]


def known_miss_id_sort_key(objects):
    # A bare `id` passed as a function reference is a real hazard the
    # rule does not catch (it only sees calls); kept here to document it.
    return sorted(objects, key=id)


def good_id_compare(a, b):
    # Same-process identity test (better spelled `a is b`) is tolerated.
    return id(a) == id(b)
