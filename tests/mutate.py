"""Seeded structural mutations of JSON documents, for fuzzing the files the CLI reads."""

import copy

REPLACEMENTS = [None, True, 0, -1, 1.5, float("nan"), 1e308, 2 ** 40, "x", [], {}, [1],
                [[1, 2]], 10 ** 400, "2.5", -0.0, [[[0.5]]]]


def mutate_tree(doc, rng):
    """Delete or replace one member at a random depth of the document."""
    node = doc
    while True:
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        if isinstance(node[key], (dict, list)) and node[key] and rng.random() < 0.7:
            node = node[key]
        elif rng.random() < 0.2:
            del node[key]
            return
        else:
            node[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
            return
