"""Regenerate perfbench/inputs/polytopes.json from the library's constructors.

Run once, from the repository root, when the input families change:

    PYTHONPATH=src python3 perfbench/make_inputs.py

The benchmark itself never calls this; it reads the committed file. The
known answers live in the hand-written perfbench/inputs/expected.json.
"""

import json
import os

from minkdecomp import catalogue_list, cyclic, minkowski_sum, polytope_to_dict, stack_pyramid

HERE = os.path.dirname(os.path.abspath(__file__))
SEGMENT = [[0, 0, 0, 0], [1, 3, 2, 5]]


def families():
    out = {e.name: e.build() for e in catalogue_list()}
    for n in (6, 7, 8):
        out[f"cyclic-{n}-4+segment"] = minkowski_sum(cyclic(n, 4), SEGMENT)
    for n in range(8, 15):
        out[f"cyclic-{n}-4"] = cyclic(n, 4)
    for n in range(8, 12):
        out[f"cyclic-{n}-4+apex"] = stack_pyramid(cyclic(n, 4), 0)
    return out


def main():
    polys = {}
    for name, p in families().items():
        data = polytope_to_dict(p)
        data["name"] = name
        polys[name] = data
    path = os.path.join(HERE, "inputs", "polytopes.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(polys, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(polys)} polytopes to {path}")


if __name__ == "__main__":
    main()
