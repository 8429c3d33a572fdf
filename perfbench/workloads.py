"""The four workloads: which committed inputs, which mode, and the seeded
transform that turns each base polytope into the JSON text an op starts from.

The transform is plain Python (no library call), so a fresh seed can be
drawn for any claim: the seed relabels the vertices, and for the images
it also picks a scale and an integer shift. None of these changes the
verdict or the oracle dimension, so the known answers carry over.
"""

import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")

CATALOGUE = [
    "triangle", "square", "tetrahedron", "square-pyramid", "triangular-bipyramid",
    "octahedron", "cube-3", "pentagonal-prism", "capped-prism", "bd182", "bd198",
    "cyclic-6-4", "delta-1-2", "delta-1-3", "delta-1-4", "delta-1-5", "delta-2-2",
    "delta-2-3", "delta-2-4", "delta-3-3", "delta-3-4", "wedge-3", "wedge-4",
    "wedge-5", "wedge-6", "simplex-4", "simplex-5", "simplex-6", "sum-18-edges",
    "sum-19-edges", "sum-20-edges", "sum-22-edges", "sum-25-edges", "sum-27-edges",
]
SCALES = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 3), Fraction(7, 4)]
IMAGES_PER_ENTRY = 5
# The certificate search depends on the labels, so those workloads decide
# two labellings of each base in a pass; an input's latency pools them,
# which narrows the swing from one seed to the next.
LABELLINGS = 2

# name -> (base names, copies per base, mode, keep facets, scale and shift)
WORKLOADS = {
    "catalogue-cold": (CATALOGUE, LABELLINGS, "certificates-first", False, False),
    "oracle-images": (CATALOGUE, IMAGES_PER_ENTRY, "oracle-only", True, True),
    "decomposable-sums": (
        ["sum-25-edges", "cyclic-6-4+segment", "cyclic-7-4+segment", "cyclic-8-4+segment"],
        LABELLINGS, "certificates-first", False, False,
    ),
    "indecomposable-cyclic": (
        [f"cyclic-{n}-4" for n in range(8, 15)] + [f"cyclic-{n}-4+apex" for n in range(8, 12)],
        LABELLINGS, "certificates-first", False, False,
    ),
}


class Op:
    """One input: the JSON text an op parses, and what it must come out as."""

    __slots__ = ("name", "text", "mode", "verdict", "oracle_dimension")

    def __init__(self, name, text, mode, verdict, oracle_dimension):
        self.name = name
        self.text = text
        self.mode = mode
        self.verdict = verdict
        self.oracle_dimension = oracle_dimension


def _coord(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def transform(base, rng, scale_shift):
    """A relabelled (and, with scale_shift, scaled and shifted) copy of a
    polytope file dict; facets are renumbered and kept sorted."""
    n = len(base["vertices"])
    perm = list(range(n))
    rng.shuffle(perm)
    new_of = [0] * n
    for new, old in enumerate(perm):
        new_of[old] = new
    scale, shift = Fraction(1), [0] * base["dimension"]
    if scale_shift:
        scale = rng.choice(SCALES)
        shift = [rng.randint(-9, 9) for _ in range(base["dimension"])]
    out = dict(base)
    out["vertices"] = [
        [_coord(Fraction(c) * scale + s) for c, s in zip(base["vertices"][old], shift)]
        for old in perm
    ]
    out["facets"] = sorted(sorted(new_of[x] for x in f) for f in base["facets"])
    return out


def build(workload, seed):
    """The ops of one workload for one seed, in the order a pass runs them."""
    names, copies, mode, keep_facets, scale_shift = WORKLOADS[workload]
    with open(os.path.join(INPUTS, "polytopes.json"), encoding="utf-8") as fh:
        bases = json.load(fh)
    with open(os.path.join(INPUTS, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    rng = random.Random(f"{workload}/{seed}")
    ops = []
    for name in names:
        for k in range(copies):
            data = transform(bases[name], rng, scale_shift)
            if not keep_facets:
                del data["facets"]
            # Images are distinct inputs; relabelled copies are one input.
            label = f"{name}#{k}" if scale_shift else name
            want = expected[name]
            ops.append(Op(label, json.dumps(data, sort_keys=True), mode,
                          want["verdict"], want["oracle_dimension"]))
    return ops
