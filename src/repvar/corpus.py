"""Built-in example presentations and reference representations.

The same texts ship as files under corpus/ at the repository root for use
with the command line tool.
"""

from __future__ import annotations

import numpy as np

from .presentation import Presentation, parse_presentation
from .repspace import Representation

TORUS_PUNCTURE = """\
# one-holed torus, rank 1: the boundary word is the commutator
group torus_puncture
rank 1
generators a b
peripheral boundary = a b a' b' : 0
"""

SPHERE3 = """\
# three-punctured sphere, rank 2, regular rational classes (rigid)
group sphere3
rank 2
generators a b c
relator a b c
peripheral Pa = a : 1/3, -1/3
peripheral Pb = b : 1/5, -1/5
peripheral Pc = c : 1/7, -1/7
"""

SPHERE4 = """\
# four-punctured sphere, rank 2, generic regular classes
group sphere4
rank 2
generators a b c d
relator a b c d
peripheral Pa = a : 1/5, -1/5
peripheral Pb = b : 1/7, -1/7
peripheral Pc = c : 1/11, -1/11
peripheral Pd = d : 1/13, -1/13
"""

GENUS2 = """\
# closed genus-2 surface, rank 2, no peripheral constraints
group genus2
rank 2
generators a b c d
relator a b a' b' c d c' d'
"""

TEXTS = {
    "torus_puncture": TORUS_PUNCTURE,
    "sphere3": SPHERE3,
    "sphere4": SPHERE4,
    "genus2": GENUS2,
}


def load(name: str) -> Presentation:
    return parse_presentation(TEXTS[name])


def diagonal_representation(pres: Presentation, angle_rows) -> Representation:
    """Diagonal representation, tolerance 1e-12, from one row of angles (in turns) per generator."""
    mats = [np.diag(np.exp(2j * np.pi * np.asarray(row, dtype=float))) for row in angle_rows]
    return Representation(pres, mats, 1e-12)


def torus_puncture_representation() -> Representation:
    """Angles 0.3 and 0.45; any pair works: the boundary commutator is automatically trivial."""
    return diagonal_representation(load("torus_puncture"), [[0.3], [0.45]])


def genus2_reducible() -> Representation:
    """Direct sum of two distinct characters of the genus-2 surface group.

    A reducible point of the U(2) representation variety; the commutant is the
    diagonal algebra and the quadratic cone at this point is singular.
    """
    angles = [
        (0.23, 0.71),
        (0.41, 0.13),
        (0.07, 0.59),
        (0.67, 0.29),
    ]
    return diagonal_representation(load("genus2"), angles)
