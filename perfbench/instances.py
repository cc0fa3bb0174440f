"""Generated inputs of the benchmark and their closed-form ground truth.

Every input the program receives is built here from the workload seed:
presentation texts, `find` seeds, cocycle coefficients and probe seeds.
Nothing in this module calls the program except through the public
functions of the `repvar` package.
"""

from __future__ import annotations

import zlib

import numpy as np

from repvar import repspace

SPHERE_FIND_TOL = 1e-11    # as the test fixtures use for punctured spheres
SURFACE_FIND_TOL = 1e-12   # as the test fixtures use for closed surfaces
CLI_FIND_TOL = 1e-10       # the CLI's default --tol for find
# The library's default lift tolerance, relative to |u|^2, and its default
# pairing tolerance; every benchmark cocycle has |u| = 1.
LIFT_TOL = 1e-7
PAIRING_TOL = 1e-8

# U(3) classes (p/q, 2p/q, -3p/q) with p = 1.  For q = 5 the class repeats an
# eigenvalue (-3/5 = 2/5 mod 1): the degenerate rung of `probe_mix`.
REGULAR_U3_QS = (7, 11, 13, 17)
DEGENERATE_U3_QS = (5, 7, 11, 13)
# The find seed at which the degenerate-class defect was documented; pinned
# so that the rung keeps showing that defect until the program fixes it.
DEGENERATE_FIND_SEED = 1
SPHERE8_QS = (5, 7, 11, 13, 17, 19, 23, 29)


def derive_seed(seed: int, *labels) -> int:
    """A 63-bit seed that depends only on the workload seed and the labels."""
    words = [int(seed) % 2 ** 64] + [zlib.crc32(str(label).encode()) for label in labels]
    return int(np.random.SeedSequence(words).generate_state(1, dtype=np.uint64)[0] >> 1)


def closed_surface_text(genus: int, rank: int) -> str:
    gens, rel = [], []
    for i in range(genus):
        a, b = f"a{i}", f"b{i}"
        gens += [a, b]
        rel += [a, b, a + "'", b + "'"]
    return (f"group genus{genus}_u{rank}\nrank {rank}\n"
            f"generators {' '.join(gens)}\nrelator {' '.join(rel)}\n")


def sphere_text(name: str, rank: int, qs) -> str:
    """Punctured sphere x0 ... x(n-1) = 1 with classes (1/q, -1/q) at U(2) and
    (1/q, 2/q, -3/q) at U(3), one q per puncture."""
    gens = [f"x{i}" for i in range(len(qs))]
    lines = [f"group {name}", f"rank {rank}", "generators " + " ".join(gens),
             "relator " + " ".join(gens)]
    for g, q in zip(gens, qs):
        angles = (f"1/{q}, -1/{q}" if rank == 2 else f"1/{q}, 2/{q}, -3/{q}")
        lines.append(f"peripheral P{g} = {g} : {angles}")
    return "\n".join(lines) + "\n"


def expected_h1(genus: int, punctures: int, rank: int) -> int:
    """dim H^1_par at an irreducible U(N) point with regular peripheral classes:
    (2g - 2 + n) N^2 - n N + 2.  For closed surfaces this is (2g - 2) N^2 + 2,
    for U(2) n-punctured spheres 2(n - 3)."""
    return (2 * genus - 2 + punctures) * rank * rank - punctures * rank + 2


def irreducible_point(pres, seed: int, label: str, tol: float):
    """Find a point, re-drawing the find seed until the commutant is scalar.

    Returns (representation, find seed)."""
    for draw in range(50):
        fseed = derive_seed(seed, "find", label, draw) % (2 ** 31)
        rep = repspace.find_representation(pres, seed=fseed, target_tolerance=tol)
        if repspace.commutant_dimension(rep) == 1:
            return rep, fseed
    raise RuntimeError(f"{label}: no irreducible point in 50 draws")


def unit_coefficients(seed: int, label: str, size: int) -> np.ndarray:
    rng = np.random.default_rng(derive_seed(seed, "cocycle", label))
    c = rng.standard_normal(size)
    return c / np.linalg.norm(c)
