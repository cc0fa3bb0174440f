import ctypes
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from repvar import cohomology, corpus, presentation, repspace

from oracles import genus2_direct_sum

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"


def blas_core() -> str:
    """The core name of the OpenBLAS bundled with numpy (the library numpy
    has loaded), read through ctypes, or "unknown".  The bitwise contracts of
    stacked products are properties of that core's kernels."""
    root = Path(np.__file__).resolve().parent
    for path in sorted([*(root.parent / "numpy.libs").glob("*openblas*"),
                        *(root / ".dylibs").glob("*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return "unknown"


def pytest_report_header(config):
    return f"numpy {np.__version__}, OpenBLAS core {blas_core()}"


def corpus_files():
    return sorted(CORPUS_DIR.glob("*.grp"))


@pytest.fixture(scope="session")
def torus_pres():
    return corpus.load("torus_puncture")


@pytest.fixture(scope="session")
def sphere3_pres():
    return corpus.load("sphere3")


@pytest.fixture(scope="session")
def sphere4_pres():
    return corpus.load("sphere4")


@pytest.fixture(scope="session")
def genus2_pres():
    return corpus.load("genus2")


@pytest.fixture(scope="session")
def torus_rep():
    return corpus.torus_puncture_representation()


def genus2_irreducible(genus2_pres):
    """The first irreducible genus-2 `find` point over seeds 2..7: generic
    Haar starts at a closed-surface group give irreducible points."""
    for seed in range(2, 8):
        rep = repspace.find_representation(genus2_pres, seed=seed, attempts=20,
                                           target_tolerance=1e-12)
        if repspace.commutant_dimension(rep) == 1:
            return rep
    raise RuntimeError("no irreducible genus-2 representation found")


def sphere_point(pres):
    """The `find` point (seed 1) of a punctured-sphere presentation."""
    return repspace.find_representation(pres, seed=1, attempts=50, target_tolerance=1e-11)


def degenerate_u3():
    """A U(3) four-punctured sphere whose classes (1/q, 2/q, -3/q) repeat an
    eigenvalue at q = 5.  Find seed 1 returns the repeated angle split by
    about 1e-6; lifts there fail at order 2 or 3, decided by rounding."""
    lines = ["group sphere4_u3_degenerate", "rank 3", "generators x0 x1 x2 x3",
             "relator x0 x1 x2 x3"]
    lines += [f"peripheral Px{i} = x{i} : 1/{q}, 2/{q}, -3/{q}"
              for i, q in enumerate((5, 7, 11, 13))]
    pres = presentation.parse_presentation("\n".join(lines) + "\n")
    return repspace.find_representation(pres, seed=1, target_tolerance=1e-11)


# genus-2 direct sums by name: the (rank, find seed) of each block, and
# h1_par = (2g - 2) N^2 + 2k at g = 2, k = 2
DIRECT_SUMS = {"u1+u1": (((1, 1), (1, 2)), 12), "u2+u1": (((2, 1), (1, 2)), 22),
               "u2+u2": (((2, 1), (2, 2)), 36)}


@pytest.fixture(scope="session")
def genus2_irr(genus2_pres):
    return genus2_irreducible(genus2_pres)


@pytest.fixture(scope="session")
def genus2_red():
    return corpus.genus2_reducible()


@pytest.fixture(scope="session")
def sphere3_rep(sphere3_pres):
    return sphere_point(sphere3_pres)


@pytest.fixture(scope="session")
def sphere4_rep(sphere4_pres):
    return sphere_point(sphere4_pres)


@pytest.fixture(scope="session")
def torus_cc(torus_rep):
    return cohomology.assemble_complex(torus_rep)


@pytest.fixture(scope="session")
def genus2_irr_cc(genus2_irr):
    return cohomology.assemble_complex(genus2_irr)


@pytest.fixture(scope="session")
def genus2_red_cc(genus2_red):
    return cohomology.assemble_complex(genus2_red)


@pytest.fixture(scope="session")
def sphere3_cc(sphere3_rep):
    return cohomology.assemble_complex(sphere3_rep)


@pytest.fixture(scope="session")
def sphere4_cc(sphere4_rep):
    return cohomology.assemble_complex(sphere4_rep)


@pytest.fixture(scope="session")
def degenerate_u3_cc():
    """The complex at :func:`degenerate_u3`."""
    return cohomology.assemble_complex(degenerate_u3())


@pytest.fixture(scope="session")
def direct_sum_cc():
    """The complex of a DIRECT_SUMS point by name, each assembled once."""
    return cache(lambda name: cohomology.assemble_complex(genus2_direct_sum(DIRECT_SUMS[name][0])))


@pytest.fixture(scope="session")
def genus2_u8_cc():
    """A genus-2 U(8) point (find seed 1), h1 = 6 * 8^2 + 2 = 130: the
    first rank whose basis form splits its pair products into row blocks."""
    pres = presentation.parse_presentation(
        "group genus2_u8\nrank 8\ngenerators a b c d\nrelator a b a' b' c d c' d'\n")
    return cohomology.assemble_complex(repspace.find_representation(pres, seed=1))


@pytest.fixture(scope="session")
def corpus_points(torus_rep, genus2_irr, genus2_red, sphere3_rep, sphere4_rep):
    """Named (representation, cone complex) pairs covering the whole corpus."""
    return {
        "torus_puncture": torus_rep,
        "genus2_irr": genus2_irr,
        "genus2_red": genus2_red,
        "sphere3": sphere3_rep,
        "sphere4": sphere4_rep,
    }


def random_cocycle(cc, basis, rng, scale=1.0):
    """Random combination of basis cocycles with unit (then scaled) coefficients."""
    coeffs = rng.standard_normal(len(basis))
    coeffs *= scale / np.linalg.norm(coeffs)
    uvec = basis.matrix @ coeffs
    return cc.unstack_gen(uvec)
