"""Representations of a presentation into U(N).

A representation assigns one unitary matrix per generator.  Validity means
every relator evaluates to the identity and every peripheral word lands in
its target conjugacy class, both within the representation's tolerance.

Deformations are parametrized on the left throughout the package:
rho_t(x) = exp(t u_x) rho(x).  The derivative of a word map in that
parametrization is the twisted (Fox calculus) transport implemented by
:func:`word_transport_terms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .presentation import Presentation, Word
from .unitary import (
    ad_basis,
    ad_matrix,
    charpoly_directions,
    check_tolerance,
    class_gap,
    diagonal_model,
    exponential,
    haar_from_rng,
    matrix_from_json,
    matrix_to_json,
    unvec_skew,
)


class NoConvergenceError(RuntimeError):
    """Gauss-Newton refinement stalled before reaching the target tolerance."""

    def __init__(self, message: str, best: "Representation", residuals: "Residuals", iterations: int):
        super().__init__(message)
        self.best = best
        self.residuals = residuals
        self.iterations = iterations


class IllConditionedError(RuntimeError):
    """A rank decision sits inside the ambiguous singular-value band."""

    def __init__(self, context: str, candidates: tuple[int, int], threshold: float):
        self.context = context
        self.candidates = candidates
        self.threshold = threshold
        super().__init__(
            f"{context}: ambiguous rank, candidates {candidates} at threshold {threshold:.3e}"
        )


class NotFoundError(RuntimeError):
    """No valid representation found within the attempt budget."""


def default_tolerance(rank: int) -> float:
    # residual scales grow with the matrix size; keep defaults relative to N
    return 1e-8 * rank


@dataclass(frozen=True)
class Representation:
    presentation: Presentation
    matrices: tuple[np.ndarray, ...]
    tolerance: float

    def __init__(self, presentation: Presentation, matrices: Sequence[np.ndarray],
                 tolerance: float | None = None):
        if len(matrices) != len(presentation.generators):
            raise ValueError(
                f"{len(matrices)} matrices for {len(presentation.generators)} generators"
            )
        n = presentation.rank
        mats = []
        for m in matrices:
            a = np.array(m, dtype=complex)
            if a.shape != (n, n):
                raise ValueError(f"matrix shape {a.shape}, expected {(n, n)}")
            a.setflags(write=False)
            mats.append(a)
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "matrices", tuple(mats))
        object.__setattr__(
            self, "tolerance", default_tolerance(n) if tolerance is None else float(tolerance)
        )

    @property
    def rank(self) -> int:
        return self.presentation.rank


@dataclass(frozen=True)
class Residuals:
    relator_residuals: tuple[float, ...]
    peripheral_residuals: tuple[float, ...]

    @property
    def max(self) -> float:
        return max(self.relator_residuals + self.peripheral_residuals, default=0.0)


def evaluate_word(rep: Representation, word: Word) -> np.ndarray:
    """Ordered product of generator matrices and inverses; empty word is the identity."""
    out = np.eye(rep.rank, dtype=complex)
    for gen, sign in word:
        m = rep.matrices[gen]
        out = out @ (m if sign > 0 else m.conj().T)
    return out


def word_transport_terms(matrices: Sequence[np.ndarray], word: Word, rank: int):
    """Fox-calculus terms of the left-log derivative of the word map.

    Yields (generator index, sign, prefix) such that the derivative of the
    word value W in direction (u_x) is  (sum_terms sign * Ad(prefix) u_gen) W.
    Encodes the cocycle rules u(vw) = u(v) + Ad(rho(v)) u(w) and
    u(x') = -Ad(rho(x')) u(x).  The prefixes are the partial products that
    :func:`evaluate_word` forms, and the generator returns the last of
    them, W itself (the value of ``yield from``).  rank is N, which a
    presentation without generators cannot read off its matrices.
    """
    prefix = np.eye(rank, dtype=complex)
    for gen, sign in word:
        if sign > 0:
            yield gen, 1.0, prefix
            prefix = prefix @ matrices[gen]
        else:
            prefix = prefix @ matrices[gen].conj().T
            yield gen, -1.0, prefix
    return prefix


class _WordChain(NamedTuple):
    """The constraint words of a representation walked once: their values
    (relators, then peripheral words) and the Fox terms of all words in
    word order, as index arrays over the terms and one stack of prefixes."""
    values: list[np.ndarray]
    word: np.ndarray      # (terms,) the word of each term
    gen: np.ndarray       # (terms,) its generator
    sign: np.ndarray      # (terms,) +1.0 or -1.0
    prefixes: np.ndarray  # (terms, N, N)


def _word_chain(rep: Representation) -> _WordChain:
    """Each constraint word's partial products, formed once: a word's Fox
    term prefixes and its value come from one :func:`word_transport_terms`
    walk, the products :func:`evaluate_word` forms."""
    pres = rep.presentation
    words = (*pres.relators, *(p.word for p in pres.peripherals))
    values = []

    def walk():
        for word in words:
            values.append((yield from word_transport_terms(rep.matrices, word, rep.rank)))

    terms = list(walk())
    n = rep.rank
    return _WordChain(
        values,
        np.repeat(np.arange(len(words)), [len(w) for w in words]),
        np.array([gen for gen, _, _ in terms], dtype=np.intp),
        np.array([sign for _, sign, _ in terms]),
        np.array([prefix for _, _, prefix in terms], dtype=complex).reshape(-1, n, n),
    )


def transport_matrix(rep: Representation, chain: _WordChain) -> np.ndarray:
    """Real matrices (words, N^2, n_gen * N^2) of the transports of the
    chain's words in B-coordinates: one :func:`~repvar.unitary.ad_matrix`
    call on all prefixes, each word's terms added into its generator blocks
    in word order."""
    q = rep.rank ** 2
    out = np.zeros((len(chain.values), q, len(rep.presentation.generators) * q))
    for w, gen, sign, ad in zip(chain.word, chain.gen, chain.sign, ad_matrix(chain.prefixes)):
        out[w, :, gen * q:(gen + 1) * q] += sign * ad
    return out


def _residual_blocks(rep: Representation,
                     values: Sequence[np.ndarray] | None = None) -> list[np.ndarray]:
    """The constraint gaps at rep (from its word ``values``, when the caller
    already formed them): W - I per relator value W, then
    :func:`~repvar.unitary.class_gap` per peripheral value.  The residuals,
    validity and the Gauss-Newton objective are all read off these blocks."""
    values = _word_chain(rep).values if values is None else values
    n_rel = len(rep.presentation.relators)
    eye = np.eye(rep.rank)
    return [w - eye for w in values[:n_rel]] + \
        [class_gap(w, p.klass) for w, p in zip(values[n_rel:], rep.presentation.peripherals)]


def _block_residuals(rep: Representation, blocks: Sequence[np.ndarray]) -> Residuals:
    norms = tuple(float(np.linalg.norm(d)) for d in blocks)
    n_rel = len(rep.presentation.relators)
    return Residuals(norms[:n_rel], norms[n_rel:])


def constraint_residual(rep: Representation) -> Residuals:
    """Norms of the constraint gaps: Frobenius distance to the identity per
    relator, :func:`~repvar.unitary.class_residual` per peripheral."""
    return _block_residuals(rep, _residual_blocks(rep))


def is_valid(rep: Representation, tolerance: float | None = None) -> bool:
    tol = rep.tolerance if tolerance is None else tolerance
    return constraint_residual(rep).max <= tol


def _residual_vector(rep: Representation,
                     blocks: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """Smooth residual components: the real and imaginary parts of each
    constraint gap (of ``blocks``, when the caller already formed them)."""
    blocks = _residual_blocks(rep) if blocks is None else blocks
    if not blocks:
        return np.zeros(0)
    return np.concatenate([part for d in blocks for part in (d.real.ravel(), d.imag.ravel())])


def _word_directions(rep: Representation, chain: _WordChain) -> np.ndarray:
    """dW/d(coordinates) for every constraint word value W of the chain:
    array (words, n_gen * N^2, N, N).

    The Fox terms sign * Ad(prefix)(B_a) W of all words are formed at once:
    one :func:`~repvar.unitary.ad_basis` call over all prefixes and one
    einsum that multiplies each term by its word's value.  The terms are
    then added into their word and generator blocks in term order, one
    block add per term (``np.add.at`` makes the same adds but costs about
    20 ns per element, 3x to 10x the loop at N >= 5).  Each term is bitwise
    the one a per-term pair of einsums gives (numpy 2.4), and so are the
    sums and every ``refine`` iterate."""
    n = rep.rank
    q = n * n
    n_gen = len(rep.presentation.generators)
    words = len(chain.values)
    out = np.zeros((words, n_gen, q, n, n), dtype=complex)
    values = np.array(chain.values, dtype=complex).reshape(-1, n, n)[chain.word]
    moved = np.einsum("taij,tjk->taik", ad_basis(chain.prefixes), values)
    for w, gen, d in zip(chain.word, chain.gen, chain.sign[:, None, None, None] * moved):
        out[w, gen] += d
    return out.reshape(words, n_gen * q, n, n)


def _residual_jacobian(rep: Representation, chain: _WordChain) -> np.ndarray:
    """Analytic Jacobian of `_residual_vector` in left-exponential coordinates
    at the word chain of :func:`_word_chain`."""
    n_rel = len(rep.presentation.relators)
    cols = len(rep.presentation.generators) * rep.rank ** 2
    dirs = _word_directions(rep, chain)
    blocks = []
    for dw in dirs[:n_rel]:
        dw = dw.reshape(cols, -1)
        blocks += [dw.real.T, dw.imag.T]
    for w_val, dw in zip(chain.values[n_rel:], dirs[n_rel:]):
        _, dc = charpoly_directions(w_val, dw)
        blocks += [dc.real.T, dc.imag.T]
    if not blocks:
        return np.zeros((0, cols))
    return np.vstack(blocks)


def _retract(rep: Representation, step: np.ndarray) -> Representation:
    """Left-exponential update of every generator by the stacked coordinate
    step, all generators in one batched exponential."""
    n = rep.rank
    x = unvec_skew(step.reshape(len(rep.matrices), n * n), n)
    return Representation(rep.presentation, exponential(x) @ np.array(rep.matrices),
                          rep.tolerance)


def refine(rep: Representation, max_iterations: int = 50, target_tolerance: float = 1e-10,
           trace: list | None = None) -> Representation:
    """Gauss-Newton refinement onto the constraint variety.

    Minimizes the sum of squared relator and class residuals over one
    skew-Hermitian tangent per generator, retracted via the left
    exponential.  Steps are minimal-norm least-squares solutions, cut at a
    fixed 1e-8 times the largest singular value; a step is
    halved until the objective decreases, so accepted iterates never
    increase it.  Each trial point walks its constraint words once
    (:func:`_word_chain`), and the Jacobian is formed once per iteration
    from the accepted point's chain, the Fox terms of all words in one
    batched product; a retraction moves all generators in one batched
    exponential.  Both batched forms give bitwise the numbers of one
    product per term and one exponential per generator, so the iterates do
    too.  ``trace`` receives the objective of the start and of every
    accepted iterate.  Returns the first iterate whose max residual is at
    or below the target; raises :class:`NoConvergenceError` otherwise, with
    the best iterate and its residuals attached.
    """
    current = rep
    chain = _word_chain(current)
    blocks = _residual_blocks(current, chain.values)
    r = _residual_vector(current, blocks)
    obj = float(r @ r)
    res = _block_residuals(current, blocks)
    if trace is not None:
        trace.append(obj)
    if res.max <= target_tolerance:
        return current
    best = (res, current)
    for _ in range(max_iterations):
        jac = _residual_jacobian(current, chain)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=1e-8)
        alpha = 1.0
        while alpha >= 1e-12:
            trial = _retract(current, alpha * step)
            tchain = _word_chain(trial)
            blocks = _residual_blocks(trial, tchain.values)
            tr = _residual_vector(trial, blocks)
            tobj = float(tr @ tr)
            if tobj < obj:
                break
            alpha *= 0.5
        else:
            raise NoConvergenceError(
                f"no descent step found; best residual {best[0].max:.3e}",
                best[1], best[0], max_iterations,
            )
        current, chain, r, obj = trial, tchain, tr, tobj
        if trace is not None:
            trace.append(obj)
        res = _block_residuals(current, blocks)
        if res.max < best[0].max:
            best = (res, current)
        if res.max <= target_tolerance:
            return Representation(current.presentation, current.matrices, target_tolerance)
    raise NoConvergenceError(
        f"no convergence in {max_iterations} iterations; best residual {best[0].max:.3e}",
        best[1], best[0], max_iterations,
    )


def find_representation(pres: Presentation, seed: int = 0, attempts: int = 50,
                        target_tolerance: float = 1e-10,
                        max_iterations: int = 80) -> Representation:
    """Search for a valid representation by seeded random starts plus refinement.

    Generators that appear as single-letter peripheral words start as random
    conjugates of the class's diagonal model, everything else starts Haar.
    Deterministic in the seed: attempt seeds are spawned from the master seed
    one at a time, the children one spawn of all of them gives, and tried in
    order; the first refined success is returned.
    """
    single: dict[int, tuple] = {}
    for p in pres.peripherals:
        if len(p.word) == 1:
            gen, sign = p.word[0]
            single.setdefault(gen, (p.klass, sign))
    master = np.random.SeedSequence(seed)
    for _ in range(attempts):
        rng = np.random.default_rng(master.spawn(1)[0])
        mats = []
        for i in range(len(pres.generators)):
            if i in single:
                spec, sign = single[i]
                h = haar_from_rng(rng, pres.rank)
                v = h @ diagonal_model(spec) @ h.conj().T
                mats.append(v if sign > 0 else v.conj().T)
            else:
                mats.append(haar_from_rng(rng, pres.rank))
        start = Representation(pres, mats, target_tolerance)
        try:
            return refine(start, max_iterations, target_tolerance)
        except NoConvergenceError:
            continue
    raise NotFoundError(f"no representation of {pres.name!r} found in {attempts} attempts")


def _rank_cut(s: np.ndarray, rtol: float, context: str, size: int | None = None,
              terms: int = 1) -> tuple[int, float | None]:
    """Rank at the relative threshold, with an ambiguity band of a factor 10,
    and its gap s[r-1]/s[r] (None at rank 0, at full rank and when s[r] is 0).
    A threshold below the rounding floor eps * size * terms * s[0] cannot
    tell rank from noise; its candidates are the ranks at the floor and at
    the threshold.  size is the larger dimension of the factored matrix
    (default s.size), terms bounds the rounding of one entry in units of eps
    (default 1: an entry formed in one operation).  Every factored matrix is
    formed from unitaries, identities or unit columns, so its scale is 1,
    and one with s[0] <= eps * size * terms is rounding of zero: rank 0."""
    s = np.asarray(s)
    eps_size = np.finfo(float).eps * (s.size if size is None else size) * terms
    if s.size == 0 or s[0] <= eps_size:
        return 0, None
    tau = rtol * s[0]
    floor = eps_size * s[0]
    if tau < floor:
        raise IllConditionedError(context, (int(np.sum(s > floor)), int(np.sum(s > tau))),
                                  float(tau))
    lo = int(np.sum(s > 10.0 * tau))
    hi = int(np.sum(s > tau / 10.0))
    if lo != hi:
        raise IllConditionedError(context, (lo, hi), float(tau))
    r = int(np.sum(s > tau))
    gap = None
    if 0 < r < s.size and s[r] > 0.0:
        gap = float(s[r - 1] / s[r])
    return r, gap


def commutant_dimension(rep: Representation, rank_rtol: float = 1e-8) -> int:
    """Complex dimension of the matrices commuting with the whole image.

    Nullity of the stacked Sylvester system M rho(x) - rho(x) M over all
    generators; 1 means irreducible.  An ambiguous rank cut, which includes a
    threshold below the rounding floor, raises :class:`IllConditionedError`.
    """
    n = rep.rank
    eye = np.eye(n)
    blocks = [np.kron(m, eye) - np.kron(eye, m.T) for m in rep.matrices]
    if not blocks:
        return n * n
    stack = np.vstack(blocks)
    s = np.linalg.svd(stack, compute_uv=False)
    return n * n - _rank_cut(s, rank_rtol, "commutant", size=max(stack.shape))[0]


def conjugate(rep: Representation, g: np.ndarray) -> Representation:
    """Simultaneous conjugation of every generator matrix by g."""
    gh = g.conj().T
    return Representation(
        rep.presentation, [g @ m @ gh for m in rep.matrices], rep.tolerance
    )


def perturb(rep: Representation, rng: np.random.Generator, size: float) -> Representation:
    """Left-exponential perturbation by a random tangent of total B-norm `size`."""
    n = rep.rank
    q = n * n
    v = rng.standard_normal(q * len(rep.matrices))
    v *= size / np.linalg.norm(v)
    return _retract(rep, v)


def rep_to_json(rep: Representation) -> dict:
    return {
        "presentation": rep.presentation.name,
        "N": rep.rank,
        "tolerance": rep.tolerance,
        "generators": {
            name: matrix_to_json(m)
            for name, m in zip(rep.presentation.generators, rep.matrices)
        },
    }


def _json_number(data: dict, key: str, kind: type, default):
    """data[key] (default when absent) as a JSON number of the kind: int
    takes integers, float integers and floats.  A boolean is no number, and
    an integer past the float range is no float."""
    value = data.get(key, default)
    try:
        if isinstance(value, (int, kind)) and not isinstance(value, bool):
            return kind(value)
    except OverflowError:
        pass
    raise ValueError(f"{key!r} must be {'an integer' if kind is int else 'a number'}, "
                     f"got {value!r}")


def rep_from_json(pres: Presentation, data: dict) -> Representation:
    """The representation a JSON object describes; malformed data raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"representation JSON must be an object, not {type(data).__name__}")
    if data.get("presentation") != pres.name:
        raise ValueError(
            f"representation is for {data.get('presentation')!r}, presentation is {pres.name!r}"
        )
    if _json_number(data, "N", int, None) != pres.rank:
        raise ValueError(f"representation rank {data.get('N')} != presentation rank {pres.rank}")
    gens = data.get("generators", {})
    if not isinstance(gens, dict):
        raise ValueError("'generators' must be an object of generator matrices")
    missing = [g for g in pres.generators if g not in gens]
    if missing:
        raise ValueError(f"missing generator matrices: {missing}")
    mats = [matrix_from_json(gens[g]) for g in pres.generators]
    tolerance = _json_number(data, "tolerance", float, default_tolerance(pres.rank))
    check_tolerance(tolerance)
    return Representation(pres, mats, tolerance)
