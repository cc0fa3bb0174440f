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
from typing import Sequence

import numpy as np

from .presentation import Presentation, Word
from .unitary import (
    ad_matrix,
    charpoly_directions,
    class_gap,
    diagonal_model,
    exponential,
    haar_from_rng,
    matrix_from_json,
    matrix_to_json,
    skew_basis,
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


def word_transport_terms(matrices: Sequence[np.ndarray], word: Word):
    """Fox-calculus terms of the left-log derivative of the word map.

    Yields (generator index, sign, prefix) such that the derivative of the
    word value W in direction (u_x) is  (sum_terms sign * Ad(prefix) u_gen) W.
    Encodes the cocycle rules u(vw) = u(v) + Ad(rho(v)) u(w) and
    u(x') = -Ad(rho(x')) u(x).
    """
    n = matrices[0].shape[0]
    prefix = np.eye(n, dtype=complex)
    for gen, sign in word:
        if sign > 0:
            yield gen, 1.0, prefix
            prefix = prefix @ matrices[gen]
        else:
            prefix = prefix @ matrices[gen].conj().T
            yield gen, -1.0, prefix


def transport_matrix(rep: Representation, word: Word) -> np.ndarray:
    """Real matrix (N^2, n_gen * N^2) of the word transport in B-coordinates."""
    n = rep.rank
    q = n * n
    n_gen = len(rep.presentation.generators)
    out = np.zeros((q, n_gen * q))
    for gen, sign, prefix in word_transport_terms(rep.matrices, word):
        out[:, gen * q:(gen + 1) * q] += sign * ad_matrix(prefix)
    return out


def _word_values(rep: Representation) -> list[np.ndarray]:
    """The constraint word values at rep: relators, then peripheral words."""
    pres = rep.presentation
    return [evaluate_word(rep, w) for w in (*pres.relators, *(p.word for p in pres.peripherals))]


def _residual_blocks(rep: Representation,
                     values: Sequence[np.ndarray] | None = None) -> list[np.ndarray]:
    """The constraint gaps at rep (from its word ``values``, when the caller
    already formed them): W - I per relator value W, then
    :func:`~repvar.unitary.class_gap` per peripheral value.  The residuals,
    validity and the Gauss-Newton objective are all read off these blocks."""
    values = _word_values(rep) if values is None else values
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


def _word_directions(rep: Representation, word: Word, w_val: np.ndarray) -> np.ndarray:
    """dW/d(coordinates) for the word value W = w_val: array (n_gen * N^2, N, N).

    All Fox terms of the word are formed at once, sign * Ad(prefix)(basis) W
    by two batched einsums over the stacked prefixes, then added into their
    generator blocks in word order.  The batch axis only repeats einsum's
    loop over the contracted indices, so each term is bitwise the one a
    per-term einsum gives (numpy 2.4), and so are the sums and every
    ``refine`` iterate."""
    n = rep.rank
    q = n * n
    out = np.zeros((len(rep.presentation.generators) * q, n, n), dtype=complex)
    terms = list(word_transport_terms(rep.matrices, word))
    prefixes = np.array([prefix for _, _, prefix in terms]).reshape(-1, n, n)
    moved = np.einsum("tij,ajk,tlk->tail", prefixes, skew_basis(n), prefixes.conj())
    for (gen, sign, _), d in zip(terms, np.einsum("taij,jk->taik", moved, w_val)):
        out[gen * q:(gen + 1) * q] += sign * d
    return out


def _residual_jacobian(rep: Representation, values: Sequence[np.ndarray]) -> np.ndarray:
    """Analytic Jacobian of `_residual_vector` in left-exponential coordinates
    at the word ``values`` of :func:`_word_values`."""
    n_rel = len(rep.presentation.relators)
    cols = len(rep.presentation.generators) * rep.rank ** 2
    blocks = []
    for word, w_val in zip(rep.presentation.relators, values[:n_rel]):
        dw = _word_directions(rep, word, w_val).reshape(cols, -1)
        blocks += [dw.real.T, dw.imag.T]
    for p, w_val in zip(rep.presentation.peripherals, values[n_rel:]):
        _, dc = charpoly_directions(w_val, _word_directions(rep, p.word, w_val))
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
           rank_rtol: float = 1e-8, trace: list | None = None) -> Representation:
    """Gauss-Newton refinement onto the constraint variety.

    Minimizes the sum of squared relator and class residuals over one
    skew-Hermitian tangent per generator, retracted via the left
    exponential.  Steps are minimal-norm least-squares solutions; a step is
    halved until the objective decreases, so accepted iterates never
    increase it.  Each trial point evaluates its constraint words once, and
    the Jacobian is formed once per iteration from the accepted point's word
    values, all Fox terms of a word in one batched product; a retraction
    moves all generators in one batched exponential.  Both batched forms
    give bitwise the numbers of one product per term and one exponential
    per generator, so the iterates do too.  ``trace`` receives the
    objective of the start and of every accepted iterate.  Returns the
    first iterate whose max residual is at or below the target; raises
    :class:`NoConvergenceError` otherwise, with the best iterate and its
    residuals attached.
    """
    current = rep
    values = _word_values(current)
    blocks = _residual_blocks(current, values)
    r = _residual_vector(current, blocks)
    obj = float(r @ r)
    res = _block_residuals(current, blocks)
    if trace is not None:
        trace.append(obj)
    if res.max <= target_tolerance:
        return current
    best = (res, current)
    for _ in range(max_iterations):
        jac = _residual_jacobian(current, values)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=rank_rtol)
        alpha = 1.0
        while alpha >= 1e-12:
            trial = _retract(current, alpha * step)
            tvalues = _word_values(trial)
            blocks = _residual_blocks(trial, tvalues)
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
        current, values, r, obj = trial, tvalues, tr, tobj
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


def _rank_cut(s: np.ndarray, rtol: float, context: str, gaps: dict | None = None,
              size: int | None = None) -> int:
    """Rank at the relative threshold, with an ambiguity band of a factor 10.
    A threshold below the rounding floor eps * size * s[0] cannot tell rank
    from noise; its candidates are the ranks at the floor and at the threshold.
    size is the larger dimension of the factored matrix (default s.size).
    Every factored matrix is formed from unitaries, identities or unit
    columns, so its scale is 1, and one with s[0] <= eps * size is rounding
    of zero: rank 0."""
    s = np.asarray(s)
    eps_size = np.finfo(float).eps * (s.size if size is None else size)
    if s.size == 0 or s[0] <= eps_size:
        if gaps is not None:
            gaps[context] = None
        return 0
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
    if gaps is not None:
        gaps[context] = gap
    return r


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
    return n * n - _rank_cut(s, rank_rtol, "commutant", size=max(stack.shape))


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


def _json_number(data: dict, key: str, convert, default):
    value = data.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key!r} must be a number, got {value!r}") from None


def rep_from_json(pres: Presentation, data: dict) -> Representation:
    """The representation a JSON object describes; malformed data raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"representation JSON must be an object, not {type(data).__name__}")
    if data.get("presentation") != pres.name:
        raise ValueError(
            f"representation is for {data.get('presentation')!r}, presentation is {pres.name!r}"
        )
    if _json_number(data, "N", int, -1) != pres.rank:
        raise ValueError(f"representation rank {data.get('N')} != presentation rank {pres.rank}")
    gens = data.get("generators", {})
    if not isinstance(gens, dict):
        raise ValueError("'generators' must be an object of generator matrices")
    missing = [g for g in pres.generators if g not in gens]
    if missing:
        raise ValueError(f"missing generator matrices: {missing}")
    mats = [matrix_from_json(gens[g]) for g in pres.generators]
    tolerance = _json_number(data, "tolerance", float, default_tolerance(pres.rank))
    return Representation(pres, mats, tolerance)
