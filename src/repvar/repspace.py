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
    charpoly_stack,
    check_tolerance,
    class_coefficients,
    diagonal_model,
    exponential,
    haar_stack,
    json_number,
    matrix_from_json,
    matrix_to_json,
    shown,
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

    @classmethod
    def _of_stack(cls, presentation: Presentation, stack: np.ndarray,
                  tolerance: float) -> "Representation":
        """The representation whose matrices are the rows of a complex stack
        (generators, N, N) that the caller formed and hands over: the stack
        is frozen in place, not copied or checked."""
        stack.setflags(write=False)
        rep = object.__new__(cls)
        object.__setattr__(rep, "presentation", presentation)
        object.__setattr__(rep, "matrices", tuple(stack))
        object.__setattr__(rep, "tolerance", tolerance)
        return rep

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
    return word_transport_terms(rep.matrices, word, rep.rank)[0]


def word_transport_terms(matrices: Sequence[np.ndarray], word: Word, rank: int,
                         prefixes: np.ndarray | None = None):
    """Fox-calculus terms of the left-log derivative of the word map.

    Term t belongs to the word's t-th letter (gen_t, sign_t): the
    derivative of the word value W in direction (u_x) is
    (sum_t sign_t * Ad(prefixes[t]) u_(gen_t)) W.  Encodes the cocycle
    rules u(vw) = u(v) + Ad(rho(v)) u(w) and u(x') = -Ad(rho(x')) u(x): a
    letter's prefix is the product of the letters before it, an inverse
    letter's includes its own factor.  The prefixes are the partial
    products of the word, left to right, written into ``prefixes``
    (len(word), N, N), a new array when None; returns (W, prefixes).  rank
    is N, which a presentation without generators cannot read off its
    matrices.
    """
    if prefixes is None:
        prefixes = np.empty((len(word), rank, rank), dtype=complex)
    prefix = np.eye(rank, dtype=complex)
    for t, (gen, sign) in enumerate(word):
        if sign > 0:
            prefixes[t] = prefix
            prefix = prefix @ matrices[gen]
        else:
            prefix = prefix @ matrices[gen].conj().T
            prefixes[t] = prefix
    return prefix, prefixes


class _WordChain(NamedTuple):
    """The constraint words of a representation walked once: their values
    (relators, then peripheral words) and the Fox terms of all words in
    word order, as index arrays over the terms and one stack of prefixes.
    A round holds the r-th term of every (word, generator) block, so one
    fancy-index add per round adds each block's terms in term order.  The
    index arrays are read-only, as chains of one presentation share them."""
    values: np.ndarray    # (words, N, N)
    word: np.ndarray      # (terms,) the word of each term
    gen: np.ndarray       # (terms,) its generator
    sign: np.ndarray      # (terms,) +1.0 or -1.0
    prefixes: np.ndarray  # (terms, N, N)
    rounds: tuple         # the term indices of each round


def _word_chain(rep: Representation, layout: _WordChain | None = None) -> _WordChain:
    """Each constraint word's partial products, formed once: a word's Fox
    term prefixes and its value come from one :func:`word_transport_terms`
    walk, written into arrays allocated before the walk.  ``layout`` is a
    chain at a point of the same presentation (``refine`` passes its
    start's), whose index arrays and rounds this chain shares; without it
    they are built from this walk's terms."""
    pres = rep.presentation
    n = rep.rank
    words = (*pres.relators, *(p.word for p in pres.peripherals))
    values = np.empty((len(words), n, n), dtype=complex)
    prefixes = np.empty((sum(map(len, words)), n, n), dtype=complex)
    t = 0
    for w, word in enumerate(words):
        values[w], _ = word_transport_terms(rep.matrices, word, n, prefixes[t:t + len(word)])
        t += len(word)
    if layout is not None:
        return layout._replace(values=values, prefixes=prefixes)
    letters = [letter for word in words for letter in word]
    word_of = np.repeat(np.arange(len(words)), [len(word) for word in words])
    gen_of = np.array([gen for gen, _ in letters], dtype=np.intp)
    block_terms: dict = {}  # each (word, generator) block's terms in term order
    for t, block in enumerate(zip(word_of.tolist(), gen_of.tolist())):
        block_terms.setdefault(block, []).append(t)
    rounds = [np.array([ts[r] for ts in block_terms.values() if r < len(ts)], dtype=np.intp)
              for r in range(max(map(len, block_terms.values()), default=0))]
    sign_of = np.array([sign for _, sign in letters], dtype=float)
    chain = _WordChain(values, word_of, gen_of, sign_of, prefixes, tuple(rounds))
    for index in (chain.word, chain.gen, chain.sign, *chain.rounds):
        index.setflags(write=False)
    return chain


def _block_sums(chain: _WordChain, terms: np.ndarray, n_gen: int) -> np.ndarray:
    """The chain's Fox ``terms`` (terms, ...), signed and summed into their word
    and generator blocks (words, n_gen, ...), one fancy-index add per round: a
    round meets each block at most once, so every block sums its terms one at
    a time in term order, as one add per term would (``np.add.at`` makes the
    same adds but costs about 20 ns per element, 3x to 10x a loop at N >= 5)."""
    out = np.zeros((len(chain.values), n_gen, *terms.shape[1:]), dtype=terms.dtype)
    signed = chain.sign.reshape(-1, *[1] * (terms.ndim - 1)) * terms
    for r in chain.rounds:
        out[chain.word[r], chain.gen[r]] += signed[r]
    return out


def transport_matrix(rep: Representation, chain: _WordChain) -> np.ndarray:
    """Real matrices (words, N^2, n_gen * N^2) of the transports of the
    chain's words in B-coordinates: the :func:`_block_sums` of one
    :func:`~repvar.unitary.ad_matrix` call on all prefixes."""
    n_gen, q = len(rep.presentation.generators), rep.rank ** 2
    sums = _block_sums(chain, ad_matrix(chain.prefixes), n_gen)  # (words, n_gen, q, q)
    return sums.transpose(0, 2, 1, 3).reshape(len(sums), q, n_gen * q)


def _residual_blocks(rep: Representation, values: np.ndarray | None = None,
                     targets: np.ndarray | None = None) -> list[np.ndarray]:
    """The constraint gaps at rep (from its word ``values`` and the class
    ``targets`` of :func:`~repvar.unitary.class_coefficients`, when the
    caller already formed them): W - I per relator value W, then per
    peripheral value the difference of its characteristic polynomial
    coefficients from its class's, all peripherals in one
    :func:`~repvar.unitary.charpoly_stack` call.  The residuals, validity
    and the Gauss-Newton objective are all read off these blocks."""
    pres = rep.presentation
    values = _word_chain(rep).values if values is None else values
    if targets is None:
        targets = class_coefficients([p.klass for p in pres.peripherals], rep.rank)
    n_rel = len(pres.relators)
    return [*(values[:n_rel] - np.eye(rep.rank)), *(charpoly_stack(values[n_rel:]) - targets)]


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


def _residual_vector(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Smooth residual components: the real and imaginary parts of each
    constraint gap of :func:`_residual_blocks`."""
    if not blocks:
        return np.zeros(0)
    return np.concatenate([part for d in blocks for part in (d.real.ravel(), d.imag.ravel())])


def _word_directions(rep: Representation, chain: _WordChain) -> np.ndarray:
    """dW/d(coordinates) for every constraint word value W of the chain:
    array (words, n_gen * N^2, N, N), the :func:`_block_sums` of the Fox
    terms Ad(prefix)(B_a) W of all words, formed at once by one
    :func:`~repvar.unitary.ad_basis` call over all prefixes and one einsum
    that multiplies each term by its word's value.  Each term is bitwise the
    one a per-term pair of einsums gives (numpy 2.4), and so are the sums
    and every ``refine`` iterate."""
    n, n_gen = rep.rank, len(rep.presentation.generators)
    moved = np.einsum("taij,tjk->taik", ad_basis(chain.prefixes), chain.values[chain.word])
    return _block_sums(chain, moved, n_gen).reshape(len(chain.values), n_gen * n * n, n, n)


def _residual_jacobian(rep: Representation, chain: _WordChain) -> np.ndarray:
    """Analytic Jacobian of `_residual_vector` in left-exponential coordinates
    at the word chain of :func:`_word_chain`: the relator rows are the real
    and imaginary parts of the word directions, the class rows those of the
    coefficient derivatives of all peripherals, one
    :func:`~repvar.unitary.charpoly_stack` call on their values and
    directions."""
    n = rep.rank
    n_rel = len(rep.presentation.relators)
    cols = len(rep.presentation.generators) * n * n
    dirs = _word_directions(rep, chain)
    _, dc = charpoly_stack(chain.values[n_rel:], dirs[n_rel:])
    # each word's k real-part rows, then its k imaginary-part rows
    return np.concatenate([
        np.stack([d.real, d.imag], axis=1).swapaxes(2, 3).reshape(len(d) * 2 * k, cols)
        for d, k in ((dirs[:n_rel].reshape(n_rel, cols, n * n), n * n), (dc, n))])


def _retract(rep: Representation, step: np.ndarray) -> Representation:
    """Left-exponential update of every generator by the stacked coordinate
    step, all generators in one batched exponential, whose result stack
    the trial point holds without a copy."""
    n = rep.rank
    x = unvec_skew(step.reshape(len(rep.matrices), n * n), n)
    return Representation._of_stack(rep.presentation, exponential(x) @ np.array(rep.matrices),
                                    rep.tolerance)


def refine(rep: Representation, max_iterations: int = 80, target_tolerance: float = 1e-10,
           trace: list | None = None) -> Representation:
    """Gauss-Newton refinement onto the constraint variety.

    Minimizes the sum of squared relator and class residuals over one
    skew-Hermitian tangent per generator, retracted via the left
    exponential.  Steps are minimal-norm least-squares solutions, cut at a
    fixed 1e-8 times the largest singular value; a step is
    halved until the objective decreases, so accepted iterates never
    increase it.  Each trial point walks its constraint words once
    (:func:`_word_chain`) into arrays that share the start chain's index
    arrays, and its class gaps are one stacked
    :func:`~repvar.unitary.charpoly_stack` call against class targets
    looked up once per call.  The Jacobian is formed once per iteration
    from the accepted point's chain: the Fox terms of all words in one
    batched product, the class rows of all peripherals in one stacked call;
    a retraction moves all generators in one batched exponential.  Every
    batched and stacked form gives bitwise the numbers of one product per
    term, one kernel call per peripheral and one exponential per generator,
    so the iterates do too.  ``trace`` receives the objective of the start and of every
    accepted iterate.  Returns the first iterate whose max residual is at
    or below the target; raises :class:`NoConvergenceError` otherwise, with
    the best iterate and its residuals attached.
    """
    current = rep
    chain = _word_chain(current)
    targets = class_coefficients([p.klass for p in rep.presentation.peripherals], rep.rank)
    blocks = _residual_blocks(current, chain.values, targets)
    r = _residual_vector(blocks)
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
            tchain = _word_chain(trial, chain)
            blocks = _residual_blocks(trial, tchain.values, targets)
            tr = _residual_vector(blocks)
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
                        target_tolerance: float = 1e-10) -> Representation:
    """Search for a valid representation by seeded random starts plus refinement.

    Generators that appear as single-letter peripheral words start as random
    conjugates of the class's diagonal model, everything else starts Haar;
    an attempt draws the Haar factors of all generators in one
    :func:`~repvar.unitary.haar_stack` call.  Deterministic in the seed:
    attempt seeds are spawned from the master seed one at a time, the
    children one spawn of all of them gives, and tried in order, each refined
    by :func:`refine` within its default iteration count; the first success
    is returned.
    """
    single: dict[int, tuple] = {}
    for p in pres.peripherals:
        if len(p.word) == 1:
            gen, sign = p.word[0]
            single.setdefault(gen, (p.klass, sign))
    master = np.random.SeedSequence(seed)
    for _ in range(attempts):
        rng = np.random.default_rng(master.spawn(1)[0])
        mats = list(haar_stack(rng, len(pres.generators), pres.rank))
        for i, (spec, sign) in single.items():
            v = mats[i] @ diagonal_model(spec) @ mats[i].conj().T
            mats[i] = v if sign > 0 else v.conj().T
        start = Representation(pres, mats, target_tolerance)
        try:
            return refine(start, target_tolerance=target_tolerance)
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


def rep_from_json(pres: Presentation, data: dict) -> Representation:
    """The representation a JSON object describes; malformed data raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"representation JSON must be an object, not {type(data).__name__}")
    if data.get("presentation") != pres.name:
        raise ValueError(f"representation is for {shown(data.get('presentation'))}, "
                         f"presentation is {pres.name!r}")
    if json_number(data.get("N"), "'N'", int) != pres.rank:
        raise ValueError(f"representation rank {shown(data['N'])} != presentation rank {pres.rank}")
    gens = data.get("generators", {})
    if not isinstance(gens, dict):
        raise ValueError("'generators' must be an object of generator matrices")
    missing = [g for g in pres.generators if g not in gens]
    if missing:
        raise ValueError(f"missing generator matrices: {missing}")
    mats = [matrix_from_json(gens[g]) for g in pres.generators]
    tolerance = json_number(data.get("tolerance", default_tolerance(pres.rank)), "'tolerance'")
    check_tolerance(tolerance)
    return Representation(pres, mats, tolerance)
