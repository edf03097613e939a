"""Point-sampling positivity tests for the kernels N(x, y)^(-lambda).

A kernel is positive definite iff every finite Gram matrix of evaluations is
positive semidefinite, so a single configuration with a negative eigenvalue
is a certificate that the scaled metric is not projectively induced.  This
module builds those Gram matrices on sampled interior points and runs a
random-restart local search for violating configurations.

Powers N^(-lambda) use the principal logarithm; that is only single-valued
while N stays in the right half-plane, so every evaluation tracks a
branch_ok flag instead of failing silently.

Random configurations are almost never witnesses: a negative eigenvalue
needs the point moments concentrated on a negative eigendirection of the
degree-2 coefficient block, which a generic cloud misses.  The search
therefore derives candidate configurations from that block.  Each negative
eigenvector decomposes into coordinate atoms; a diagonal atom (i, i) maps
to an antipodal pair {x, -x} with x on coordinate i, and an off-diagonal
atom (i, j) maps to a cube-root triple {w^k u + conj(w)^k v : k = 0, 1, 2}
with u on coordinate i and v on coordinate j.  Both constructions cancel
the constant-term and degree-1 moments while keeping the targeted degree-2
moment, so the configuration starts inside or near the negative cone and a
short local descent does the rest.  Pure random restarts stay in the mix
so the search remains honest on domains where no guidance is available.

Evaluations are batched: a configuration is one (k, d) array, and a stack
of them gets its norm matrices from one evaluation (domains.norm_matrix; on
I and III the pivots of one elimination of every I - Z_a Z_b*), its
membership from one domains.contains call (on I and III the pivots of one
stacked L D L* elimination of I - Z Z*, no SVD) and its spectra from one
eigvalsh.  The random points of a configuration come from one sample_points
call, which gauges them together.
With degree-2 guidance restart 0, which then starts from a structured
proposal, runs alone first; the restarts then advance in lockstep chunks of
at most 64, each step evaluating every restart still running in the chunk
in one stacked objective.  Each restart keeps its own generator.  Every
descent step reads one record of 1 + k + 2kd standard normals from it (k
points in C^d): the first below Phi^-1(0.7) moves the whole configuration,
else the argmax of the next k picks the one point that moves, and the last
2kd, read in pairs, are the real and imaginary parts of the step.  A
restart draws its records _DRAW_STEPS steps at a time in one call; a record
is still the next stretch of the restart's own stream, so a restart makes
the same draws as it would alone, and the result, the first restart in
order that finds a witness, depends neither on the grouping nor on
_DRAW_STEPS.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .domains import DomainModel, contains, norm_matrix, parse_domain, sample_points, upper_triangle

DEFAULT_WITNESS_TOL = 1e-6
DEFAULT_RADIUS_CAP = 0.7

_DESCENT_STEPS = 50
_SIGMA_INITIAL = 0.04
_SIGMA_GROW = 1.3
_SIGMA_SHRINK = 0.93
_SIGMA_MAX = 0.15
_SIGMA_MIN = 0.002
_ATOM_CUT = 1e-6
_CHUNK = 64  # restarts per lockstep group, apart from a guided restart 0
_DRAW_STEPS = 16  # descent step records each restart draws at a time
_WHOLE_MOVE = NormalDist().inv_cdf(0.7)  # a step record's first normal below it moves every point


class BranchError(Exception):
    """N(x, y) left the right half-plane; the principal power is invalid."""


@dataclass(frozen=True, eq=False)
class GramReport:
    points: tuple[np.ndarray, ...]
    lam: float
    min_eigenvalue: float
    psd: bool
    branch_ok: bool


@dataclass(frozen=True, eq=False)
class SearchResult:
    found: bool
    report: GramReport | None
    seed: int
    restarts_used: int
    evals_used: int


def gram_matrix(
    dom: DomainModel,
    lam: float,
    points: Sequence[np.ndarray] | np.ndarray,
    require_branch: bool = True,
) -> tuple[np.ndarray, bool | np.ndarray]:
    """Hermitian matrix of N(x_a, x_b)^(-lambda) values and the branch flag.

    points is a (k, d) array or a sequence of k points; a (..., k, d) stack
    of configurations gives (..., k, k) matrices and one flag per
    configuration.  Entries come from one evaluation of the principal power
    |N|^(-lambda) e^(-i lambda Arg N), in real arithmetic, on the upper
    triangle of the stacked norm matrix, mirrored by conjugation, so
    Hermitian symmetry is exact and the diagonal is real.  A pair whose
    N is NaN or has Re N <= 0 violates the branch; with require_branch that
    raises BranchError naming the first offending pair in row-major order
    (of the first offending configuration).
    """
    pts = np.asarray(points, dtype=np.complex128)
    k = pts.shape[-2]
    rows, cols = upper_triangle(k)
    nv = norm_matrix(dom, pts[..., rows, None, :], pts[..., cols, None, :])[..., 0, 0]
    bad = ~(nv.real > 0.0)
    branch_ok = ~bad.any(axis=-1)
    if require_branch and not branch_ok.all():
        config, i = divmod(int(np.argmax(bad)), len(rows))
        where = f" of configuration {config}" if pts.ndim > 2 else ""
        raise BranchError(
            f"Re N <= 0 at point pair ({rows[i]}, {cols[i]}){where}: "
            f"N = {complex(nv.reshape(-1, len(rows))[config, i])}"
        )
    # exp(-lambda Log N) without complex exp and log: the same branch, to rounding
    modulus = np.abs(nv) ** -lam
    theta = -lam * np.arctan2(nv.imag, nv.real)
    values = np.empty_like(nv)
    values.real = modulus * np.cos(theta)
    values.imag = modulus * np.sin(theta)
    h = np.empty(pts.shape[:-2] + (k, k), dtype=np.complex128)
    h[..., cols, rows] = values.conj()
    h[..., rows, cols] = values
    # mathematically real; drop evaluation noise in the imaginary part
    diag = np.arange(k)
    h[..., diag, diag] = values[..., rows == cols].real
    return h, (bool(branch_ok) if branch_ok.ndim == 0 else branch_ok)


def min_gram_eigenvalue(
    dom: DomainModel,
    lam: float,
    points: Sequence[np.ndarray] | np.ndarray,
    require_branch: bool = True,
) -> tuple[float, bool]:
    h, branch_ok = gram_matrix(dom, lam, points, require_branch)
    return float(np.linalg.eigvalsh(h)[0]), branch_ok


def _witness_threshold(h: np.ndarray) -> float | np.ndarray:
    """A configuration is a witness when its min eigenvalue is below
    -DEFAULT_WITNESS_TOL * max(1, max |H_ab|): the eigensolver's rounding grows with
    the entries, which N^(-lambda) can push far past 1.  Non-finite entries
    give a non-finite threshold.  A (..., k, k) stack gives one per matrix."""
    return -DEFAULT_WITNESS_TOL * np.maximum(np.abs(h).max(axis=(-2, -1)), 1.0)


def gram_report(
    dom: DomainModel,
    lam: float,
    points: Sequence[np.ndarray] | np.ndarray,
) -> GramReport:
    """Min eigenvalue and verdict of one configuration; a ValueError if the
    Gram matrix has non-finite entries (N^(-lambda) overflowed)."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        h, branch_ok = gram_matrix(dom, lam, points, require_branch=False)
    if not np.isfinite(h).all():
        raise ValueError(
            f"Gram matrix of N^(-lambda) at lambda = {float(lam)!r} has non-finite entries "
            f"on {dom.spec_string}; it has no eigenvalues to report"
        )
    min_eig = float(np.linalg.eigvalsh(h)[0])
    return GramReport(
        tuple(np.asarray(p, dtype=np.complex128) for p in points),
        float(lam),
        min_eig,
        bool(min_eig >= _witness_threshold(h)),
        branch_ok,
    )


def _quadratic_atoms(dom: DomainModel, lam: float) -> list[tuple[int, int, float]] | None:
    """Coordinate atoms of the most negative degree-2 eigendirection.

    Returns [(i, j, coef), ...] sorted by |coef| descending, ties by (i, j),
    where the eigenvector reads sum coef * z_i z_j, or None when the degree-2
    block is positive semidefinite, not finite or too large to build (no
    guidance to offer).  The direction is the Calabi verdict's degree-2 witness.
    """
    from .calabi import calabi_matrix, psd_verdict
    from .multiindex import MemoryLimitError, basis

    try:
        direction = psd_verdict(calabi_matrix(dom, lam, 2)).per_block[1].witness
    except (MemoryLimitError, RuntimeError):  # too large, or not finite
        return None
    if direction is None:
        return None
    bas = basis(dom.d, 2)
    sl = bas.degree_slice(2)
    atoms: list[tuple[int, int, float]] = []
    for pos in range(sl.start, sl.stop):
        coef = float(direction[pos - sl.start])
        if abs(coef) < _ATOM_CUT:
            continue
        nonzero = np.flatnonzero(bas.exponents[pos])
        atoms.append((int(nonzero[0]), int(nonzero[-1]), coef))
    atoms.sort(key=lambda a: -abs(a[2]))
    # Equal |coef| differ by rounding: ties within 1e-12 relative go by position (i, j).
    tie, keys = np.inf, []
    for i, j, coef in atoms:
        tie = tie if abs(coef) >= tie * (1.0 - 1e-12) else abs(coef)
        keys.append((-tie, i, j))
    return [atom for _, atom in sorted(zip(keys, atoms))] or None


_OMEGA = complex(-0.5, 0.5 * np.sqrt(3.0))  # primitive cube root of unity


def _structured_points(
    dom: DomainModel,
    atoms: Sequence[tuple[int, int, float]],
    n_points: int,
    rng: np.random.Generator,
    scale: float,
    signs: Sequence[float],
) -> np.ndarray:
    """Moment-cancelling (n_points, d) configuration aimed at the negative eigendirection.

    Atoms are packed greedily: antipodal pairs for diagonal atoms, cube-root
    triples for off-diagonal ones.  Leftover slots get one origin point and
    small random samples; the eigensolver can assign them zero weight.
    """
    points: list[np.ndarray] = []
    for (i, j, _), sign in zip(atoms, signs):
        need = 2 if i == j else 3
        if len(points) + need > n_points:
            break
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        if i == j:
            x = np.zeros(dom.d, dtype=np.complex128)
            x[i] = scale * phase
            points.extend([x, -x])
        else:
            u = np.zeros(dom.d, dtype=np.complex128)
            v = np.zeros(dom.d, dtype=np.complex128)
            u[i] = scale * phase
            v[j] = scale * np.conj(phase) * sign
            for k in range(3):
                points.append(_OMEGA**k * u + np.conj(_OMEGA) ** k * v)
    if len(points) < n_points:
        points.append(np.zeros(dom.d, dtype=np.complex128))
    points.extend(sample_points(dom, n_points - len(points), rng, 0.25 * scale))
    return np.array(points)


def _objective(
    dom: DomainModel, lam: float, configs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(valid, min eigenvalue, witness threshold) of each configuration in an
    (m, k, d) stack.  A branch violation or an overflow makes a configuration
    invalid; the valid ones share one stacked eigvalsh."""
    h, branch_ok = gram_matrix(dom, lam, configs, require_branch=False)
    threshold = _witness_threshold(h)
    valid = branch_ok & np.isfinite(threshold)
    low = np.full(len(configs), np.nan)
    if valid.any():
        low[valid] = np.linalg.eigvalsh(h[valid])[:, 0]
    return valid, low, threshold


def _lockstep(
    dom: DomainModel,
    lam: float,
    n_points: int,
    seeds: Sequence[np.random.SeedSequence],
    guidance: Sequence[Sequence[tuple[int, int, float]] | None],
    eval_cap: int,
) -> tuple[np.ndarray, int | None, np.ndarray | None]:
    """Seeded restarts advanced together: propose, then descend on the minimum eigenvalue.

    Restart j draws from its own generator on seeds[j], with atoms
    guidance[j] (None: random start), and spends at most eval_cap
    evaluations; its draws and decisions do not depend on the others.  Each
    stage and each descent step evaluates every restart's configuration in
    one stacked objective.  Descent step t reads record t of each live
    restart's step records (see the module docstring), which every live
    restart draws into its row of one buffer of _DRAW_STEPS records per
    restart when t is a multiple of _DRAW_STEPS: restarts live at step t
    have all taken t steps, so one index addresses every row, and the step
    itself is stack arithmetic.  A restart finishes when its cap is spent, its
    best value is below its threshold (a witness), an objective is invalid
    or its steps run out; restarts after the first one holding a witness are
    dropped, since they can no longer win.  Returns (evals per restart,
    index of the first restart with a witness or None, its points).
    """
    n = len(seeds)
    rngs = [np.random.default_rng(s) for s in seeds]
    evals = np.zeros(n, dtype=np.int64)
    points = np.empty((n, n_points, dom.d), dtype=np.complex128)
    best = np.full(n, np.nan)  # nan until a restart holds a valid configuration
    threshold = np.full(n, np.nan)
    live = np.ones(n, dtype=bool)

    # Structured proposals, in order per restart: plus, then flipped signs.
    owners: list[int] = []
    proposals: list[np.ndarray] = []
    for j, (rng, atoms) in enumerate(zip(rngs, guidance)):
        if atoms is None:
            continue
        scale = DEFAULT_RADIUS_CAP * rng.uniform(0.25, 0.72)
        plus = tuple(1.0 for _ in atoms)
        flipped = tuple(float(rng.choice((-1.0, 1.0))) for _ in atoms)
        # Draws that all agree give plus again, up to a symmetry of the domain.
        for signs in (plus,) if len(set(flipped)) == 1 else (plus, flipped):
            owners.append(j)
            proposals.append(_structured_points(dom, atoms, n_points, rng, scale, signs))
    stack = np.array(proposals).reshape(-1, n_points, dom.d)
    inside = contains(dom, stack).all(axis=-1)
    due = []
    for c, j in enumerate(owners):
        if inside[c] and evals[j] < eval_cap:
            evals[j] += 1
            due.append(c)
    if due:
        valid, low, thr = _objective(dom, lam, stack[due])
        for c, ok, val, t in zip(due, valid, low, thr):
            j = owners[c]
            if ok and (np.isnan(best[j]) or val < best[j]):
                points[j], best[j], threshold[j] = stack[c], val, t

    # Random starts where no structured proposal was valid.
    start = np.flatnonzero(np.isnan(best))
    for j in start:
        points[j] = sample_points(dom, n_points, rngs[j], DEFAULT_RADIUS_CAP)
    start = start[evals[start] < eval_cap]
    if len(start):
        evals[start] += 1
        valid, best[start], threshold[start] = _objective(dom, lam, points[start])
        live[start[~valid]] = False

    sigma = np.full(n, _SIGMA_INITIAL)
    steps = 4 * _DESCENT_STEPS
    width = 1 + n_points + 2 * n_points * dom.d  # one step record, see the module docstring
    block = min(_DRAW_STEPS, steps)
    records = np.empty((n, block, width))
    for t in range(steps):
        witness = best < threshold
        live &= (evals < eval_cap) & ~witness
        if witness.any():  # restarts after the first witness can no longer win
            live[np.argmax(witness) :] = False
        owners_now = np.flatnonzero(live)
        if not len(owners_now):
            break
        if t % block == 0:  # every live restart has read the records it drew
            for j in owners_now:
                rngs[j].standard_normal(out=records[j])
        record = records[owners_now, t % block]
        pick = np.argmax(record[:, 1 : 1 + n_points], axis=1)
        moves = (record[:, :1] < _WHOLE_MOVE) | (np.arange(n_points) == pick[:, None])
        noise = (sigma[owners_now, None] * record[:, 1 + n_points :]).view(np.complex128)
        current = points[owners_now]
        candidates = np.where(moves[..., None], current + noise.reshape(current.shape), current)
        inside = contains(dom, candidates).all(axis=-1)
        owners_now, candidates = owners_now[inside], candidates[inside]
        if not len(owners_now):
            continue
        evals[owners_now] += 1
        valid, low, thr = _objective(dom, lam, candidates)
        live[owners_now[~valid]] = False
        better = valid & (low < best[owners_now])
        worse = valid & ~better
        gain = owners_now[better]
        points[gain], best[gain], threshold[gain] = candidates[better], low[better], thr[better]
        sigma[gain] = np.minimum(sigma[gain] * _SIGMA_GROW, _SIGMA_MAX)
        sigma[owners_now[worse]] = np.maximum(sigma[owners_now[worse]] * _SIGMA_SHRINK, _SIGMA_MIN)
    witness = best < threshold
    if not witness.any():
        return evals, None, None
    first = int(np.argmax(witness))
    return evals, first, points[first]


def _minimize_witness(
    dom: DomainModel,
    lam: float,
    points: np.ndarray,
) -> np.ndarray:
    """Greedily drop points while the configuration stays a witness.

    The Gram matrix is evaluated once; each trial drop reads its principal
    submatrix, whose entries are exactly those a fresh evaluation would give.
    The search keeps only branch-valid configurations, and every subset of
    one is branch-valid too.
    """
    h, _ = gram_matrix(dom, lam, points)
    keep = list(range(len(points)))
    changed = True
    while changed and len(keep) > 2:
        changed = False
        for i in range(len(keep)):
            trial = keep[:i] + keep[i + 1 :]
            sub = h[np.ix_(trial, trial)]
            if np.linalg.eigvalsh(sub)[0] < _witness_threshold(sub):
                keep = trial
                changed = True
                break
    return points[keep]


def search_violation(
    dom: DomainModel,
    lam: float,
    n_points: int = 6,
    budget: int = 2000,
    seed: int = 0,
) -> SearchResult:
    """Guided random-restart search for a non-PSD Gram configuration.

    budget counts Gram evaluations across all restarts; each restart spends
    at most min(2 + 50, budget) of them.  Two out of three restarts start
    from a configuration aimed at a negative degree-2 eigendirection when
    one exists; the rest start from random samples.  Each restart draws
    from its own spawned seed, one fixed-length record per descent step,
    read from blocks of _DRAW_STEPS records (see _lockstep), so its path
    does not depend on the other restarts.  With guidance restart 0 runs
    alone first, since its structured start often finds the witness at once; the
    restarts run in lockstep chunks of at most 64, one stacked objective per
    step (see _lockstep), spawning their seeds chunk by chunk and stopping
    after the first chunk that holds a witness, so a large budget costs
    nothing before it is spent.  The result
    is the first restart in order that finds a witness, and the evaluations
    and restarts counted are those up to and including it, so a
    (seed, budget) pair always gives the same result.  Absence of a witness
    is a valid outcome.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    per_restart = 2 + _DESCENT_STEPS
    n_restarts = max(1, budget // per_restart)
    root = np.random.SeedSequence(seed)
    atoms = _quadratic_atoms(dom, lam)

    evals_total = lo = 0
    while lo < n_restarts:
        hi = 1 if lo == 0 and atoms is not None else min(lo + _CHUNK, n_restarts)
        # Successive spawns continue the same children, so chunks draw as one spawn would.
        chunk = root.spawn(hi - lo)
        guidance = [atoms if i % 3 != 2 else None for i in range(lo, hi)]
        # Gram entries that overflow make a configuration invalid, not a warning.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            evals, first, winner = _lockstep(
                dom, lam, n_points, chunk, guidance, min(per_restart, budget)
            )
        if first is not None:
            evals_total += int(evals[: first + 1].sum())
            winner = _minimize_witness(dom, lam, winner)
            report = gram_report(dom, lam, winner)
            return SearchResult(True, report, seed, lo + first + 1, evals_total)
        evals_total += int(evals.sum())
        lo = hi
    return SearchResult(False, None, seed, n_restarts, evals_total)


# --- witness serialization ----------------------------------------------------


def witness_payload(dom: DomainModel, result: SearchResult) -> dict:
    """JSON-ready dict for an archived witness configuration."""
    if not result.found or result.report is None:
        raise ValueError("no witness to serialize")
    rep = result.report
    return {
        "domain": dom.spec_string,
        "lambda": rep.lam,
        "points": [
            [[float(c.real), float(c.imag)] for c in np.asarray(p).reshape(-1)]
            for p in rep.points
        ],
        "min_eig": rep.min_eigenvalue,
        "seed": result.seed,
    }


def replay_witness(payload: dict) -> tuple[DomainModel, GramReport, float]:
    """Recompute a stored witness; returns (domain, fresh report, |stored - fresh|)."""
    dom = parse_domain(payload["domain"])
    lam = float(payload["lambda"])
    points = [
        np.array([complex(re, im) for re, im in point], dtype=np.complex128)
        for point in payload["points"]
    ]
    report = gram_report(dom, lam, points)
    drift = abs(report.min_eigenvalue - float(payload["min_eig"]))
    return dom, report, drift
