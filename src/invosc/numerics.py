"""Shared numerical machinery.

One quadrature engine: a row-vectorized trapezoid rule, and three changes
of variable after which it serves other integrals (Takahasi & Mori, Publ.
RIMS 9, 721 (1974)): tanh-sinh on a finite interval, exp-sinh on a half
line and the Ooura-Mori rule for Fourier integrals on a half line.  Besides
it: a Cardano cubic solver with Newton refinement; the matrix
exponential by scaling and squaring and, with it, the Gramian of a linear
system driven by white noise; e^z K_{1/4}(z) by the trapezoid rule for
every z > 0; a fourth-order split-step Fourier solver for the
time-dependent Schrodinger equation on a periodic grid without an
absorbing boundary, on Chin's force-gradient splitting 4A (Phys. Lett. A
226, 344 (1997)): two FFT pairs per step, and every kick inside its step,
with guard bands in x and k and a grid sized from the packet's free flow;
and a fixed-step RK4 integrator for the memory-kernel (generalized
Langevin) equation of motion, stepped as powers of its step matrix.

Integrands are vectorized: the rules call ``f`` on a 2-D float ndarray with
one row of nodes per open interval, and ``f`` returns an array of the same
shape, real or complex.

Everything here is deterministic and allocation-per-call; no module
state is mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (GaussianPacket, SystemParams, TabulatedForce, evaluate_initial,
                   force_at, force_pieces)

# The trapezoid rule starts from 1 interval and doubles; a row may stop from
# _TRAPEZOID_MIN intervals on and must have stopped by _TRAPEZOID_MAX.
_TRAPEZOID_MIN = 16
_TRAPEZOID_MAX = 2**15
# integrate_fourier's first step, the most times it halves it, and the range
# of u its sums run over
_FOURIER_STEP, _FOURIER_HALVINGS, _FOURIER_RANGE = 0.1, 6, (-9.0, 6.0)


class QuadratureError(RuntimeError):
    """Raised when a quadrature cannot reach the requested tolerance.

    Carries the best available estimate in the ``best`` attribute.
    """

    def __init__(self, message: str, best: "QuadratureResult | None" = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class QuadratureResult:
    """A value with its error estimate and integrand evaluations; arrays of
    one entry per row but from ``integrate_adaptive`` with scalar ends."""

    value: complex | float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int


def integrate_trapezoid(f, lo, hi, rel_tol, *params, abs_tol: float = 0.0) -> QuadratureResult:
    """The trapezoid rule on one interval [lo[i], hi[i]] per row i, by doubling.

    ``lo``, ``hi``, ``rel_tol`` and each of ``params`` broadcast to one
    value per row.  ``f(x, *columns)`` gets a 2-D float ndarray ``x`` with
    one row of nodes for each row still open, and the matching entries of
    ``params`` as column vectors, and returns an array of the shape of
    ``x``.  The rule converges geometrically on an analytic integrand over
    a period, or negligible at both ends, or even about ``lo`` and
    negligible at ``hi`` (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).
    Each doubling keeps the nodes and adds the midpoints; a row stays open,
    from ``_TRAPEZOID_MIN`` intervals on, only while its last change exceeds
    ``max(abs_tol, rel_tol |value|)``, so a row whose sum is not finite (no
    doubling mends it) closes.  No row's value depends on another.

    Returns the values, the last change of each, and the number of
    integrand evaluations, in a QuadratureResult.  Raises QuadratureError,
    carrying that result, if a row is still open at ``_TRAPEZOID_MAX``
    intervals.
    """
    lo, hi, rel_tol, *params = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (lo, hi, rel_tol, *params)))
    width = hi - lo
    ends = f(np.stack([lo, hi], axis=1), *(p[:, None] for p in params))
    total = 0.5 * (ends[:, 0] + ends[:, 1])   # the sum with half weights at the ends
    value = width * total
    change = np.full(value.shape, np.inf)
    open_rows = np.arange(value.size)
    evals = ends.size
    n = 1
    while open_rows.size:
        if n == _TRAPEZOID_MAX:
            raise QuadratureError(f"trapezoid rule did not converge in {n} intervals",
                                  QuadratureResult(value, change, evals))
        rows = open_rows[:, None]
        midpoints = lo[rows] + width[rows] * ((np.arange(n) + 0.5) / n)
        total[open_rows] += f(midpoints, *(p[rows] for p in params)).sum(axis=1)
        evals += midpoints.size
        n *= 2
        new = width[open_rows] * total[open_rows] / n
        change[open_rows] = np.abs(new - value[open_rows])
        value[open_rows] = new
        if n >= _TRAPEZOID_MIN:
            open_rows = open_rows[change[open_rows]
                                  > np.maximum(abs_tol, rel_tol[open_rows] * np.abs(new))]
    return QuadratureResult(value, change, evals)


def integrate_tanh_sinh(f, lo, hi, rel_tol, *params, abs_tol: float = 0.0) -> QuadratureResult:
    """``integrate_trapezoid`` of f(x, *params) over the interval between
    lo[i] and hi[i], in either order (unsigned), in u on [-4, 4] after the
    tanh-sinh map x = lo + (hi - lo) / (1 + e^(-pi sinh u)).  The nodes crowd
    towards both ends, so f may be singular there but must be analytic
    inside; e^(-85) |hi - lo| is left out at each end."""
    def mapped(u, lo, hi, *params):
        g = np.exp(-math.pi * np.sinh(u))
        return f(lo + (hi - lo) / (1.0 + g), *params) * (
            np.abs(hi - lo) * math.pi * np.cosh(u) * g / (1.0 + g) ** 2)

    return integrate_trapezoid(mapped, -4.0, 4.0, rel_tol, lo, hi, *params, abs_tol=abs_tol)


def integrate_exp_sinh(f, lo, scale, rel_tol, *params, abs_tol: float = 0.0) -> QuadratureResult:
    """``integrate_trapezoid`` of f(x, *params) over [lo[i], inf), in u on
    [-4, 4] after the exp-sinh map x = lo + scale e^((pi/2) sinh u), whose
    nodes reach from scale e^-43 past lo to scale e^43; f must be analytic
    past lo and fall faster than 1/x."""
    def mapped(u, lo, scale, *params):
        e = scale * np.exp(0.5 * math.pi * np.sinh(u))
        return f(lo + e, *params) * (e * (0.5 * math.pi) * np.cosh(u))

    return integrate_trapezoid(mapped, -4.0, 4.0, rel_tol, lo, scale, *params, abs_tol=abs_tol)


def _ooura_mori(h: float, u: np.ndarray):
    """y = M phi(u), M = pi / h, and phi'(u), where phi(u) = u / (1 - e^-q),
    q = 2u + alpha (1 - e^-u) + beta (e^u - 1), beta = 1/4 and alpha =
    beta / sqrt(1 + M log(1 + M) / 4 pi); phi' = (1 - u q' / (e^q - 1)) /
    (1 - e^-q) overflows nowhere, and at u = 0 takes its limit."""
    m, beta = math.pi / h, 0.25
    alpha = beta / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
    zero = u == 0.0
    v = np.where(zero, 1.0, u)
    q = 2.0 * v - alpha * np.expm1(-v) + beta * np.expm1(v)
    d = -np.expm1(-q)
    slope = 2.0 + alpha + beta   # q'(0)
    phi = np.where(zero, 1.0 / slope, v / d)
    dphi = np.where(zero, 0.5 - (beta - alpha) / (2.0 * slope**2),
                    (1.0 - v * (2.0 + alpha * np.exp(-v) + beta * np.exp(v)) / np.expm1(q)) / d)
    return m * phi, dphi


def integrate_fourier(f, lo, tau, abs_tol: float, *params,
                      rel_tol: float = 0.0) -> QuadratureResult:
    """Row-wise integral of Re(f(x, *params) e^(i tau x)) over [lo[i], inf),
    tau[i] > 0, by the rule of Ooura & Mori (J. Comput. Appl. Math. 112, 229
    (1999)).  With x = lo + y / tau and F = f e^(i tau lo) it is (1/tau)
    int_0^inf (Re F cos y - Im F sin y) dy: the trapezoid rule of step h in u
    at u = (k - 1/2) h for the cosine and u = kh for the sine, y = M phi(u)
    of ``_ooura_mori``, whose nodes near the zeros of cos y and sin y double
    exponentially as u grows, so f may fall as slowly as 1/x with no
    cut-off.  The sums run over u in ``_FOURIER_RANGE``; h starts at
    ``_FOURIER_STEP`` and halves, every node afresh, while a row's last two
    sums differ by more than max(abs_tol, rel_tol |value|).  The arguments
    and the result follow ``integrate_trapezoid``, and f returns complex
    values; QuadratureError is raised, with the result, if a row is still
    open after ``_FOURIER_HALVINGS`` halvings.
    """
    lo, tau, *params = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (lo, tau, *params)))
    phase = np.exp(1j * tau * lo)[:, None]
    value, change = np.full(lo.shape, np.nan), np.full(lo.shape, np.inf)
    open_rows, evals, h = np.arange(lo.size), 0, _FOURIER_STEP
    for _ in range(_FOURIER_HALVINGS + 1):
        # u = j h / 2: even j the sine nodes, odd j the cosine nodes
        j = np.arange(math.ceil(2.0 * _FOURIER_RANGE[0] / h),
                      math.floor(2.0 * _FOURIER_RANGE[1] / h) + 1)
        y, dy = _ooura_mori(h, 0.5 * h * j)
        rows = open_rows[:, None]
        big = phase[open_rows] * f(lo[rows] + y / tau[rows], *(p[rows] for p in params))
        evals += big.size
        terms = np.where(j % 2 == 1, big.real * np.cos(y), -big.imag * np.sin(y)) * dy
        new = math.pi * terms.sum(axis=1) / tau[open_rows]
        change[open_rows] = np.abs(new - value[open_rows])   # NaN at the first step
        value[open_rows] = new
        open_rows = open_rows[~(change[open_rows]
                                <= np.maximum(abs_tol, rel_tol * np.abs(new)))]
        if not open_rows.size:
            return QuadratureResult(value, change, evals)
        h *= 0.5
    raise QuadratureError(f"Fourier rule did not converge at step {2.0 * h:g}",
                          QuadratureResult(value, change, evals))


def integrate_adaptive(f, lo, hi, abs_tol: float = 1e-12,
                       rel_tol: float = 1e-10) -> QuadratureResult:
    """Integrate ``f`` on [lo[i], hi[i]], one interval per row i, by
    ``integrate_tanh_sinh``: f must be analytic inside each row, and may be
    singular at its ends.

    ``lo`` and ``hi`` broadcast to one value per row; with two scalars the
    value is a float (or a complex) and the error estimate a float.  ``f``
    is called on a 1-D float ndarray, once per doubling, of the new nodes
    of every row still open, row after row, and returns an array of the
    same length, real or complex.  A row stays open while its last change,
    the error estimate it returns, exceeds ``max(abs_tol, rel_tol * |I|)``;
    as the rule converges double exponentially, the error left is far
    below it.  Each row gets the value and the estimate of a one-row call,
    bit for bit.  A row still open at ``_TRAPEZOID_MAX`` intervals fails
    while the others go on; then QuadratureError is raised, carrying every
    row's best value and estimate.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo, hi = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                   for v in (lo, hi)))
    bad = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi) & (lo < hi)))
    if bad.size:
        raise ValueError(f"bad integration interval [{lo[bad[0]]}, {hi[bad[0]]}]")

    def flat(x):
        fx = np.asarray(f(x.ravel()))
        if fx.shape != (x.size,):
            raise ValueError(f"integrand returned shape {fx.shape} for {x.size} nodes")
        return fx.reshape(x.shape)

    try:
        res, failed = integrate_tanh_sinh(flat, lo, hi, rel_tol, abs_tol=abs_tol), None
    except QuadratureError as exc:
        res = exc.best
        failed = np.argmax(~(res.error_estimate
                             <= np.maximum(abs_tol, rel_tol * np.abs(res.value))))
    if scalar:
        res = QuadratureResult(res.value[0].item(), float(res.error_estimate[0]),
                               res.evaluations)
    if failed is not None:
        raise QuadratureError(f"quadrature did not converge in {_TRAPEZOID_MAX} "
                              f"intervals on [{lo[failed]}, {hi[failed]}]", res)
    return res


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def solve_cubic(a2: float, a1: float, a0: float) -> tuple[complex, complex, complex]:
    """Roots of the monic cubic r^3 + a2 r^2 + a1 r + a0.

    Cardano's method in the depressed form y^3 + 3p y + 2q = 0 with
    q = a2^3/27 - a2 a1/6 + a0/2,  p = (3 a1 - a2^2)/9,  D = q^2 + p^3:
    D > 0 gives one real and one conjugate pair, D < 0 three real roots
    (trigonometric branch), D = 0 a repeated root.  Each root is then
    polished by Newton iterations on the original cubic, and complex
    roots are forced into an exact conjugate pair.

    Roots are returned sorted by descending real part, then ascending
    imaginary part.
    """
    q = a2**3 / 27.0 - a2 * a1 / 6.0 + a0 / 2.0
    p = (3.0 * a1 - a2 * a2) / 9.0
    disc = q * q + p**3
    shift = a2 / 3.0
    if disc > 0.0:
        root = math.sqrt(disc)
        u = _cbrt(-q + root)
        v = _cbrt(-q - root)
        y1 = u + v
        re = -0.5 * y1
        im = 0.5 * math.sqrt(3.0) * (u - v)
        ys = [complex(y1, 0.0), complex(re, im), complex(re, -im)]
    elif disc < 0.0:
        # D < 0 forces p < 0, so the trigonometric form is well defined.
        mp = math.sqrt(-p)
        phi = math.acos(max(-1.0, min(1.0, -q / mp**3)))
        ys = [complex(2.0 * mp * math.cos((phi + 2.0 * math.pi * k) / 3.0), 0.0)
              for k in range(3)]
    else:
        c = _cbrt(-q)
        ys = [complex(2.0 * c, 0.0), complex(-c, 0.0), complex(-c, 0.0)]
    roots = [y - shift for y in ys]
    return _polish_cubic_roots(roots, a2, a1, a0,
                               1e-15 * max(1.0, abs(a2), abs(a1), abs(a0)),
                               lambda r: 1e-9 * (1.0 + abs(r)))


def _polish_cubic_roots(roots, a2: float, a1: float, a0: float,
                        res_tol: float, snap_tol) -> tuple[complex, complex, complex]:
    """Refine approximate roots of s^3 + a2 s^2 + a1 s + a0.

    Each root gets up to 12 Newton steps, keeping the iterate with the
    smallest residual and stopping once that residual is <= ``res_tol``.
    A root with |Im r| <= ``snap_tol(r)`` is put on the real axis, a
    remaining complex pair is made exactly conjugate (a lone complex
    root is snapped too), and the roots are sorted by descending real
    part, then ascending imaginary part.
    """
    def _poly(s: complex) -> complex:
        return ((s + a2) * s + a1) * s + a0

    polished = []
    for r in roots:
        best, best_res = r, abs(_poly(r))
        cur = r
        for _ in range(12):
            fp = (3.0 * cur + 2.0 * a2) * cur + a1
            if fp == 0:
                break
            nxt = cur - _poly(cur) / fp
            res = abs(_poly(nxt))
            if res < best_res:
                best, best_res = nxt, res
            if res <= res_tol or nxt == cur:
                break
            cur = nxt
        polished.append(best)

    snapped = [complex(r.real, 0.0) if abs(r.imag) <= snap_tol(r) else r
               for r in polished]
    cplx = [r for r in snapped if r.imag != 0.0]
    if len(cplx) == 2:
        w = 0.5 * (cplx[0] + cplx[1].conjugate())
        real_part = [r for r in snapped if r.imag == 0.0]
        snapped = real_part + [complex(w.real, abs(w.imag)),
                               complex(w.real, -abs(w.imag))]
    elif len(cplx) == 1:
        snapped = [complex(r.real, 0.0) for r in snapped]
    return tuple(sorted(snapped, key=lambda s: (-s.real, s.imag)))


# 1/k!, 0 < k < 36 (and 0 for k = 0), in Paterson-Stockmeyer blocks: row j
# multiplies X^(6j + i)
_TAYLOR_BLOCKS = np.array([0.0] + [1.0 / math.factorial(k)
                                   for k in range(1, 36)]).reshape(6, 6)
# Entries of a stack that _taylor takes at once: 32 matrices of 14 x 14, so
# that its workspace of seven powers and six blocks stays under 1 MB
_CHUNK_ENTRIES = 32 * 14 * 14


def _taylor(x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """e^X - I by the degree-35 Taylor polynomial, for each matrix in the
    stack x, exact to rounding for a 1-norm below 4 (4^36 / 36! < 1e-20).

    The powers, the blocks and the result are views of ``work`` (from
    ``_workspace``), which every chunk of one ``expm`` call reuses, so the
    kernel allocates nothing large and does not hand memory back to the
    system, to fault it in again, between chunks."""
    buf = work[:13 * x.size].reshape((13,) + x.shape)
    powers, blocks = buf[:7], buf[7:]   # I, X, X^2, ..., X^6 and six blocks
    powers[0] = np.eye(x.shape[-1])
    powers[1] = x
    for k in range(2, 7):
        np.matmul(powers[k - 1], powers[1], out=powers[k])
    np.matmul(_TAYLOR_BLOCKS, powers[:6].reshape(6, -1), out=blocks.reshape(6, -1))
    # Horner in place, block j += X^6 block (j + 1), through the slot of I
    for j in range(4, -1, -1):
        blocks[j] += np.matmul(powers[6], blocks[j + 1], out=powers[0])
    return blocks[0]


def _chunk_length(size: int) -> int:
    """Matrices of ``size`` x ``size`` per chunk of ``_taylor``: as many as
    _CHUNK_ENTRIES holds, and at least one."""
    return max(_CHUNK_ENTRIES // size**2, 1)


def _workspace(count: int, size: int) -> np.ndarray:
    """The workspace of ``_taylor`` for the chunks of a stack of ``count``
    matrices of ``size`` x ``size``."""
    return np.empty(13 * min(count, _chunk_length(size)) * size**2)


def _doubling_order(squarings: np.ndarray):
    """The order that sorts a flat stack by its squaring counts, and for each
    doubling k the first sorted index whose count exceeds k: doubling k works
    on the suffix from there, so each matrix is doubled only as often as its
    own norm needs."""
    order = np.argsort(squarings, kind="stable")
    return order, np.searchsorted(squarings[order], np.arange(squarings.max(initial=0)),
                                  side="right").tolist()


def _chunks(order: np.ndarray, size: int):
    """Consecutive runs of ``order``, each of ``_chunk_length(size)``
    matrices or fewer, with their slices of the sorted stack."""
    step = _chunk_length(size)
    return [(slice(i, i + step), order[i:i + step]) for i in range(0, len(order), step)]


def _unsorted(x: np.ndarray, order: np.ndarray, shape) -> np.ndarray:
    """The sorted stack x back in its original order and shape."""
    out = np.empty_like(x)
    out[order] = x
    return out.reshape(shape)


def expm(a) -> np.ndarray:
    """e^A for a square matrix or a stack of them (the last two axes).

    Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
    (2005)): each matrix is scaled by its own 2^-s to a 1-norm below 4,
    where the degree-35 Taylor polynomial is exact to rounding, and squared
    s times; the stack is sorted by s, so that the k-th squaring takes only
    the matrices with s > k, and its Taylor polynomials are taken in chunks
    that bound the temporaries.  As in ``expm_gramian``, E = e^(A 2^-s) is
    carried as D = E - I and squared as D <- D (D + 2 I) = 2 D + D^2, so
    that small entries do not lose a bit to the rounding of I + D at every
    squaring.
    """
    d = _expm_minus_identity(a)
    return d + np.eye(d.shape[-1])


def _expm_minus_identity(a) -> np.ndarray:
    """D = e^A - I of ``expm``, whose small entries keep their relative
    accuracy where those of I + D would lose it to the rounding of 1 + D."""
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    squarings = np.maximum(np.frexp(np.abs(flat).sum(axis=-2).max(axis=-1))[1] - 2, 0)
    order, starts = _doubling_order(squarings)
    d = np.empty_like(flat)
    work = _workspace(len(order), n)
    for part, rows in _chunks(order, n):
        d[part] = _taylor(np.ldexp(flat[rows], -squarings[rows, None, None]), work)
    eye = np.eye(n)
    two = eye + eye
    for s in starts:
        d[s:] = d[s:] @ (d[s:] + two)
    return _unsorted(d, order, a.shape)


def expm_gramian(a, b) -> tuple[np.ndarray, np.ndarray]:
    """e^A and the Gramian P = int_0^1 e^(A s) B e^(A^T s) ds, for square A
    and B or stacks of them (the last two axes) that broadcast; with A = M t
    and B = Q t they are e^(Mt) and int_0^t e^(Ms) Q e^(M^T s) ds.

    P is read off the Van Loan block exp([[-A, B], [0, A^T]] h) (Van Loan,
    IEEE TAC 23, 395 (1978)) only at a step h = 2^-s with ||A||_1 h and
    ||B||_1 h <= 1/2, where its -A block has not grown.  s doublings
    P <- P + E P E^T, E <- E^2 with E = e^(Ah) then reach h = 1, each
    matrix its own s of them, and the blocks are built in chunks, as in
    ``expm``.  E is carried as D = E - I, doubled as D <- 2 D + D^2, so
    that the entries of a stiff A keep their relative accuracy instead of
    losing a bit to the rounding of I + D at every doubling.  E is returned
    as I + D: its entries off the diagonal are those of D, and only on the
    diagonal does 1 + D round, which a caller that goes on composing steps
    in D, as ``open_system._lattice_steps`` does, must restore.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape, n = a.shape, a.shape[-1]
    a, b = a.reshape(-1, n, n), b.reshape(-1, n, n)
    norm = np.maximum(np.abs(a).sum(axis=-2).max(axis=-1),
                      np.abs(b).sum(axis=-2).max(axis=-1))
    squarings = np.maximum(np.frexp(norm)[1] + 1, 0)   # norm 2^-s <= 1/2
    order, starts = _doubling_order(squarings)
    d, p = np.empty_like(a), np.empty_like(a)
    work = _workspace(len(order), 2 * n)
    for part, rows in _chunks(order, 2 * n):
        scale = np.ldexp(1.0, -squarings[rows])[:, None, None]
        block = np.zeros((len(rows), 2 * n, 2 * n))
        block[:, :n, :n] = -a[rows] * scale
        block[:, :n, n:] = b[rows] * scale
        block[:, n:, n:] = np.swapaxes(a[rows], -1, -2) * scale
        step = _taylor(block, work)   # exp(block h) - 1
        d[part] = np.swapaxes(step[:, n:, n:], -1, -2)
        p[part] = step[:, :n, n:] + d[part] @ step[:, :n, n:]
    for s in starts:   # P += EP + EP D^T with EP = P + D P, then D += D + D^2
        ds, ps = d[s:], p[s:]
        ep = ds @ ps
        ep += ps
        ps += ep
        ps += ep @ np.swapaxes(ds, -1, -2)
        ep = ds @ ds
        ds += ds
        ds += ep
    return _unsorted(d + np.eye(n), order, shape), _unsorted(p, order, shape)


def scaled_bessel_k_quarter(z):
    """e^z K_{1/4}(z), the modified Bessel function of order 1/4 scaled, for
    a scalar or an array of z; a float in gives a float out.

    K_nu(z) = int_0^inf exp(-z cosh u) cosh(nu u) du, so the integrand is
    exp(-(sqrt(2 z) sinh(u/2))^2) cosh(u/4): even in u and analytic, so the
    trapezoid rule converges geometrically on it.  It is cut where the
    exponent reaches -745 (so no step overflows for any z), and every z is
    one row of one ``integrate_trapezoid`` call to 1e-14 relative.
    """
    zs = np.asarray(z, dtype=float)
    if not np.all((zs > 0.0) & np.isfinite(zs)):
        raise ValueError("K_{1/4}(z) requires a finite z > 0")
    root = np.sqrt(2.0) * np.sqrt(zs.ravel())
    u_max = 2.0 * np.arcsinh(np.sqrt(745.0) / root)

    def integrand(u: np.ndarray, root: np.ndarray) -> np.ndarray:
        return np.exp(-(root * np.sinh(0.5 * u)) ** 2) * np.cosh(0.25 * u)

    value = integrate_trapezoid(integrand, 0.0, u_max, 1e-14,
                                root).value.reshape(zs.shape)
    return float(value) if value.ndim == 0 else value


def bessel_k_quarter(z):
    """Modified Bessel function of the second kind of order 1/4."""
    value = scaled_bessel_k_quarter(z) * np.exp(-np.asarray(z, dtype=float))
    return float(value) if np.ndim(value) == 0 else value


# ---------------------------------------------------------------------------
# Grid Schrodinger oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GridState:
    """Wavefunction samples on a uniform periodic grid.

    ``psi[i]`` is the amplitude at ``x_min + i * dx``; the right endpoint
    ``x_max`` is excluded (periodic convention of the discrete Fourier
    transform).  Treated as an immutable value: evolution returns a new
    instance.
    """

    x_min: float
    x_max: float
    n: int
    dx: float
    psi: np.ndarray
    t: float

    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)


def grid_from_packet(packet: GaussianPacket, params: SystemParams,
                     x_min: float, x_max: float, n: int) -> GridState:
    """Sample a Gaussian packet on the grid and normalize discretely."""
    if n <= 0 or n & (n - 1) != 0:
        raise ValueError("grid size n must be a power of two")
    if not x_min < x_max:
        raise ValueError("x_min must be below x_max")
    dx = (x_max - x_min) / n
    x = x_min + dx * np.arange(n)
    psi = evaluate_initial(packet, params, x).astype(complex)
    norm = math.sqrt(float(np.sum(np.abs(psi) ** 2) * dx))
    if norm == 0.0:
        raise ValueError(f"grid: every sample of the packet is 0 (sigma="
                         f"{packet.sigma:g} against a spacing dx={dx:g})")
    psi = psi / norm
    return GridState(x_min=x_min, x_max=x_max, n=n, dx=dx, psi=psi, t=0.0)


# The grid that ``size_grid`` derives holds the packet's mean plus or minus
# _TAIL_SIGMAS standard deviations (a two-sided Gaussian tail of 1.4e-20) in x
# and in k inside its inner 7/8; the outer n/_BAND points a side, of x and of
# k, are guard bands whose probability ``schrodinger_grid_evolve`` checks after
# every step against _BAND_PROBABILITY, whose square root, 1e-7, is about the
# relative L2 error that probability wrapped round the periodic grid can make.
# A derived n has 2^6 to 2^16 points.
_TAIL_SIGMAS = 9.3
_BAND = 16
_BAND_PROBABILITY = 1e-14
_MIN_GRID_BITS, _MAX_GRID_BITS = 6, 16


def _force_bound(force, t: float) -> float:
    """sup |F| on [0, t]: the amplitude, or a tabulated force's largest
    value at the ends of its linear pieces."""
    if isinstance(force, TabulatedForce):
        return max(abs(f) for piece in force_pieces(force, 0.0, t) for f in piece[2:])
    return abs(getattr(force, "amplitude", 0.0))


def size_grid(params: SystemParams, packet: GaussianPacket, force,
              t_final: float) -> tuple[float, float, int]:
    """``(x_min, x_max, n)`` for a ``schrodinger_grid_evolve`` run of the packet
    from t = 0 to ``t_final``.

    The packet's mean and covariance in (x, p) are carried to ``t_final`` by
    the free flow [[cosh wt, sinh(wt)/w], [w sinh wt, cosh wt]], not by the
    closed form the grid checks.  The standard deviations grow with t, and
    the free mean over [0, t_final] lies between 0 and its two ends in x
    and inside its larger end in |p|.  The force moves the mean by at most
    sup|F| (cosh wt - 1)/w^2 = 2 sup|F| (sinh(wt/2)/w)^2 in x and
    sup|F| sinh(wt)/w in p, T^2/2 and T as w -> 0.  The box holds that range
    of the mean plus or minus ``_TAIL_SIGMAS`` deviations in its inner 7/8,
    and n is the least power of two whose k range pi/dx holds
    (|<p>| + _TAIL_SIGMAS sd_p)/hbar in its inner 7/8.  An n above
    2^16, or a box past the float range, raises ValueError, before anything
    is allocated, naming the size and the term that sets each of the box
    width and the k range.
    """
    w, m = params.omega, _TAIL_SIGMAS
    with np.errstate(over="ignore", invalid="ignore"):   # past the float range: the cap
        c, s = np.cosh(w * t_final), np.sinh(w * t_final) / w
        half = np.sinh(0.5 * w * t_final) / w
        sd_p0 = 0.5 * params.hbar / packet.sigma
        x_t = c * packet.x0 + s * packet.p0
        p_t = w * w * s * packet.x0 + c * packet.p0
        f = _force_bound(force, t_final)
        lo, hi = min(packet.x0, x_t, 0.0), max(packet.x0, x_t, 0.0)
        # the terms of the box width and of the k range, by their cause
        x_terms = {"packet.x0, packet.p0": hi - lo,
                   "packet.sigma": 2.0 * m * np.hypot(c * packet.sigma, s * sd_p0),
                   "force": 4.0 * f * half * half}
        k_terms = {"packet.x0, packet.p0": max(abs(packet.p0), abs(p_t)),
                   "packet.sigma": m * np.hypot(w * w * s * packet.sigma, c * sd_p0),
                   "force": f * s}
        pad = (0.5 * (x_terms["packet.sigma"] + x_terms["force"])
               + sum(x_terms.values()) / (_BAND - 2))
        x_min, x_max = float(lo - pad), float(hi + pad)
        k_max = sum(k_terms.values()) / params.hbar
        bits = np.log2(x_max - x_min) + np.log2(k_max / (np.pi * (1.0 - 2.0 / _BAND)))
    if not bits <= _MAX_GRID_BITS:   # inf and NaN too: a box past the float range
        needed = f"about 2^{bits:.1f}" if bits < math.inf else "more than 2^1024"
        raise ValueError(
            f"the grid needs {needed} points, above the cap 2^{_MAX_GRID_BITS}, for a "
            f"box of width {x_max - x_min:.3g} and |k| up to {k_max:.3g}; the packet's "
            f"extent is set mostly by {max(x_terms, key=x_terms.get)} in x and "
            f"{max(k_terms, key=k_terms.get)} in k")
    return x_min, x_max, 2 ** max(math.ceil(bits), _MIN_GRID_BITS)


# Chin's scheme 4A (Phys. Lett. A 226, 344 (1997)), per step of length h: the
# times and lengths of the three kicks as fractions of h, and the share of the
# gradient correction h^2/48 each carries (only the middle one).  Both drifts
# are h/2.  The last kick of a step and the first of the next fall at the same
# time and are applied as one.
_KICK_TIMES = np.array([0.0, 0.5, 1.0])
_KICK_LENGTHS = np.array([1.0, 4.0, 1.0]) / 6.0
_GRADIENT = np.array([0.0, 1.0, 0.0]) / 48.0


def plane_wave(k: float, x_min: float, dx: float, n: int) -> np.ndarray:
    """e^{ikx} at the n grid points x = x_min + dx i, from two phase vectors
    of about sqrt(n) points: with c = isqrt(n) and i = r c + l, e^{ikx} is
    e^{ik(x_min + dx r c)} e^{ik dx l}, an outer product raveled in row
    order.  It agrees with a direct ``np.exp`` to a few ulp of the largest
    phase |k x| on the grid."""
    cols = math.isqrt(n)
    rows = -(-n // cols)
    outer = np.multiply.outer(np.exp(1j * k * (x_min + dx * cols * np.arange(rows))),
                              np.exp(1j * k * dx * np.arange(cols)))
    return outer.ravel()[:n]


def schrodinger_grid_evolve(params: SystemParams, grid: GridState, force,
                            t_final: float, dt: float, phases=None) -> GridState:
    """Fourth-order split-step Fourier evolution under the inverted-oscillator
    potential V = -omega^2 x^2 / 2 - F(t) x.

    Each step of length h is Chin's force-gradient scheme 4A (Phys. Lett. A
    226, 344 (1997)): a kick by V(t) for h/6, an exact spectral drift for
    h/2, a kick by V~(t + h/2) for 2h/3, a drift for h/2 and a kick by
    V(t + h) for h/6, where V~ = V - (h^2/48)(dV/dx)^2 =
    -(omega^2/2 + h^2 omega^4/48) x^2 - F (1 + h^2 omega^2/24) x - h^2 F^2/48
    (mass 1, no hbar in the correction).  The kick that ends a step is merged
    with the one that starts the next, so a step costs two FFT pairs; the
    constant h^2 F^2/48 terms add up to one scalar phase.  No weight is
    negative, so every kick samples the force at a time inside [t, t + h].
    The span to ``t_final`` is cut at the knots of a tabulated force
    (``force_pieces``) and each piece into the fewest equal steps no longer
    than ``dt``; inside a piece a tabulated force is the piece's own line, so
    its kinks do not cost the order.  Each half step's drift, one per step
    length h, and each kick's barrier phase e^{i q x^2/hbar}, one per distinct
    quadratic coefficient q, is computed once and cached in ``phases``, a dict
    that calls on one grid and system may share; a kick with a nonzero impulse j multiplies it by the
    plane wave e^{ijx/hbar}, built by ``plane_wave`` as the outer product of
    two phase vectors of about sqrt(n) points, so no kick takes a complex
    exponential over the grid.  The inverse FFT's 1/n, exact for n a power
    of two, is folded into the drift.  Every kick and drift multiplies a
    fresh array in place, so ``grid.psi`` is not written.  After every step
    the probability in the outer n/16 points a side of x, and of k as read
    from the step's last forward FFT, must be at most 1e-14; a band above it,
    or NaN (a grid whose x^2 or k^2 overflows), raises RuntimeError naming
    each such band, the first one's probability, and the grid's box and n.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not t_final > grid.t:
        raise ValueError("t_final must exceed the current grid time")
    w2 = params.omega**2
    x2 = grid.x() ** 2
    k2 = (2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)) ** 2
    phases = {} if phases is None else phases
    drifts, quadratic, impulses = [], [], []   # per half step; per step, per kick
    phase = 0.0
    for a, b, fa, fb in force_pieces(force, grid.t, t_final):
        n_steps = max(math.ceil((b - a) / dt - 1e-12), 1)
        h = (b - a) / n_steps
        times = a + h * (np.arange(n_steps)[:, None] + _KICK_TIMES)
        f = (fa + (fb - fa) / (b - a) * (times - a)
             if isinstance(force, TabulatedForce) else force_at(force, times))
        lengths, gradient = h * _KICK_LENGTHS, h * h * _GRADIENT
        if ("drift", h) not in phases:
            phases["drift", h] = np.exp(-0.25j * params.hbar * h * k2) * (1.0 / grid.n)
        drifts += [phases["drift", h]] * (2 * n_steps)
        quadratic.append(np.tile(lengths * (0.5 * w2 + gradient * w2 * w2), (n_steps, 1)))
        impulses.append(f * (lengths * (1.0 + 2.0 * gradient * w2)))
        phase += float(np.sum(f * f * (lengths * gradient)))
    quadratic, impulses = np.concatenate(quadratic), np.concatenate(impulses)
    for kicks in (quadratic, impulses):   # merge each step's last kick into the next's first
        kicks[1:, 0] += kicks[:-1, 2]
    quadratic = np.append(quadratic[:, :2], quadratic[-1, 2]).tolist()
    impulses = np.append(impulses[:, :2], impulses[-1, 2]).tolist()

    def kick(i):
        q, j = quadratic[i], impulses[i]
        if ("barrier", q) not in phases:
            phases["barrier", q] = np.exp(1j / params.hbar * q * x2)
        return phases["barrier", q] if j == 0.0 else phases["barrier", q] * plane_wave(
            j / params.hbar, grid.x_min, grid.dx, grid.n)

    band = max(grid.n // _BAND, 1)
    k_band = slice(grid.n // 2 - band, grid.n // 2 + band)   # the largest |k| in FFT order
    psi = grid.psi * kick(0)
    for i, drift in enumerate(drifts, 1):
        buf = np.fft.fft(psi)
        if i % 2 == 0:   # the probability is sum |buf|^2 dx / n
            k_prob = np.vdot(buf[k_band], buf[k_band]).real * grid.dx / grid.n
        buf *= drift
        psi = np.fft.ifft(buf, norm="forward")
        psi *= kick(i)
        if i % 2 == 0:   # a whole step
            bands = {"x": (np.vdot(psi[:band], psi[:band]).real
                           + np.vdot(psi[-band:], psi[-band:]).real) * grid.dx,
                     "k": k_prob}
            axes = tuple(axis for axis, p in bands.items()
                         if not p <= _BAND_PROBABILITY)   # NaN too: an unresolved grid
            if axes:
                raise RuntimeError(
                    f"domain too small: probability {bands[axes[0]]:g} reached the grid "
                    f"boundary in {' and '.join(axes)} (the outer n/{_BAND} points a side "
                    f"of [{grid.x_min!r}, {grid.x_max!r}) at n = {grid.n})")
    psi *= np.exp(1j * phase / params.hbar)
    return GridState(x_min=grid.x_min, x_max=grid.x_max, n=grid.n,
                     dx=grid.dx, psi=psi, t=t_final)


# ---------------------------------------------------------------------------
# Memory-kernel ODE oracle
# ---------------------------------------------------------------------------

def langevin_ode_oracle(params: SystemParams, bath, t_final: float,
                        dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Impulse response of the damped inverted oscillator by direct RK4.

    Integrates the extended system x' = v, v' = omega^2 x - w,
    w' = -omega_d w + gamma omega_d v, which reproduces the exponential
    memory integral exactly when w(0) = 0, from x(0) = 0, v(0) = 1.  The
    system y' = A y is linear and autonomous, so one RK4 step of length dt
    is the fixed matrix R = sum_{k<=4} (A dt)^k / k!: still RK4, not the
    matrix exponential.  With B = isqrt(n) + 1, the state after mB + k
    steps is R^k S_m, 0 <= k < B, at the block starts S_m = R^B S_(m-1).
    The powers and the starts are each formed by sequential products, no
    repeated squaring, with R^k carried as R^k - I so that its small
    entries keep their relative accuracy, and every state is read off in
    one einsum.  Returns (times, x samples) including t = 0.
    """
    if dt <= 0.0 or t_final <= 0.0:
        raise ValueError("t_final and dt must be positive")
    a = dt * np.array([[0.0, 1.0, 0.0],
                       [params.omega**2, 0.0, -1.0],
                       [0.0, bath.gamma * bath.omega_d, -bath.omega_d]])
    eye = np.eye(3)
    step = a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)   # R - I
    n = int(round(t_final / dt))
    block = math.isqrt(n) + 1
    powers = np.zeros((block + 1, 3, 3))   # R^k - I, 0 <= k <= block
    starts = np.empty((-(-(n + 1) // block), 3))
    starts[0] = (0.0, 1.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, block + 1):
            powers[k] = step + powers[k - 1] + step @ powers[k - 1]
        for m in range(1, len(starts)):
            starts[m] = starts[m - 1] + powers[-1] @ starts[m - 1]
        xs = (starts[:, :1] + np.einsum("kj,mj->mk", powers[:-1, 0], starts)
              ).ravel()[:n + 1]
    if not np.all(np.abs(xs) <= 1e200):
        raise RuntimeError("RK4 trajectory overflow; use a smaller dt")
    return np.arange(n + 1) * dt, xs
