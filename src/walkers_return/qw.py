"""One-dimensional discrete-time quantum walk.

The coin is a 2x2 unitary U = e^{i theta} [[alpha, beta], [-conj(beta),
conj(alpha)]] acting on the chirality (Left/Right) degree of freedom; the
walker then shifts one unit in the chirality direction.  The module
provides three independent routes to the return probability at the origin:

* exact amplitude evolution (:func:`simulate_return`),
* the path-sum matrix of all balanced left/right step orderings
  (:func:`xi_lemma1`, cross-checked by :func:`xi_bruteforce`),
* the Legendre closed form (:func:`return_series_qw`, one sweep for
  all of r_0..r_nmax).

The whole position distribution comes from :func:`distribution`, which
works in momentum space in O(n log n); the lattice :func:`evolve` stays as
its O(n^2) oracle.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lattice
from .lattice import Field
from .specfun import _require_count, binom, legendre_range

__all__ = [
    "CoinMatrix",
    "QWInitialState",
    "decompose",
    "step",
    "evolve",
    "distribution",
    "simulate_return",
    "xi_lemma1",
    "xi_bruteforce",
    "return_lemma1",
    "return_closed_qw",
    "return_series_qw",
    "return_hadamard",
]

_NORM_TOL = 1e-12
_BRUTEFORCE_MAX_STEPS = 14


@dataclass(frozen=True)
class CoinMatrix:
    """Unitary coin parametrized by a global phase and the top row.

    :meth:`matrix` is [[a, b], [c, d]] with a = e^{i theta} alpha,
    b = e^{i theta} beta, c = -e^{i theta} conj(beta) and
    d = e^{i theta} conj(alpha); every route reads the entries from it.
    Both alpha and beta must be nonzero: the excluded boundary coins are a
    pure shift or a pure reflection and sit outside every closed form here.
    """

    theta: float
    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta < 2.0 * math.pi:
            raise ValueError(f"theta must lie in [0, 2*pi), got {self.theta}")
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        # Written so that a NaN norm fails the check.
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"|alpha|^2 + |beta|^2 must be 1, got {norm}")
        if self.alpha == 0 or self.beta == 0:
            raise ValueError("boundary coins with alpha = 0 or beta = 0 are not supported")

    @cached_property
    def _matrix(self) -> np.ndarray:
        # Computed once per coin and read-only, so no caller can change it.
        phase = cmath.exp(1j * self.theta)
        entries = [
            [phase * self.alpha, phase * self.beta],
            [-phase * self.beta.conjugate(), phase * self.alpha.conjugate()],
        ]
        matrix = np.array(entries, dtype=complex)
        matrix.setflags(write=False)
        return matrix

    @property
    def alpha_sq(self) -> float:
        return abs(self.alpha) ** 2

    def matrix(self) -> np.ndarray:
        """The coin [[a, b], [c, d]], read-only."""
        return self._matrix

    @classmethod
    def hadamard(cls) -> "CoinMatrix":
        """The Hadamard coin (1/sqrt2) [[1, 1], [1, -1]], 1/sqrt2 rounded up in
        alpha and down in beta, so that |alpha|^2 + |beta|^2 is exactly 1
        (rounded down in both, it is 0.9999999999999998)."""
        return cls(theta=math.pi / 2.0, alpha=-1j * math.sqrt(0.5), beta=-1j / math.sqrt(2.0))

    @classmethod
    def from_alpha_sq(
        cls,
        alpha_sq: float,
        *,
        theta: float = 0.0,
        alpha_phase: float = 0.0,
        beta_phase: float = 0.0,
    ) -> "CoinMatrix":
        if not 0.0 < alpha_sq < 1.0:
            raise ValueError(f"alpha_sq must lie in (0, 1), got {alpha_sq}")
        alpha = math.sqrt(alpha_sq) * cmath.exp(1j * alpha_phase)
        beta = math.sqrt(1.0 - alpha_sq) * cmath.exp(1j * beta_phase)
        return cls(theta=theta, alpha=alpha, beta=beta)

    @classmethod
    def random(cls, rng: np.random.Generator) -> "CoinMatrix":
        # |alpha|^2 away from the excluded endpoints 0 and 1.
        return cls.from_alpha_sq(
            rng.uniform(0.05, 0.95),
            theta=rng.uniform(0.0, 2.0 * math.pi),
            alpha_phase=rng.uniform(0.0, 2.0 * math.pi),
            beta_phase=rng.uniform(0.0, 2.0 * math.pi),
        )


@dataclass(frozen=True)
class QWInitialState:
    """Normalized chirality state phi = phi1 |L> + phi2 |R> at the origin."""

    phi1: complex
    phi2: complex

    def __post_init__(self) -> None:
        norm = abs(self.phi1) ** 2 + abs(self.phi2) ** 2
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"|phi1|^2 + |phi2|^2 must be 1, got {norm}")

    def vector(self) -> np.ndarray:
        return np.array([self.phi1, self.phi2], dtype=complex)

    @classmethod
    def canonical(cls) -> "QWInitialState":
        """The balanced state (1/sqrt2, i/sqrt2), 1/sqrt2 rounded up in one
        component and down in the other, so that the norm is exactly 1."""
        return cls(phi1=math.sqrt(0.5), phi2=1j / math.sqrt(2.0))

    @classmethod
    def random(cls, rng: np.random.Generator) -> "QWInitialState":
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        return cls(phi1=complex(v[0]), phi2=complex(v[1]))


def decompose(coin: CoinMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split U into the move-left/right pieces P, Q plus the swapped rows R, S.

    P = [[a, b], [0, 0]], Q = [[0, 0], [c, d]], R = [[c, d], [0, 0]],
    S = [[0, 0], [a, b]]; P + Q = U.
    """
    a, b, c, d = coin.matrix().ravel().tolist()
    p = np.array([[a, b], [0, 0]], dtype=complex)
    q = np.array([[0, 0], [c, d]], dtype=complex)
    r = np.array([[c, d], [0, 0]], dtype=complex)
    s = np.array([[0, 0], [a, b]], dtype=complex)
    return p, q, r, s


def step(field: Field, matrix: np.ndarray) -> Field:
    """One time step, new(x) = P old(x+1) + Q old(x-1), of a planned field:
    `lattice.evolve` and `lattice.return_values` call it with the `matrix`
    of :func:`lattice.stack`.  A field without a plan raises ValueError."""
    return lattice.shift(field, matrix)


def evolve(coin: CoinMatrix | Sequence[CoinMatrix], phi: QWInitialState | Sequence[QWInitialState], n: int) -> Field:
    """State after n steps from the origin: one walk, or a stack as in :func:`simulate_return`."""
    return lattice.evolve(*lattice.stack(coin, phi), n, step)


def distribution(coin: CoinMatrix, phi: QWInitialState, n: int) -> np.ndarray:
    """Position distribution p(-n), ..., p(n) after n steps, in momentum space.

    With z marking position, one step multiplies the amplitude polynomial
    by z^{-1} P + z Q (P the coin's top row, Q its bottom row), so
    z^n psi_n(z) = V(w)^n phi with w = z^2 and V(w) = P + w Q: the
    coefficient of w^m is the amplitude at x = -n + 2m.  V(w)^n phi has
    degree n in w, so its values at the N = n + 1 roots of unity fix it
    exactly and one FFT recovers the coefficients (Ambainis et al., STOC
    2001; Grimmett, Janson & Scudo, PRE 69, 026119, 2004).  The n-th power
    is taken by binary powering of the N sampled 2x2 matrices, not by
    eigendecomposition, so the mass drifts no more than on the lattice.
    Wrong-parity sites are never written and stay exactly 0.
    """
    n = _require_count(n, "n")
    size = n + 1
    w = np.exp(2j * np.pi * np.arange(size) / size)
    # The stack of V(w) = [[a, b], [c w, d w]], one 2x2 matrix per sample,
    # held entry by entry: elementwise products beat np.matmul on 2x2 blocks.
    a, b, c, d = coin.matrix().ravel().tolist()
    a, b, c, d = np.full(size, a), np.full(size, b), c * w, d * w
    left, right = np.full(size, phi.phi1, dtype=complex), np.full(size, phi.phi2, dtype=complex)
    k = n
    while k:
        if k & 1:
            left, right = a * left + b * right, c * left + d * right
        k >>= 1
        if k:
            a, b, c, d = a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d
    left = np.fft.fft(left) / size
    right = np.fft.fft(right) / size
    dist = np.zeros(2 * n + 1)
    dist[::2] = np.abs(left) ** 2 + np.abs(right) ** 2
    return dist


def simulate_return(
    coin: CoinMatrix | Sequence[CoinMatrix],
    phi: QWInitialState | Sequence[QWInitialState],
    nmax: int,
) -> np.ndarray:
    """Return probabilities r_0..r_nmax by direct evolution.

    A sequence of states walks as one stack, under the one coin or paired
    one-to-one with a sequence of coins, and gives one row per state,
    shape (len(phi), nmax + 1): bit for bit the walks one state at a time.
    """
    return lattice.return_values(*lattice.stack(coin, phi), nmax, step)


def xi_bruteforce(coin: CoinMatrix, l: int, m: int) -> np.ndarray:
    """Path sum by explicit enumeration of every P/Q word.

    The 2x2 complex sum of the step products of every word with l left (P)
    and m right (Q) steps.  Words are applied in time order (first step =
    rightmost factor).  Each of the C(l+m, l) words is one row of a boolean
    table (True where the step moves left, factor P); all word products
    advance together, one batched 2x2 product per time step, and are summed
    at the end.  The enumeration caps at l+m <= 14 to stay at desk scale.
    """
    l, m = _require_count(l, "l"), _require_count(m, "m")
    nsteps = l + m
    if nsteps > _BRUTEFORCE_MAX_STEPS:
        raise ValueError(
            f"brute-force enumeration capped at {_BRUTEFORCE_MAX_STEPS} steps, got {nsteps}"
        )
    count = math.comb(nsteps, l)
    slots = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(nsteps), l)),
        dtype=np.intp,
        count=count * l,
    ).reshape(count, l)
    moves_left = np.zeros((count, nsteps), dtype=bool)
    np.put_along_axis(moves_left, slots, True, axis=1)
    # P = [[a, b], [0, 0]] and Q = [[0, 0], [c, d]] are U with one row
    # zeroed: a step keeps the top row of U @ word if it moves left (P),
    # the bottom row if it moves right (Q).
    keep = np.stack([moves_left, ~moves_left])[:, None]  # (row, 1, word, step)
    # words[i, j, w] is entry (i, j) of word w's product so far.
    words = np.zeros((2, 2, count), dtype=complex)
    words[0, 0] = words[1, 1] = 1.0
    for i in range(nsteps):
        words = (coin.matrix() @ words.reshape(2, 2 * count)).reshape(2, 2, count) * keep[..., i]
    return words.sum(axis=2)


def _lemma_sums(coin: CoinMatrix, n: int) -> tuple[float, float, float]:
    """The three scalar weights of the balanced path sum times |alpha|^{2n}, exactly.

    sigma1 = sum_g (1/g) rho^g C(n-1, g-1)^2, sigma0 = the unweighted sum
    and the drift n sigma1 - sigma0, with rho = bc/(ad) = -|beta|^2/|alpha|^2;
    each is returned multiplied by |alpha|^{2n}.  The alternating terms
    cancel almost completely for small |alpha| (the true sums are ~rho^n
    times smaller than the largest term), so they are accumulated exactly
    and rounded once at the end.

    With the floats |alpha|^2 = u/v and |beta|^2 = s/t (v, t powers of two),
    |alpha|^{2n} rho^g = num^g den^(n-g) / (vt)^n with num = -sv, den = tu,
    so the scaled sums have the integer terms C(n-1, g-1)^2 num^g den^(n-g)
    and (for n sigma1, as C(n-1, g-1)/g = C(n, g)/n) C(n-1, g-1) C(n, g)
    num^g den^(n-g) over the one denominator (vt)^n.  Consecutive terms
    differ by the ratios (n-g)^2 num / (g^2 den) and (n-g)^2 num /
    (g(g+1) den), so Horner's rule from g = n - 1 down to 1, from
    B_n = Q_n = 1,
        Q_g = g^2 den Q_{g+1},  B_g = Q_g + (n-g)^2 num B_{g+1},
    (and B', Q' with g(g+1) for g^2) sums each with big-by-small products
    and no division: the sums are num B_1 / ((n-1)!)^2 and
    num B'_1 / ((n-1)!)^2, as Q_1 and Q'_1 cancel the den^(n-1) of the
    first terms.  Each value is one correctly rounded int / int division.
    """
    u, v = (abs(coin.alpha) ** 2).as_integer_ratio()
    s, t = (abs(coin.beta) ** 2).as_integer_ratio()
    num, den = -s * v, t * u
    plain_q = plain_b = weighted_q = weighted_b = 1
    for g in range(n - 1, 0, -1):
        ratio = (n - g) ** 2 * num
        plain_q *= g * g * den
        plain_b = plain_q + ratio * plain_b
        weighted_q *= g * (g + 1) * den
        weighted_b = weighted_q + ratio * weighted_b
    plain, weighted = num * plain_b, num * weighted_b
    scale = math.factorial(n - 1) ** 2 * (v * t) ** n
    return weighted / (n * scale), plain / scale, (weighted - plain) / scale


def xi_lemma1(coin: CoinMatrix, n: int) -> np.ndarray:
    """Balanced path sum over 2n steps (n left, n right) in closed form, a 2x2 array.

    a^n d^n sum_g (bc/ad)^g C(n-1, g-1)^2
        [ ((n-g)/(a g)) P + ((n-g)/(d g)) Q + (1/c) R + (1/b) S ].

    (ad)^n splits into |alpha|^{2n}, which the exact sums absorb, and the
    unit phase (ad/|ad|)^n.
    """
    n = _require_count(n, "n")
    if n < 1:
        raise ValueError("xi_lemma1 needs n >= 1; the 0-step path sum is the identity")
    p, q, r, s = decompose(coin)
    _, sigma0, drift = _lemma_sums(coin, n)
    a, b, c, d = coin.matrix().ravel().tolist()
    phase = (a * d / abs(a * d)) ** n
    return phase * (
        (drift / a) * p + (drift / d) * q + (sigma0 / c) * r + (sigma0 / b) * s
    )


def return_lemma1(coin: CoinMatrix, phi: QWInitialState, n: int) -> float:
    """Return probability at time 2n via the path-sum matrix."""
    if _require_count(n, "n") == 0:
        return 1.0
    v = xi_lemma1(coin, n) @ phi.vector()
    return float(np.abs(v[0]) ** 2 + np.abs(v[1]) ** 2)


def _closed_even(k: float, p_lo: np.ndarray, p_hi: np.ndarray) -> np.ndarray:
    """Closed-form r_{2j} from (P_{j-1}(k), P_j(k)), elementwise."""
    return (p_lo * p_lo - 2.0 * k * p_hi * p_lo + p_hi * p_hi) / (2.0 * (k + 1.0))


def return_closed_qw(alpha_sq: float, n: int) -> float:
    """Legendre closed form for the return probability at time n.

    r_{2j} = ({P_{j-1}(k)}^2 - 2k P_j(k) P_{j-1}(k) + {P_j(k)}^2) / (2(k+1))
    with k = 2|alpha|^2 - 1; odd times return 0, r_0 = 1.  The value is
    entry n of :func:`return_series_qw`, the route that every caller
    takes; ``bench/tracing.py`` wraps this view by name, and its
    ``Tracer.install`` raises on a missing name.
    """
    return return_series_qw(alpha_sq, _require_count(n, "n"))[n]


def return_series_qw(alpha_sq: float, nmax: int) -> np.ndarray:
    """Closed-form return series r_0..r_nmax from one Legendre sweep."""
    if not 0.0 < alpha_sq < 1.0:
        raise ValueError(f"alpha_sq must lie in (0, 1), got {alpha_sq}")
    nmax = _require_count(nmax, "nmax")
    k = 2.0 * alpha_sq - 1.0
    legendre = legendre_range(nmax // 2, k)
    values = np.zeros(nmax + 1)
    values[0] = 1.0
    # k rounds to -1 for |alpha|^2 below about 1e-17 and the form reads
    # 0/0: raise FloatingPointError (an ArithmeticError), never return NaN.
    with np.errstate(divide="raise", invalid="raise"):
        values[2::2] = _closed_even(k, legendre[:-1], legendre[1:])
    return values


def return_hadamard(n: int) -> float:
    """Hadamard-walk return probability at time n.

    r_0 = 1, r_2 = 1/2, and r_{4m} = r_{4m+2} = C(2m, m)^2 / 2^{4m+1}.
    """
    n = _require_count(n, "n")
    if n == 0:
        return 1.0
    if n % 2 == 1:
        return 0.0
    j = n // 2
    # Exactly one of j-1, j is even; only the even-degree value survives at 0.
    even = j if j % 2 == 0 else j - 1
    m = even // 2
    # int/int true division is correctly rounded and cannot overflow.
    central = binom(2 * m, m) / 4**m
    return 0.5 * central * central
