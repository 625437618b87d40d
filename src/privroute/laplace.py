"""Laplace noise: exact sampling, and a polynomial quantile usable inside Z_p.

The joint noise-generation protocol can only add and multiply field elements,
so it samples a uniform seed and pushes it through a polynomial approximation
of the Laplace quantile function.  Two constraints shape the construction:

* Each participant contributes a seed summand drawn from {0..M-1}; the joint
  seed T is the plain integer sum, whose distribution is the N-fold discrete
  uniform convolution (Irwin-Hall shape), not uniform.  The polynomial is
  therefore fitted against that sum's CDF, which makes the pushforward of T a
  quantile transform of the intended Laplace law.
* The polynomial is evaluated in Z_p with integer coefficients round(c_z * S)
  for a power-of-two scale S, and the result is decoded by one signed
  reduction and one division by S at the very end.  That decode is only
  faithful while the integer value never crosses +-p/2, so construction
  rejects any (p, degree, S, M) combination whose worst case could wrap.

The fit runs its polynomial in the smallest member of `field.FIELD_PRIMES`,
up to the p it is given, that passes that check.  Degree 7 over 20 parties
with 2^16 seed values needs 167 bits and runs in 2^255 - 19; degree 15 over
5 parties with a 2^20 seed range needs 377 bits and runs in the Mersenne
field 2^521 - 1; neither can be encoded in 2^61 - 1 (the overflow check
raises OverflowRisk there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.polynomial.chebyshev as _cheb

from .field import FIELD_PRIMES, PrimeModulus


class OverflowRisk(ValueError):
    """Raised when an encoded polynomial evaluation could wrap past +-p/2."""


@dataclass(frozen=True)
class LaplaceParams:
    """Zero-mean Laplace distribution with scale 1/epsilon."""

    epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")


def laplace_cdf(z, params: LaplaceParams):
    """Distribution function; accepts scalars or numpy arrays."""
    eps = params.epsilon
    z = np.asarray(z, dtype=float)
    out = np.where(z <= 0, 0.5 * np.exp(eps * np.minimum(z, 0.0)),
                   1.0 - 0.5 * np.exp(-eps * np.maximum(z, 0.0)))
    return out if out.ndim else float(out)


def _quantile_vector(v: np.ndarray, eps: float) -> np.ndarray:
    """Laplace quantile of each v in (0,1), vectorized."""
    return np.where(v <= 0.5, np.log(2.0 * v) / eps, -np.log(2.0 * (1.0 - v)) / eps)


def sample_laplace_vector(epsilon: float, generator: np.random.Generator, size) -> np.ndarray:
    """Vectorized exact sampler for the simulator's fast path.

    epsilon may be math.inf (the no-noise limit); the uniform draws are
    consumed either way so paired runs stay aligned.
    """
    u = generator.random(size)
    if math.isinf(epsilon):
        return np.zeros_like(u)
    return _quantile_vector(np.maximum(u, 5e-324), epsilon)


def ks_distance(samples: np.ndarray, params: LaplaceParams) -> float:
    """One-sample Kolmogorov-Smirnov statistic against the Laplace CDF."""
    z = np.sort(np.asarray(samples, dtype=float))
    n = len(z)
    cdf = laplace_cdf(z, params)
    hi = np.max(np.abs(np.arange(1, n + 1) / n - cdf))
    lo = np.max(np.abs(np.arange(0, n) / n - cdf))
    return float(max(hi, lo))


# ---------------------------------------------------------------------------
# Seed-sum distribution: T = sum of n_parties draws uniform on {0..M-1}
# ---------------------------------------------------------------------------

_IH_EXACT_LIMIT = 12  # inclusion-exclusion is float-stable up to here


def _irwin_hall_cdf(x: np.ndarray, n: int) -> np.ndarray:
    """CDF of the sum of n independent U[0,1] variables."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k in range(n + 1):
        out += (-1) ** k * math.comb(n, k) * np.clip(x - k, 0.0, None) ** n
    return np.clip(out / math.factorial(n), 0.0, 1.0)


def seed_sum_cdf(w, n_parties: int, seed_range: int) -> np.ndarray:
    """Midpoint-continuity CDF of the integer seed sum, evaluated at w.

    Exact for one party; the Irwin-Hall continuous shape for up to 12 parties;
    a normal approximation beyond (error O(1/sqrt(n)), negligible at the party
    counts where it engages).
    """
    w = np.asarray(w, dtype=float)
    n, M = n_parties, seed_range
    if n <= _IH_EXACT_LIMIT:
        return _irwin_hall_cdf((w + n / 2.0) / M, n)
    mean = n * (M - 1) / 2.0
    var = n * (M * M - 1) / 12.0
    t = (w - mean) / math.sqrt(2.0 * var)
    erf = np.fromiter(map(math.erf, t.ravel().tolist()), dtype=float, count=t.size)
    return 0.5 * (1.0 + erf.reshape(t.shape))


def _fft_length(size: int) -> int:
    """The smallest 2^a * 3^b * 5^c at least `size`: a length numpy's FFT
    transforms fast, and often much shorter than the next power of two."""
    best = 1 << (size - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-size // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def seed_sum_pmf(n_parties: int, seed_range: int) -> np.ndarray:
    """Exact pmf of the seed sum on {0..n(M-1)}, to float rounding.

    The sum of n uniforms on {0..M-1} has the n-fold convolution of the
    uniform as its pmf: one real FFT of the uniform, raised to the n-th
    power and transformed back.  The transform is at least the n(M-1) + 1
    points of the result long, so the cyclic convolution does not wrap.
    Rounding leaves values about 1e-16 off, and the ones pushed below 0 are
    clipped to it.
    """
    size = n_parties * (seed_range - 1) + 1
    length = _fft_length(size)
    spectrum = np.fft.rfft(np.full(seed_range, 1.0 / seed_range), length)
    pmf = np.fft.irfft(spectrum**n_parties, length)[:size]
    return np.maximum(pmf, 0.0)


# ---------------------------------------------------------------------------
# Polynomial quantile
# ---------------------------------------------------------------------------


class InverseCdfPoly:
    """Degree-d approximation of the Laplace quantile over the seed-sum domain.

    Holds signed integer coefficients scaled by 2^scale_bits, which the share
    protocol evaluates in Z_p; every real-valued method describes that decoded
    polynomial, field_coeffs / S.  `fit_inverse_cdf_poly` records its fit on
    the result (epsilon, clamp, max_abs_error, ks_distance); these read None
    when built from explicit coefficients.
    """

    def __init__(
        self,
        field_coeffs: Sequence[int],
        *,
        modulus: PrimeModulus,
        n_parties: int,
        seed_range: int,
        scale_bits: int = 0,
    ):
        # each would otherwise surface only partway through a round
        # (randrange of an empty range, a negative shift count, an index
        # into no coefficients)
        self.field_coeffs = tuple(int(c) for c in field_coeffs)
        if not self.field_coeffs:
            raise ValueError("field_coeffs must hold at least the constant term")
        if seed_range < 1:
            raise ValueError(f"seed_range must be at least 1, got {seed_range}")
        if n_parties < 1:
            raise ValueError(f"n_parties must be at least 1, got {n_parties}")
        if scale_bits < 0:
            raise ValueError(f"scale_bits must be non-negative, got {scale_bits}")
        self.scale_bits = scale_bits
        self.scale = 1 << scale_bits
        self.degree = len(self.field_coeffs) - 1
        self.modulus = modulus
        self.n_parties = n_parties
        self.seed_range = seed_range
        self.epsilon = self.clamp = self.max_abs_error = self.ks_distance = None
        self.value_bound = _worst_case_magnitude(
            self.field_coeffs, n_parties, seed_range, self.scale
        )
        if 2 * self.value_bound >= modulus.p:
            raise OverflowRisk(
                f"encoded evaluation can reach {self.value_bound}, "
                f"which does not decode unambiguously under p={modulus.p}; "
                f"use a larger modulus or a smaller degree/seed range"
            )
        # t = 2w/width - 1 maps the seed sums [0, w_max] onto [-1, 1]
        self._width = max(self.seed_sum_max, 1)
        self._series = self._chebyshev_series()

    @property
    def seed_sum_max(self) -> int:
        return self.n_parties * (self.seed_range - 1)

    def _chebyshev_series(self) -> np.ndarray:
        """Float64 Chebyshev coefficients, in t, of field_coeffs / S.

        Exact integer arithmetic until one rounding per coefficient: with
        w = (t + 1) * width / 2 and t^k = 2^-k * sum_i C(k, i) * T_|k-2i|,
        coefficient j is N_j / 2^(scale_bits + 2d) for an integer N_j.
        """
        d = self.degree
        # b[z] * 2^-(scale_bits + d): the coefficient of (t + 1)^z
        b = [c * self._width**z << (d - z) for z, c in enumerate(self.field_coeffs)]
        # a[k] * 2^-(scale_bits + d): the coefficient of t^k
        a = [sum(b[z] * math.comb(z, k) for z in range(k, d + 1)) for k in range(d + 1)]
        series = [0] * (d + 1)
        for k, ak in enumerate(a):
            for i in range(k + 1):
                series[abs(k - 2 * i)] += ak * math.comb(k, i) << (d - k)
        denominator = 1 << (self.scale_bits + 2 * d)
        return np.array([n / denominator for n in series])

    def evaluate_real(self, w):
        """Real value of the decoded polynomial, field_coeffs / S, at seed sum w.

        Evaluates the Chebyshev series of the integer coefficients, which
        agrees with exact integer Horner to float precision.
        """
        t = 2.0 * np.asarray(w, dtype=float) / self._width - 1.0
        out = _cheb.chebval(t, self._series)
        return out if np.ndim(out) else float(out)

    def sample_noise(self, generator: np.random.Generator, size: int) -> np.ndarray:
        """`size` decoded noise draws: `evaluate_real` at sums of n_parties uniform seeds."""
        seeds = generator.integers(0, self.seed_range, size=(self.n_parties, size))
        return np.asarray(self.evaluate_real(seeds.sum(axis=0)), dtype=float)

    def fit_report(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "d": self.degree,
            "q": self.clamp,
            "scale": self.scale_bits,
            "max_abs_error": self.max_abs_error,
            "ks_distance": self.ks_distance,
            "n_parties": self.n_parties,
            "seed_bits": int(self.seed_range).bit_length() - 1,
            "tail_mass": None if self.clamp is None else 2 * self.clamp,
            "modulus_bits": self.modulus.p.bit_length(),
        }


def _worst_case_magnitude(
    field_coeffs: Sequence[int], n_parties: int, seed_range: int, scale: int
) -> int:
    """Upper bound on |S*count + sum_z c_hat_z * w^z| over the whole run."""
    w_max = n_parties * (seed_range - 1)
    bound = scale * n_parties  # counts never exceed the party count
    for z, c in enumerate(field_coeffs):
        bound += abs(c) * w_max**z
    return bound


def _auto_scale_bits(epsilon: float, degree: int, w_max: int) -> int:
    """Smallest power-of-two scale that keeps rounding error below 0.5% of 1/eps."""
    rounding_bound = sum(w_max**z for z in range(degree + 1))  # x2 margin over 0.5*sum
    target = 0.005 / epsilon
    return max(16, (int(math.ceil(rounding_bound / target))).bit_length())


def fit_inverse_cdf_poly(
    params: LaplaceParams,
    d: int,
    p: int,
    q: float = 1e-4,
    *,
    n_parties: int = 1,
    seed_bits: int = 20,
    ks_samples: int = 100_000,
) -> InverseCdfPoly:
    """Least-squares polynomial quantile on Chebyshev nodes, field-encoded.

    The target is the Laplace quantile composed with the seed-sum CDF, with
    the CDF argument clipped to [q, 1-q] so the log singularities never enter
    the fit (sacrificing 2q of tail mass).  max_abs_error is that of the
    real-valued fit on a dense grid.  The recorded ks_distance samples the
    decoded polynomial the protocol publishes, seed sums included, against the
    exact Laplace CDF; its generator is default_rng(0).  The fixed-point scale
    comes from `_auto_scale_bits`.

    p is the largest field the polynomial may run in, and must be prime.  The
    polynomial runs in the smallest member of `FIELD_PRIMES` below p whose
    p/2 exceeds its `value_bound`, else in p itself; a p that cannot hold
    the bound raises OverflowRisk.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if not 0 < q < 0.5:
        raise ValueError(f"clamp fraction must lie in (0, 1/2), got {q}")
    if seed_bits < 1:
        raise ValueError("seed_bits must be >= 1")
    if n_parties < 1:
        raise ValueError(f"need at least 1 party, got {n_parties}")
    largest = PrimeModulus(p)
    eps = params.epsilon
    M = 1 << seed_bits
    w_max = n_parties * (M - 1)
    scale_bits = _auto_scale_bits(eps, d, w_max)

    n_nodes = max(8 * (d + 1), 512)
    t_nodes = np.cos(np.pi * (2 * np.arange(n_nodes) + 1) / (2 * n_nodes))
    w_nodes = (t_nodes + 1.0) / 2.0 * w_max
    cdf_vals = np.clip(seed_sum_cdf(w_nodes, n_parties, M), q, 1.0 - q)
    targets = _quantile_vector(cdf_vals, eps)
    cheb_coeffs = _cheb.chebfit(t_nodes, targets, d)

    # dense-grid error of the real-valued fit
    t_grid = np.linspace(-1.0, 1.0, 20_001)
    w_grid = (t_grid + 1.0) / 2.0 * w_max
    cdf_grid = np.clip(seed_sum_cdf(w_grid, n_parties, M), q, 1.0 - q)
    target_grid = _quantile_vector(cdf_grid, eps)
    max_abs_error = float(np.max(np.abs(_cheb.chebval(t_grid, cheb_coeffs) - target_grid)))

    # monomial coefficients in the raw seed variable w, then fixed-point ints:
    # P(w) = sum_z a_z t^z with t = 2w/w_max - 1 is re-expanded in powers of w
    coeffs_t = _cheb.cheb2poly(cheb_coeffs)
    mapping = np.array([-1.0, 2.0 / w_max])  # t as a polynomial in w
    raw = np.zeros(1)
    power = np.array([1.0])
    for a in coeffs_t:
        raw = np.polynomial.polynomial.polyadd(raw, a * power)
        power = np.polynomial.polynomial.polymul(power, mapping)
    field_coeffs = []
    for c in list(raw) + [0.0] * (d + 1 - len(raw)):
        scaled = math.ldexp(float(c), scale_bits)
        if not math.isfinite(scaled):
            raise OverflowRisk(
                f"scale 2^{scale_bits} overflows the coefficient encoding; "
                f"the configuration (d={d}, seed_bits={seed_bits}) is too wide"
            )
        field_coeffs.append(int(round(scaled)))

    bound = _worst_case_magnitude(field_coeffs, n_parties, M, 1 << scale_bits)
    prime = next((f for f in FIELD_PRIMES if f < p and 2 * bound < f), None)
    poly = InverseCdfPoly(
        field_coeffs,
        modulus=largest if prime is None else PrimeModulus(prime),
        n_parties=n_parties,
        seed_range=M,
        scale_bits=scale_bits,
    )
    poly.epsilon = eps
    poly.clamp = q
    poly.max_abs_error = max_abs_error
    rng = np.random.default_rng(0)
    poly.ks_distance = ks_distance(poly.sample_noise(rng, ks_samples), params)
    return poly
