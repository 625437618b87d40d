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

High degrees over wide seed ranges need room: degree 15 with a 2^20 seed
range fits comfortably in the Mersenne field 2^521 - 1 but cannot be encoded
in 2^61 - 1 (the overflow check raises OverflowRisk there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import numpy.polynomial.chebyshev as _cheb

from .field import PrimeModulus


class DomainError(ValueError):
    """Raised for inverse-CDF arguments at or beyond the log singularities."""


class OverflowRisk(ValueError):
    """Raised when an encoded polynomial evaluation could wrap past +-p/2."""


@dataclass(frozen=True)
class LaplaceParams:
    """Zero-mean Laplace distribution with scale 1/epsilon."""

    epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")


def laplace_pdf(z: float, params: LaplaceParams) -> float:
    """Density (eps/2) * exp(-eps*|z|)."""
    eps = params.epsilon
    return eps / 2.0 * math.exp(-eps * abs(z))


def laplace_cdf(z, params: LaplaceParams):
    """Distribution function; accepts scalars or numpy arrays."""
    eps = params.epsilon
    z = np.asarray(z, dtype=float)
    out = np.where(z <= 0, 0.5 * np.exp(eps * np.minimum(z, 0.0)),
                   1.0 - 0.5 * np.exp(-eps * np.maximum(z, 0.0)))
    return out if out.ndim else float(out)


def _quantile_unit(v: float, eps: float) -> float:
    """Laplace quantile of v in (0,1)."""
    if v <= 0.5:
        return math.log(2.0 * v) / eps
    return -math.log(2.0 * (1.0 - v)) / eps


def _quantile_vector(v: np.ndarray, eps: float) -> np.ndarray:
    """Laplace quantile of each v in (0,1), vectorized."""
    return np.where(v <= 0.5, np.log(2.0 * v) / eps, -np.log(2.0 * (1.0 - v)) / eps)


def inverse_cdf_exact(u, params: LaplaceParams, p: int) -> float:
    """Laplace quantile of a seed u uniform on (0, p).

    (1/eps) * ln(2u/p) on the lower half, mirrored on the upper half.
    Monotone in u and antisymmetric about u = p/2; u = 0 and u = p are
    rejected because the logarithms diverge there.
    """
    if not 0 < u < p:
        raise DomainError(f"u must lie strictly inside (0, {p}), got {u}")
    return _quantile_unit(u / p, params.epsilon)


def sample_laplace_exact(params: LaplaceParams, rng) -> float:
    """One exact inverse-transform sample; rng needs only .random()."""
    u = rng.random()
    if u <= 0.0:
        u = 5e-324
    return _quantile_unit(u, params.epsilon)


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
    return 0.5 * (1.0 + np.vectorize(math.erf)(t))


def seed_sum_pmf(n_parties: int, seed_range: int) -> np.ndarray:
    """Exact pmf of the seed sum on {0..n(M-1)} by repeated convolution."""
    base = np.full(seed_range, 1.0 / seed_range)
    pmf = base
    for _ in range(n_parties - 1):
        pmf = np.convolve(pmf, base)
    return pmf


# ---------------------------------------------------------------------------
# Polynomial quantile
# ---------------------------------------------------------------------------


class InverseCdfPoly:
    """Degree-d approximation of the Laplace quantile over the seed-sum domain.

    Carries both the real-coefficient fit (for direct evaluation and quality
    reporting) and the fixed-point field encoding (for the share protocol).
    """

    def __init__(
        self,
        *,
        epsilon: Optional[float],
        clamp: Optional[float],
        scale_bits: int,
        field_coeffs: Sequence[int],
        modulus: PrimeModulus,
        n_parties: int,
        seed_range: int,
        coeffs: Optional[Sequence[float]] = None,
        cheb_coeffs: Optional[np.ndarray] = None,
        max_abs_error: Optional[float] = None,
        _skip_overflow_check: bool = False,
    ):
        self.epsilon = epsilon
        self.clamp = clamp
        self.scale_bits = scale_bits
        self.scale = 1 << scale_bits
        self.field_coeffs = tuple(int(c) for c in field_coeffs)
        self.degree = len(self.field_coeffs) - 1
        self.modulus = modulus
        self.n_parties = n_parties
        self.seed_range = seed_range
        self.coeffs = None if coeffs is None else tuple(float(c) for c in coeffs)
        self._cheb_coeffs = cheb_coeffs
        self.max_abs_error = max_abs_error
        self.ks_distance: Optional[float] = None  # set by fit_inverse_cdf_poly
        self.encoded_coeffs = tuple(c % modulus.p for c in self.field_coeffs)
        self.value_bound = self._worst_case_magnitude()
        if not _skip_overflow_check and 2 * self.value_bound >= modulus.p:
            raise OverflowRisk(
                f"encoded evaluation can reach {self.value_bound}, "
                f"which does not decode unambiguously under p={modulus.p}; "
                f"use a larger modulus or a smaller degree/seed range"
            )

    @property
    def seed_sum_max(self) -> int:
        return self.n_parties * (self.seed_range - 1)

    def _worst_case_magnitude(self) -> int:
        """Upper bound on |S*count + sum_z c_hat_z * w^z| over the whole run."""
        w_max = self.seed_sum_max
        bound = self.scale * self.n_parties  # counts never exceed the party count
        for z, c in enumerate(self.field_coeffs):
            bound += abs(c) * w_max**z
        return bound

    @classmethod
    def from_field_coeffs(
        cls,
        field_coeffs: Sequence[int],
        *,
        modulus: PrimeModulus,
        n_parties: int,
        seed_range: int,
        scale_bits: int = 0,
        check_overflow: bool = True,
    ) -> "InverseCdfPoly":
        """Wrap explicit signed integer coefficients (test and demo configs).

        check_overflow=False admits configurations whose decoded outputs wrap;
        only for analyses that inspect the raw field values, never the counts.
        """
        return cls(
            epsilon=None,
            clamp=None,
            scale_bits=scale_bits,
            field_coeffs=field_coeffs,
            modulus=modulus,
            n_parties=n_parties,
            seed_range=seed_range,
            _skip_overflow_check=not check_overflow,
        )

    def evaluate_real(self, w):
        """The decoded real value the protocol would produce for seed sum w."""
        if self._cheb_coeffs is not None:
            t = 2.0 * np.asarray(w, dtype=float) / self.seed_sum_max - 1.0
            out = _cheb.chebval(t, self._cheb_coeffs)
            return out if np.ndim(out) else float(out)
        # fall back to exact integer Horner on the encoded coefficients
        def one(wi: int) -> float:
            acc = 0
            for c in reversed(self.field_coeffs):
                acc = acc * int(wi) + c
            return acc / self.scale

        if np.ndim(w) == 0:
            return one(w)
        return np.array([one(wi) for wi in np.asarray(w).tolist()])

    def sample_noise(self, generator: np.random.Generator, size: int) -> np.ndarray:
        """Fast-path draws matching the protocol's output distribution."""
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


def _auto_scale_bits(epsilon: float, degree: int, w_max: int) -> int:
    """Smallest power-of-two scale that keeps rounding error below 0.5% of 1/eps."""
    rounding_bound = sum(w_max**z for z in range(degree + 1))  # x2 margin over 0.5*sum
    target = 0.005 / epsilon
    bits = max(16, (int(math.ceil(rounding_bound / target))).bit_length())
    return bits


def fit_inverse_cdf_poly(
    params: LaplaceParams,
    d: int,
    p,
    q: float = 1e-4,
    *,
    n_parties: int = 1,
    seed_bits: int = 20,
    ks_samples: int = 100_000,
) -> InverseCdfPoly:
    """Least-squares polynomial quantile on Chebyshev nodes, field-encoded.

    The target is the Laplace quantile composed with the seed-sum CDF, with
    the CDF argument clipped to [q, 1-q] so the log singularities never enter
    the fit (sacrificing 2q of tail mass).  The recorded ks_distance samples
    the full seed -> polynomial pipeline against the exact Laplace CDF, so it
    already includes seed quantization; its generator is default_rng(0).
    The fixed-point scale comes from `_auto_scale_bits`.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if not 0 < q < 0.5:
        raise ValueError(f"clamp fraction must lie in (0, 1/2), got {q}")
    if seed_bits < 1:
        raise ValueError("seed_bits must be >= 1")
    if n_parties < 1:
        raise ValueError(f"need at least 1 party, got {n_parties}")
    modulus = p if isinstance(p, PrimeModulus) else PrimeModulus(p)
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
    raw_coeffs = list(raw) + [0.0] * (d + 1 - len(raw))
    field_coeffs = []
    for c in raw_coeffs:
        scaled = math.ldexp(float(c), scale_bits)
        if not math.isfinite(scaled):
            raise OverflowRisk(
                f"scale 2^{scale_bits} overflows the coefficient encoding; "
                f"the configuration (d={d}, seed_bits={seed_bits}) is too wide"
            )
        field_coeffs.append(int(round(scaled)))

    poly = InverseCdfPoly(
        epsilon=eps,
        clamp=q,
        scale_bits=scale_bits,
        field_coeffs=field_coeffs,
        modulus=modulus,
        n_parties=n_parties,
        seed_range=M,
        coeffs=[c for c in raw_coeffs],
        cheb_coeffs=cheb_coeffs,
        max_abs_error=max_abs_error,
    )
    rng = np.random.default_rng(0)
    poly.ks_distance = ks_distance(poly.sample_noise(rng, ks_samples), params)
    return poly
