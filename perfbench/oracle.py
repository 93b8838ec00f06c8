"""Independent numpy references for the benchmark's correctness checks.

Nothing here imports fermient. The functions restate the package's
conventions (README "Conventions") with vectorized bit arithmetic and
LAPACK eigensolvers, so a check compares the program against a second
implementation rather than against itself.
"""

from __future__ import annotations

import numpy as np

#: The README's bound slack and lift residual; every numeric check uses it.
TOL = 1e-9

# the three 2+2 splits of four modes, then the four 1+3 splits (as check-lemma2)
LEMMA_PARTITIONS = ((0, 1), (0, 2), (0, 3), (0,), (1,), (2,), (3,))


def popcount(masks: np.ndarray) -> np.ndarray:
    return np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)


def sector_state(rng: np.random.Generator, n: int, parity: str) -> np.ndarray:
    """Gaussian amplitudes on one parity sector, normalized.

    Draws real parts then imaginary parts from ``rng``, which is the order
    ``fermient.random_state`` uses, so a block seed fed to ``check-lemma2``
    regenerates the same states here.
    """
    masks = np.arange(1 << n)
    sector = np.flatnonzero((popcount(masks) & 1) == (0 if parity == "even" else 1))
    vec = np.zeros(1 << n, dtype=np.complex128)
    vec[sector] = rng.normal(size=sector.size) + 1j * rng.normal(size=sector.size)
    return vec / np.linalg.norm(vec)


def apply_mode_op(vec: np.ndarray, n: int, mode: int, dagger: bool) -> np.ndarray:
    """c_mode (or cdag_mode) with sign (-1)^(occupied modes below ``mode``)."""
    masks = np.arange(1 << n)
    bit = 1 << mode
    src = masks[(masks & bit) == 0] if dagger else masks[(masks & bit) != 0]
    sign = 1.0 - 2.0 * (popcount(src & (bit - 1)) & 1)
    out = np.zeros_like(vec)
    out[src ^ bit] = sign * vec[src]
    return out


def extended_spectrum(vec: np.ndarray, n: int) -> np.ndarray:
    """Eigenvalues of [[rho, kappa], [-conj(kappa), 1 - conj(rho)]], descending."""
    ann = np.array([apply_mode_op(vec, n, i, False) for i in range(n)])
    cre = np.array([apply_mode_op(vec, n, i, True) for i in range(n)])
    rho = (ann.conj() @ ann.T).T
    kappa = (cre.conj() @ ann.T).T
    m = np.block([[rho, kappa], [-kappa.conj(), np.eye(n) - rho.conj()]])
    return np.linalg.eigvalsh((m + m.conj().T) / 2.0)[::-1]


def occupation_spectrum(vec: np.ndarray, n: int) -> np.ndarray:
    ann = np.array([apply_mode_op(vec, n, i, False) for i in range(n)])
    rho = (ann.conj() @ ann.T).T
    return np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[::-1]


def coefficient_matrix(vec: np.ndarray, n: int, side_a: tuple[int, ...]) -> np.ndarray:
    """Amplitudes as a (local A) x (local B) matrix, dressed with the sign of
    moving every occupied A mode in front of every occupied B mode."""
    side_b = tuple(m for m in range(n) if m not in side_a)
    masks = np.arange(1 << n)
    occ = [(masks >> m) & 1 for m in range(n)]
    a_idx = sum(occ[m] << k for k, m in enumerate(side_a))
    b_idx = sum(occ[m] << k for k, m in enumerate(side_b))
    crossings = sum(occ[a] * occ[b] for a in side_a for b in side_b if a > b)
    t = np.zeros((1 << len(side_a), 1 << len(side_b)), dtype=np.complex128)
    t[a_idx, b_idx] = (1.0 - 2.0 * (crossings & 1)) * vec
    return t


def reduced_spectrum(vec: np.ndarray, n: int, side_a: tuple[int, ...]) -> np.ndarray:
    t = coefficient_matrix(vec, n, side_a)
    return np.linalg.eigvalsh(t @ t.conj().T)[::-1]


def schmidt_spectrum(vec: np.ndarray, n: int, n_a: int) -> np.ndarray:
    """Reduced spectrum of modes 0..n_a-1 from an SVD of the reshaped vector.

    Side A holds the low bits, so no sign dressing is needed for this split.
    """
    s = np.linalg.svd(vec.reshape(1 << (n - n_a), 1 << n_a), compute_uv=False)
    return s**2


def von_neumann(values: np.ndarray) -> float:
    p = np.clip(values, 0.0, 1.0)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def quadratic(values: np.ndarray) -> float:
    p = np.clip(values, 0.0, 1.0)
    return float(np.sum(2.0 * p * (1.0 - p)))


def binary(values: np.ndarray) -> float:
    p = np.clip(values, 0.0, 1.0)
    return von_neumann(p) + von_neumann(1.0 - p)


def lemma2_block(seed: int, samples: int) -> dict:
    """The figures ``check-lemma2 --samples S --seed seed`` must report."""
    rng = np.random.default_rng(seed)
    max_excess = -np.inf
    min_margin = np.inf
    violations = 0
    for index in range(samples):
        vec = sector_state(rng, 4, "even" if index % 2 == 0 else "odd")
        ext = extended_spectrum(vec, 4)
        f_plus = float(np.mean(ext[:4]))
        bounds = (von_neumann(ext) / 4.0, quadratic(ext) / 4.0)
        for side in LEMMA_PARTITIONS:
            red = reduced_spectrum(vec, 4, side)
            excess = float(red[0]) - f_plus
            max_excess = max(max_excess, excess)
            violations += excess > TOL
            for value, bound in zip((von_neumann(red), quadratic(red)), bounds):
                min_margin = min(min_margin, value - bound)
                violations += value - bound < -TOL
    return {
        "checks": samples * len(LEMMA_PARTITIONS),
        "violations": violations,
        "max_lambda_excess": max_excess,
        "min_entropy_margin": min_margin,
    }


def logical_rotation(weights: tuple[float, float, float]) -> np.ndarray:
    """exp(i sum_a w_a sigma_a) on the logical pair (|0_L>, |1_L>).

    In that basis the pair dictionary reads sigma_x = [[0,1],[1,0]],
    sigma_y = [[0,i],[-i,0]] and sigma_z = diag(-1, 1) (|0_L> is the
    sigma_z = -1 state), so the exponential has the closed form
    cos|w| + i sin|w| (w.sigma)/|w|.
    """
    wx, wy, wz = weights
    gen = np.array([[-wz, wx + 1j * wy], [wx - 1j * wy, wz]], dtype=np.complex128)
    norm = float(np.sqrt(wx * wx + wy * wy + wz * wz))
    if norm == 0.0:
        return np.eye(2, dtype=np.complex128)
    return np.cos(norm) * np.eye(2) + 1j * np.sin(norm) / norm * gen
