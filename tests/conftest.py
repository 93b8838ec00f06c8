import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run, so tier-1 stays deterministic
settings.register_profile("fermient", derandomize=True, deadline=None)
settings.load_profile("fermient")


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def slow_popcount(m: int) -> int:
    return bin(m).count("1")


def oracle_creation_matrix(n_modes: int, mode: int) -> np.ndarray:
    """Reference cdag_mode built entry-by-entry, independent of the library."""
    dim = 2**n_modes
    out = np.zeros((dim, dim), dtype=complex)
    bit = 1 << mode
    for m in range(dim):
        if m & bit:
            continue
        sign = (-1) ** slow_popcount(m & (bit - 1))
        out[m | bit, m] = sign
    return out


def oracle_annihilation_matrix(n_modes: int, mode: int) -> np.ndarray:
    return oracle_creation_matrix(n_modes, mode).conj().T


def oracle_reduced(state, part):
    """Partial trace by explicit sign-dressed reordering, kept independent."""
    order = list(part.side_a) + list(part.side_b)
    na = len(part.side_a)
    out = np.zeros((2 ** len(part.side_b), 2**na), dtype=complex)
    for mask in range(state.dim):
        amp = state.vector[mask]
        occ = [m for m in order if mask >> m & 1]
        sign = 1
        for i in range(len(occ)):
            for j in range(i + 1, len(occ)):
                if occ[i] > occ[j]:
                    sign = -sign
        a_idx = sum(((mask >> m) & 1) << k for k, m in enumerate(part.side_a))
        b_idx = sum(((mask >> m) & 1) << k for k, m in enumerate(part.side_b))
        out[b_idx, a_idx] += sign * amp
    rho_a = np.zeros((2**na, 2**na), dtype=complex)
    for row in out:
        rho_a += np.outer(row, row.conj())
    return rho_a
