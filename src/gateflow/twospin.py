"""The two-qubit benchmark: drift Hamiltonian, local controls and the two
gate targets used by the comparison runs."""

from types import MappingProxyType

import numpy as np

from .system import GateTarget, QuantumSystem

# Spin-1/2 matrices scaled so that S_i = sigma_i / sqrt(2). The coupling
# and frequency constants below assume exactly this normalization.
SX = np.array([[0, 1], [1, 0]], dtype=complex) / np.sqrt(2)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex) / np.sqrt(2)
SZ = np.array([[1, 0], [0, -1]], dtype=complex) / np.sqrt(2)

I2 = np.eye(2, dtype=complex)


def build_two_spin_benchmark():
    """Two coupled spins with an x control on each spin.

    Its drift has spin frequencies 20 and 30 and couplings 110 (xx), 120 (yy), 130 (zz).
    Basis ordering is |q1 q2> with the first spin as the leading tensor
    factor, so the row/column index is 2*q1 + q2.
    """
    h0 = (
        20.0 * np.kron(SZ, I2)
        + 30.0 * np.kron(I2, SZ)
        + 110.0 * np.kron(SX, SX)
        + 120.0 * np.kron(SY, SY)
        + 130.0 * np.kron(SZ, SZ)
    )
    controls = np.stack([np.kron(SX, I2), np.kron(I2, SX)])
    return QuantumSystem(h0=h0, controls=controls)


def _phased_permutation(perm):
    """exp(i pi/4) times the identity with its rows reordered as perm.

    The traceless Hamiltonians can only generate unitaries of determinant
    one; the bare CNOT and SWAP have determinant -1, and the global phase
    lines that up.
    """
    return np.exp(1j * np.pi / 4) * np.eye(4, dtype=complex)[list(perm)]


# The benchmark targets by label, built once and read-only.
GATE_TARGETS = MappingProxyType({
    label: GateTarget(matrix=_phased_permutation(perm), label=label)
    for label, perm in (("cnot", (0, 1, 3, 2)), ("swap", (0, 2, 1, 3)))})


def gate_target(name):
    """Look up a benchmark target by label ('cnot' or 'swap', any case)."""
    try:
        return GATE_TARGETS[str(name).lower()]
    except KeyError:
        raise ValueError(f"gate must be {' or '.join(GATE_TARGETS)}, got {name!r}") from None
