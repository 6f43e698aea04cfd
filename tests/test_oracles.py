"""Checks of the oracle exponential expm_hermitian_generator, which the
kernel tests compare step_exponentials against: hand-derived values,
unitarity at large angles, additivity in the angle and its Hermitian rule."""

import numpy as np
import pytest

from gateflow import unitarity_defect
from helpers import random_hermitian
from oracles import expm_hermitian_generator


def test_expm_zero_angle_is_identity():
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 4)
    assert np.allclose(expm_hermitian_generator(h, 0.0), np.eye(4), atol=1e-14)


def test_expm_diagonal_generator():
    h = np.diag([1.5, -2.0]).astype(complex)
    theta = 0.7
    expected = np.diag(np.exp(-1j * theta * np.array([1.5, -2.0])))
    assert np.allclose(expm_hermitian_generator(h, theta), expected, atol=1e-12)


def test_expm_pauli_x_quarter_turn():
    # exp(-i (pi/2) sigma_x) = cos(pi/2) I - i sin(pi/2) sigma_x = -i sigma_x;
    # cross-checked against plain series summation of the exponential.
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    theta = np.pi / 2
    got = expm_hermitian_generator(sigma_x, theta)
    assert np.allclose(got, -1j * sigma_x, atol=1e-12)
    series = np.zeros((2, 2), dtype=complex)
    term = np.eye(2, dtype=complex)
    for j in range(1, 40):
        series += term
        term = term @ (-1j * theta * sigma_x) / j
    assert np.allclose(got, series, atol=1e-12)


def test_expm_output_unitary_even_for_large_angles():
    rng = np.random.default_rng(8)
    for _ in range(20):
        h = random_hermitian(rng, 4)
        spread = np.abs(np.linalg.eigvalsh(h)).max()
        theta = 1e3 / spread
        u = expm_hermitian_generator(h, theta)
        assert unitarity_defect(u, u.conj().T) <= 1e-12


def test_expm_angle_additivity():
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, 4)
    u1 = expm_hermitian_generator(h, 0.3)
    u2 = expm_hermitian_generator(h, 1.1)
    u12 = expm_hermitian_generator(h, 1.4)
    assert np.abs(u1 @ u2 - u12).max() <= 1e-10


def test_expm_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        expm_hermitian_generator(bad, 1.0)
