"""The phase-only LoS channel matrix."""

import numpy as np
import pytest

from nearlink import kernel
from nearlink.channel import ZeroDistance, channel_matrix
from nearlink.geometry import ElementLayout, PanelSpec
from nearlink.mimo import condition_ratio, singular_values

LAM = 0.01


def pair_layout(separation, z):
    half = separation / 2.0
    pos = np.array([[-half, 0.0, z], [half, 0.0, z]])
    return ElementLayout(pos, np.array([0, 1]), PanelSpec(1, 1, 1.0))


def point(x):
    return ElementLayout(np.array([[x, 0.0, 0.0]]), np.array([0]), PanelSpec(1, 1, 1.0))


def coeff(distance):
    """The one entry of the channel between two elements ``distance`` apart."""
    return channel_matrix(point(0.0), point(distance), LAM)[0, 0]


def test_coeff_phase_only_half_wavelength():
    h = coeff(LAM / 2.0)
    assert abs(h - (-1.0)) < 1e-12


def test_coeff_phase_only_integer_wavelengths():
    h = coeff(10.0 * LAM)
    assert abs(abs(h) - 1.0) < 1e-15
    assert abs(np.angle(h)) < 1e-9


def test_coeff_zero_distance():
    with pytest.raises(ZeroDistance):
        coeff(0.0)


def test_matrix_single_pair_matches_coeff():
    m = channel_matrix(point(0.0), point(0.37), LAM)
    assert m.shape == (1, 1)
    assert m.dtype == np.complex128
    assert not m.flags.writeable
    assert m[0, 0] == np.exp(-2j * np.pi * (0.37 / LAM))


def test_matrix_coincident_elements_rejected():
    a = pair_layout(0.2, 0.0)
    with pytest.raises(ZeroDistance):
        channel_matrix(a, a, LAM)


def test_coincident_pair_in_a_later_block_names_its_rx_index(monkeypatch):
    # Three tx elements make a block of one rx row at a budget of 3, so rx
    # element 4 is checked alone in the fifth block.
    monkeypatch.setattr(kernel, "_BLOCK_BUDGET", 3)
    tx = ElementLayout(
        np.array([[0.0, 0.0, 9.0], [1.0, 0.0, 9.0], [2.0, 0.0, 9.0]]),
        np.arange(3),
        PanelSpec(1, 1, 1.0),
    )
    rx_pos = np.array([[0.5 * k, 1.0, 0.0] for k in range(6)])
    rx_pos[4] = [1.0, 0.0, 9.0]
    rx = ElementLayout(rx_pos, np.arange(6), PanelSpec(1, 1, 1.0))
    with pytest.raises(ZeroDistance, match=r"rx element 4 coincides with tx element 1$"):
        channel_matrix(tx, rx, LAM)


def test_2x2_ratio_is_one_at_the_sweet_spot():
    # d_tx = d_rx = 0.2 m at r = 2*d_tx*d_rx/lambda = 8 m puts the phase
    # spread at pi, where both singular values coincide.
    tx = pair_layout(0.2, 8.0)
    rx = pair_layout(0.2, 0.0)
    h = channel_matrix(tx, rx, LAM)
    ratio = condition_ratio(singular_values(h))
    assert abs(ratio - 1.0) <= 1e-3


def test_mirror_symmetry_means_symmetric_matrix():
    tx = pair_layout(0.3, 5.0)
    rx = pair_layout(0.3, 0.0)
    h = channel_matrix(tx, rx, LAM)
    np.testing.assert_array_equal(h, h.T)


def test_reciprocity_exact():
    rng = np.random.default_rng(9)
    tx_pos = rng.uniform(-1.0, 1.0, size=(3, 3)) + [0.0, 0.0, 50.0]
    rx_pos = rng.uniform(-1.0, 1.0, size=(5, 3))
    tx = ElementLayout(tx_pos, np.arange(3), PanelSpec(1, 1, 1.0))
    rx = ElementLayout(rx_pos, np.arange(5), PanelSpec(1, 1, 1.0))
    fwd = channel_matrix(tx, rx, LAM)
    rev = channel_matrix(rx, tx, LAM)
    np.testing.assert_array_equal(fwd, rev.T)


def test_phase_only_invariant_under_uniform_scaling():
    # phase depends on d/lambda only, so doubling lambda and all coordinates
    # changes nothing
    tx = pair_layout(0.2, 8.0)
    rx = pair_layout(0.2, 0.0)
    a = channel_matrix(tx, rx, LAM)
    tx2 = pair_layout(0.4, 16.0)
    rx2 = pair_layout(0.4, 0.0)
    b = channel_matrix(tx2, rx2, 2.0 * LAM)
    np.testing.assert_allclose(a, b, atol=1e-9)
