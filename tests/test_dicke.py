import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import sector_indices, splus_sminus_matrix, w_ket, w_state
from afcdepth.dicke import ToothAmplitudes, single_excitation_contrast


class TestWState:
    def test_single_tooth(self):
        state = w_state(1)
        assert state.c.dtype == complex
        assert np.allclose(state.c, [1.0])

    def test_four_teeth(self):
        state = w_state(4)
        assert state.n_teeth == 4
        assert np.allclose(state.c, [0.5, 0.5, 0.5, 0.5])

    def test_large_comb_amplitude(self):
        state = w_state(564)
        assert state.n_teeth == 564
        assert state.c[0] == pytest.approx(0.042108, abs=1e-6)
        assert state.excitation_weight == pytest.approx(1.0, abs=1e-12)

    def test_zero_teeth_rejected(self):
        with pytest.raises(ValueError):
            ToothAmplitudes(np.zeros(0))


class TestContrast:
    @pytest.mark.parametrize("m", range(1, 21))
    def test_symmetric_state_reaches_tooth_count(self, m):
        assert single_excitation_contrast(w_state(m)) == pytest.approx(m, rel=1e-12)

    def test_antisymmetric_state_cancels(self):
        c = [1 / math.sqrt(2), -1 / math.sqrt(2)]
        assert single_excitation_contrast(c) == pytest.approx(0.0, abs=1e-15)

    def test_two_tooth_example(self):
        assert single_excitation_contrast([0.8, 0.6]) == pytest.approx(1.96, abs=1e-12)

    def test_all_zero_is_domain_error(self):
        with pytest.raises(ValueError):
            single_excitation_contrast([0.0, 0.0])

    def test_excess_weight_rejected(self):
        with pytest.raises(ValueError):
            ToothAmplitudes(np.array([1.0, 1.0]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                    min_size=1, max_size=12))
    def test_bounded_and_permutation_invariant(self, pairs):
        c = np.array([complex(re, im) for re, im in pairs])
        norm = np.linalg.norm(c)
        if norm < 1e-6:
            return
        c = c / norm
        value = single_excitation_contrast(c)
        assert -1e-12 <= value <= c.size + 1e-9
        shuffled = np.random.default_rng(0).permutation(c)
        assert single_excitation_contrast(shuffled) == pytest.approx(value, rel=1e-9)


class TestDephasedContrast:
    """Contrast after tooth j acquired the phase exp(i phi_j)."""

    @staticmethod
    def dephased(state, phases):
        return single_excitation_contrast(state.c * np.exp(1j * np.asarray(phases)))

    def test_zero_phases_match_plain_contrast(self):
        state = w_state(3)
        assert self.dephased(state, [0.0, 0.0, 0.0]) == pytest.approx(3.0)

    def test_rephasing_at_echo_time(self):
        n = 17
        state = w_state(n)
        delta = 2 * math.pi * 0.2e9
        t_echo = 2 * math.pi / delta
        phases = np.arange(n) * delta * t_echo
        assert self.dephased(state, phases) == pytest.approx(n, rel=1e-9)

    def test_periodic_in_echo_time(self):
        n = 7
        state = ToothAmplitudes(np.linspace(0.1, 0.4, n).astype(complex))
        delta = 1.0
        t = 0.3
        period = 2 * math.pi / delta
        a = self.dephased(state, np.arange(n) * delta * t)
        b = self.dephased(state, np.arange(n) * delta * (t + period))
        assert a == pytest.approx(b, rel=1e-9)

    def test_fourth_roots_cancel(self):
        phases = [0, math.pi / 2, math.pi, 3 * math.pi / 2]
        assert self.dephased(w_state(4), phases) == pytest.approx(0.0, abs=1e-12)


class TestCollectiveLoweringProduct:
    def test_single_qubit(self):
        assert np.allclose(splus_sminus_matrix(1), np.diag([0.0, 1.0]))

    def test_two_qubit_symmetric_expectation(self):
        mat = splus_sminus_matrix(2)
        psi = np.zeros(4, dtype=complex)
        psi[0b01] = psi[0b10] = 1 / math.sqrt(2)
        assert np.vdot(psi, mat @ psi).real == pytest.approx(2.0, abs=1e-12)

    def test_hermitian_positive_semidefinite(self):
        mat = splus_sminus_matrix(6)
        assert np.allclose(mat, mat.conj().T)
        eigs = np.linalg.eigvalsh(mat)
        assert eigs.min() > -1e-10

    @pytest.mark.parametrize("m", range(1, 13))
    def test_single_excitation_sector_spectrum(self, m):
        # one non-zero eigenvalue equal to the qubit count, symmetric eigenvector
        mat = splus_sminus_matrix(m)
        idx = sector_indices(m, 1)
        block = mat[np.ix_(idx, idx)]
        eigvals, eigvecs = np.linalg.eigh(block)
        assert eigvals[-1] == pytest.approx(m, abs=1e-10)
        assert np.all(np.abs(eigvals[:-1]) < 1e-10)
        top = eigvecs[:, -1]
        overlap = abs(np.vdot(top, np.full(m, 1 / math.sqrt(m))))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_w_ket_matches_sector(self):
        psi = w_ket(5)
        mat = splus_sminus_matrix(5)
        assert np.vdot(psi, mat @ psi).real == pytest.approx(5.0, abs=1e-10)

    def test_capacity_guard(self):
        with pytest.raises(ValueError):
            splus_sminus_matrix(15)
