
import pytest

from afcdepth.errors import ConfigError
from afcdepth.spectroscopy import (TM_LINBO3, MaterialParams,
                                   atoms_per_tooth_from_absorption,
                                   atoms_per_tooth_from_single_ion,
                                   load_material_config, single_ion_depth)

TOOTH_DEPTH_HZ = 4.3e6  # measured integrated depth of one tooth, 564-tooth comb


class TestAbsorptionEstimator:
    def test_reference_tooth_size(self):
        n_t = atoms_per_tooth_from_absorption(TM_LINBO3, TOOTH_DEPTH_HZ)
        assert n_t == pytest.approx(1.1e9, rel=0.10)

    def test_whole_line_gives_all_atoms_in_beam(self):
        theta_i = TM_LINBO3.integrated_depth
        n_t = atoms_per_tooth_from_absorption(TM_LINBO3, theta_i, theta_i)
        atoms_in_beam = TM_LINBO3.n_d * TM_LINBO3.length * TM_LINBO3.area
        assert n_t == pytest.approx(atoms_in_beam, rel=1e-12)

    def test_zero_depth_zero_atoms(self):
        assert atoms_per_tooth_from_absorption(TM_LINBO3, 0.0) == 0.0

    def test_linear_in_tooth_depth(self):
        one = atoms_per_tooth_from_absorption(TM_LINBO3, 1e6)
        five = atoms_per_tooth_from_absorption(TM_LINBO3, 5e6)
        assert five == pytest.approx(5 * one, rel=1e-12)


class TestSingleIonEstimator:
    def test_reference_tooth_size(self):
        n_t = atoms_per_tooth_from_single_ion(TM_LINBO3, TOOTH_DEPTH_HZ)
        assert n_t == pytest.approx(1.7e9, rel=0.10)

    def test_doubling_area_doubles_atoms(self):
        import dataclasses
        wide = dataclasses.replace(TM_LINBO3, area=2 * TM_LINBO3.area)
        assert single_ion_depth(wide) == pytest.approx(
            single_ion_depth(TM_LINBO3) / 2, rel=1e-12)
        assert atoms_per_tooth_from_single_ion(wide, TOOTH_DEPTH_HZ) == pytest.approx(
            2 * atoms_per_tooth_from_single_ion(TM_LINBO3, TOOTH_DEPTH_HZ), rel=1e-12)

    def test_homogeneous_linewidth_cancels(self):
        import dataclasses
        broad = dataclasses.replace(TM_LINBO3, gamma_h=10 * TM_LINBO3.gamma_h)
        assert atoms_per_tooth_from_single_ion(broad, TOOTH_DEPTH_HZ) == pytest.approx(
            atoms_per_tooth_from_single_ion(TM_LINBO3, TOOTH_DEPTH_HZ), rel=1e-12)

    def test_linear_in_tooth_depth(self):
        one = atoms_per_tooth_from_single_ion(TM_LINBO3, 1e6)
        three = atoms_per_tooth_from_single_ion(TM_LINBO3, 3e6)
        assert three == pytest.approx(3 * one, rel=1e-12)


def test_estimators_agree_within_factor_two():
    first = atoms_per_tooth_from_absorption(TM_LINBO3, TOOTH_DEPTH_HZ)
    second = atoms_per_tooth_from_single_ion(TM_LINBO3, TOOTH_DEPTH_HZ)
    ratio = second / first
    assert 0.5 < ratio < 2.0


class TestMaterialParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MaterialParams(n_d=1e19, n=2.0, gamma_h=1e3, gamma_s=2e3,
                           alpha_integral=500, length=0.7, area=2e-4, nu=3.8e14)
        with pytest.raises(ValueError):
            MaterialParams(n_d=-1, n=2.0, gamma_h=1e4, gamma_s=2e3,
                           alpha_integral=500, length=0.7, area=2e-4, nu=3.8e14)

    def test_config_overrides_preset(self, tmp_path):
        path = tmp_path / "material.conf"
        path.write_text("length = 1.36  # cm\n")
        mat = load_material_config(path)
        assert mat.length == 1.36
        assert mat.n == TM_LINBO3.n

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "material.conf"
        path.write_text("speed = 3\n")
        with pytest.raises(ConfigError):
            load_material_config(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "material.conf"
        path.write_text(f"gamma_h = {value}\n")
        with pytest.raises(ValueError):
            load_material_config(path)
