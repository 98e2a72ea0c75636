import cmath
import math
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from toricgate.spin_model import (BerryPhaseResult, DegenerateDrive,
                                  DiagonalTwoQubitGate, PhysicalParams,
                                  berry_phases, cphase_gate,
                                  hamiltonian_diagonal, transition_frequencies)


def _params(**kw):
    base = dict(omega_i=10.0, omega_j=1.0, coupling_j=1.0,
                drive_omega=9.0, drive_omega1=2.0)
    base.update(kw)
    return PhysicalParams(**base)


def test_hamiltonian_diagonal_example():
    p = PhysicalParams(2.0, 1.0, 0.0, 1.0, 0.5)
    assert hamiltonian_diagonal(p) == (1.5, 0.5, -0.5, -1.5)


def test_hamiltonian_traceless():
    for wi, wj, j in [(3.0, 1.0, 0.7), (10.0, 2.5, -1.3), (5.5, 5.0, 100.0)]:
        diag = hamiltonian_diagonal(PhysicalParams(wi, wj, j, 1.0, 1.0))
        assert abs(sum(diag)) < 1e-12


def test_transition_frequencies_no_coupling():
    p = _params(coupling_j=0.0)
    assert transition_frequencies(p) == (10.0, 10.0)


def test_transition_frequencies_unit_coupling():
    plus, minus = transition_frequencies(_params(coupling_j=1.0))
    assert plus == pytest.approx(10.0 + math.pi, abs=1e-15)
    assert minus == pytest.approx(10.0 - math.pi, abs=1e-15)


def test_transition_frequencies_mean_is_omega_i():
    for j in (-2.0, 0.0, 0.5, 3.25):
        plus, minus = transition_frequencies(_params(coupling_j=j))
        assert (plus + minus) / 2.0 == pytest.approx(10.0, abs=1e-12)


def test_overflowing_parameters_are_refused():
    # finite parameters that validation accepts: pi * J alone overflows, and
    # without J only the sums of the Hamiltonian's entries do
    p = PhysicalParams(1.7e308, 1e308, 1e308, 0.0, 1.0)
    for function in (hamiltonian_diagonal, transition_frequencies, berry_phases):
        with pytest.raises(ValueError, match="not finite"):
            function(p)
    p = PhysicalParams(1.7e308, 1e308, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="not finite"):
        hamiltonian_diagonal(p)
    assert transition_frequencies(p) == (1.7e308, 1.7e308)


def test_berry_phases_zero_coupling_no_shift():
    r = berry_phases(_params(coupling_j=0.0))
    assert r.shift == 0.0
    assert r.phi_1 == 0.0 and r.phi_2 == 0.0


def test_berry_phases_symmetric_resonance():
    # drive at omega_i with J = 1 and omega1 = pi: the closed form collapses
    # to 2*pi*(pi*J)/sqrt((pi*J)^2 + omega1^2) = pi*sqrt(2)
    r = berry_phases(PhysicalParams(10.0, 1.0, 1.0, 10.0, math.pi))
    assert r.shift == pytest.approx(math.pi * math.sqrt(2), abs=1e-12)
    assert r.shift == pytest.approx(4.442882938158366, abs=1e-9)


def test_berry_phases_against_direct_formula():
    p = _params()
    r = berry_phases(p)
    w_plus = p.omega_i + math.pi * p.coupling_j
    w_minus = p.omega_i - math.pi * p.coupling_j
    cp = (w_plus - p.drive_omega) / math.sqrt((w_plus - p.drive_omega) ** 2
                                              + p.drive_omega1 ** 2)
    cm = (w_minus - p.drive_omega) / math.sqrt((w_minus - p.drive_omega) ** 2
                                               + p.drive_omega1 ** 2)
    assert r.cos_theta_plus == pytest.approx(cp, abs=1e-15)
    assert r.cos_theta_minus == pytest.approx(cm, abs=1e-15)
    assert r.gamma_plus == pytest.approx(-math.pi * (1 - cp), abs=1e-14)
    assert r.gamma_minus == pytest.approx(math.pi * (1 - cm), abs=1e-14)


def test_shift_identity():
    # shift = pi*(cos theta+ - cos theta-) = gamma+ + gamma-
    for j, omega in [(0.5, 9.0), (2.0, 12.0), (-1.0, 10.0)]:
        r = berry_phases(_params(coupling_j=j, drive_omega=omega))
        assert r.shift == pytest.approx(
            math.pi * (r.cos_theta_plus - r.cos_theta_minus), abs=1e-12)
        assert r.shift == pytest.approx(r.gamma_plus + r.gamma_minus, abs=1e-12)
        assert r.phi_1 == 2.0 * r.shift
        assert r.phi_2 == -r.phi_1


def test_shift_bound():
    for j in (0.1, 1.0, 5.0):
        for omega in (0.0, 8.0, 10.0, 15.0):
            for omega1 in (1e-6, 0.5, 4.0):
                r = berry_phases(_params(coupling_j=j, drive_omega=omega,
                                         drive_omega1=omega1))
                assert abs(r.shift) <= 2 * math.pi + 1e-12


def test_shift_flips_with_coupling_sign():
    a = berry_phases(_params(coupling_j=1.3))
    b = berry_phases(_params(coupling_j=-1.3))
    assert a.shift == pytest.approx(-b.shift, abs=1e-12)
    assert a.cos_theta_plus == pytest.approx(b.cos_theta_minus, abs=1e-15)


def test_narrow_drive_limit_between_transitions():
    # omega- < omega < omega+ with omega1 -> 0 drives the shift to 2*pi
    r = berry_phases(PhysicalParams(10.0, 1.0, 1.0, 10.0, 1e-9))
    assert r.shift == pytest.approx(2 * math.pi, abs=1e-6)


def test_degenerate_drive_raises():
    with pytest.raises(DegenerateDrive):
        berry_phases(_params(coupling_j=0.0, drive_omega=10.0, drive_omega1=0.0))


def test_off_resonance_zero_amplitude_is_fine():
    r = berry_phases(_params(coupling_j=1.0, drive_omega=0.0, drive_omega1=0.0))
    assert r.cos_theta_plus == 1.0
    assert r.cos_theta_minus == 1.0
    assert r.shift == 0.0


def test_params_ordering_enforced():
    with pytest.raises(ValueError, match="^omega_i must exceed omega_j "):
        PhysicalParams(1.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PhysicalParams(1.0, 2.0, 0.0, 1.0, 1.0)


def test_params_reject_bad_values():
    with pytest.raises(ValueError):
        PhysicalParams(math.inf, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PhysicalParams(2.0, 1.0, math.nan, 1.0, 1.0)
    with pytest.raises(ValueError):
        PhysicalParams(2.0, 1.0, 0.0, 1.0, -0.5)


@pytest.mark.parametrize("value", [True, np.True_, "3", b"3", None, 1j, Decimal("3"), [3.0]],
                         ids=repr)
@pytest.mark.parametrize("field", range(5))
def test_params_refuse_what_is_no_real_number(field, value):
    # True was kept as a frequency, and the others raised TypeError from a
    # comparison or from float()
    given = [3.0, 0.5, 0.0, 1.0, 1.0]
    given[field] = value
    name = ("omega_i", "omega_j", "coupling_j", "drive_omega", "drive_omega1")[field]
    with pytest.raises(ValueError) as info:
        PhysicalParams(*given)
    assert str(info.value) == f"{name} must be a real number, got {value!r}"


def test_params_take_any_real_number():
    # each is stored as a float: a float32 field was kept, and berry_phases computed in float32
    params = PhysicalParams(3, Fraction(1, 2), np.float32(0.25), np.int8(1), np.float16(1))
    assert params == PhysicalParams(3.0, 0.5, 0.25, 1.0, 1.0)
    assert all(type(getattr(params, field.name)) is float for field in fields(params))
    got, want = (berry_phases(PhysicalParams(10.0, 4.0, j, 10.0, 0.8)).phi_1
                 for j in (np.float32(1.1), float(np.float32(1.1))))
    assert type(got) is float and got == want


@pytest.mark.parametrize("value", [10**400, -10**400, Fraction(10**400, 3)],
                         ids=["int", "negative-int", "fraction"])
@pytest.mark.parametrize("field", range(5))
def test_params_refuse_numbers_past_float_range(field, value):
    # an int or a Fraction too large for a float raised a bare OverflowError
    given = [3.0, 0.5, 0.0, 1.0, 1.0]
    given[field] = value
    with pytest.raises(ValueError, match="^physical parameters must be finite$"):
        PhysicalParams(*given)


def test_gate_quarter_turn():
    g = DiagonalTwoQubitGate.from_phi1(math.pi / 2)
    expected = (1j, -1j, -1j, 1j)
    for got, want in zip(g.phases, expected):
        assert abs(got - want) < 1e-12


def test_gate_zero_phase_is_identity():
    g = DiagonalTwoQubitGate.from_phi1(0.0)
    assert g.phases == (1 + 0j, 1 + 0j, 1 + 0j, 1 + 0j)


def test_gate_entries_unit_modulus():
    for phi in (0.1, 1.0, -2.5, 17.0):
        g = DiagonalTwoQubitGate.from_angles(phi, 3 * phi)
        assert all(abs(abs(p) - 1) < 1e-12 for p in g.phases)
        assert g.phases[0] == g.phases[3]
        assert g.phases[1] == g.phases[2]


def test_gate_pattern_enforced():
    with pytest.raises(ValueError):
        DiagonalTwoQubitGate((1, 1j, 1j, 1j))
    with pytest.raises(ValueError):
        DiagonalTwoQubitGate((2, 1, 1, 2))


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_gate_rejects_non_finite_angle(phi):
    with pytest.raises(ValueError):
        DiagonalTwoQubitGate.from_phi1(phi)


def test_gate_rejects_nan_entries():
    nan = complex(math.nan, 0.0)
    with pytest.raises(ValueError):
        DiagonalTwoQubitGate((nan, nan, nan, nan))
    with pytest.raises(ValueError):
        DiagonalTwoQubitGate((1, 1j, complex(0.0, math.nan), 1))


def test_berry_phases_overflow_raises():
    with pytest.raises(ValueError):
        berry_phases(PhysicalParams(1e308, 0.0, 1e308, 0.0, 1.0))


def test_cphase_gate_matches_angles():
    r = berry_phases(_params())
    g = cphase_gate(r)
    assert g.equal_bits_factor == pytest.approx(cmath.exp(1j * r.phi_1), abs=1e-15)
    assert g.unequal_bits_factor == pytest.approx(cmath.exp(1j * r.phi_2), abs=1e-15)


def test_result_theta_properties():
    r = BerryPhaseResult(0.5, -0.5, -1.0, 1.0, 0.0, 0.0, 0.0)
    assert r.theta_plus == pytest.approx(math.acos(0.5))
    assert r.theta_minus == pytest.approx(math.acos(-0.5))
