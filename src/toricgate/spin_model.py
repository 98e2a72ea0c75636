"""Two coupled spins under a rotating drive, and the gate their holonomy builds.

The system is a pair of spin-1/2 particles with transition frequencies
omega_i > omega_j and scalar coupling J, so the spin-i transition splits
into omega_i +- pi*J depending on the partner's state. Sweeping a rotating
drive of frequency omega and amplitude omega1 around one adiabatic loop
leaves each conditioned transition with a geometric phase proportional to
the solid angle its Bloch vector traces. The difference of those phases
survives in the computational basis as a diagonal two-qubit gate: the
controlled-phase gate returned by `cphase_gate`.

Everything here works in angular frequency units with hbar = 1.
"""
from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, fields


class DegenerateDrive(ValueError):
    """Drive exactly on resonance with zero amplitude: cos(theta) is 0/0."""


@dataclass(frozen=True)
class PhysicalParams:
    """Constants of the two-spin system and its drive: finite reals, not bools, stored as floats.

    omega_i, omega_j : spin transition frequencies, omega_i > omega_j
    coupling_j      : scalar coupling J, entering every formula as pi*J
    drive_omega     : rotation frequency of the drive field
    drive_omega1    : drive amplitude, nonnegative
    """

    omega_i: float
    omega_j: float
    coupling_j: float
    drive_omega: float
    drive_omega1: float

    def __post_init__(self) -> None:
        for field in fields(self):
            v = getattr(self, field.name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{field.name} must be a real number, got {v!r}")
            try:
                finite = math.isfinite(v := float(v))
            except OverflowError:  # an int or a Fraction past float range
                finite = False
            if not finite:
                raise ValueError("physical parameters must be finite")
            object.__setattr__(self, field.name, v)  # berry_phases computes in float64
        if self.omega_i <= self.omega_j:
            raise ValueError("omega_i must exceed omega_j (spins must be distinguishable)")
        if self.drive_omega1 < 0:
            raise ValueError("drive_omega1 must be nonnegative")


@dataclass(frozen=True)
class BerryPhaseResult:
    """Geometric phases of one drive loop and the gate angles they induce.

    The two branches (+/-) are the spin-i transitions conditioned on the
    partner spin. Per loop each branch acquires gamma+- = -+pi*(1 - cos theta+-);
    their sum is `shift`, and a full gate sequence doubles it into phi_1.
    """

    cos_theta_plus: float
    cos_theta_minus: float
    gamma_plus: float
    gamma_minus: float
    shift: float
    phi_1: float
    phi_2: float

    @property
    def theta_plus(self) -> float:
        return math.acos(self.cos_theta_plus)

    @property
    def theta_minus(self) -> float:
        return math.acos(self.cos_theta_minus)


@dataclass(frozen=True)
class DiagonalTwoQubitGate:
    """Diagonal two-qubit unitary whose entries follow the pattern (a, b, b, a)."""

    phases: tuple[complex, complex, complex, complex]

    def __post_init__(self) -> None:
        entries = tuple(complex(p) for p in self.phases)
        if len(entries) != 4:
            raise ValueError("a two-qubit diagonal has exactly four entries")
        for p in entries:
            if not abs(abs(p) - 1.0) <= 1e-12:  # fails closed on NaN
                raise ValueError("gate entries must have unit modulus")
        a, b, c, d = entries
        if not (abs(a - d) <= 1e-12 and abs(b - c) <= 1e-12):
            raise ValueError("gate diagonal must follow the (a, b, b, a) pattern")
        object.__setattr__(self, "phases", entries)

    @classmethod
    def from_angles(cls, phi_1: float, phi_2: float) -> "DiagonalTwoQubitGate":
        """diag(e^{i phi_1}, e^{i phi_2}, e^{i phi_2}, e^{i phi_1})."""
        a = cmath.exp(1j * phi_1)
        b = cmath.exp(1j * phi_2)
        return cls((a, b, b, a))

    @classmethod
    def from_phi1(cls, phi_1: float) -> "DiagonalTwoQubitGate":
        """Holonomic convention: the two angles are opposite, phi_2 = -phi_1."""
        return cls.from_angles(phi_1, -phi_1)

    @property
    def equal_bits_factor(self) -> complex:
        """Factor applied where the two qubit bits agree."""
        return self.phases[0]

    @property
    def unequal_bits_factor(self) -> complex:
        """Factor applied where the two qubit bits differ."""
        return self.phases[1]


def hamiltonian_diagonal(params: PhysicalParams) -> tuple[float, float, float, float]:
    """Diagonal of the static two-spin Hamiltonian in the up/up, up/down, down/up, down/down basis.

    The entries are (1/2)*(+-omega_i +- omega_j + s*pi*J) with s = +1 when the
    spins agree and -1 otherwise; the diagonal is traceless.
    """
    pi_j = math.pi * params.coupling_j
    w_i, w_j = params.omega_i, params.omega_j
    return _finite("Hamiltonian entries", 0.5 * (w_i + w_j + pi_j), 0.5 * (w_i - w_j - pi_j),
                   0.5 * (-w_i + w_j - pi_j), 0.5 * (-w_i - w_j + pi_j))


def transition_frequencies(params: PhysicalParams) -> tuple[float, float]:
    """Spin-i transition frequencies (omega_plus, omega_minus) = omega_i +- pi*J,
    conditioned on the partner spin pointing up or down."""
    pi_j = math.pi * params.coupling_j
    return _finite("transition frequencies", params.omega_i + pi_j, params.omega_i - pi_j)


def _finite(what: str, *values: float) -> tuple[float, ...]:
    """The values, or a ValueError where finite parameters overflow one."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"physical parameters overflow: {what} are not finite")
    return values


def _cos_tilt(detuning: float, amplitude: float) -> float:
    # cos(theta) of the effective field in the rotating frame
    if detuning == 0.0 and amplitude == 0.0:
        raise DegenerateDrive(
            "drive sits exactly on resonance with zero amplitude; cos(theta) is undefined")
    return detuning / math.hypot(detuning, amplitude)


def berry_phases(params: PhysicalParams) -> BerryPhaseResult:
    """Geometric phases of one adiabatic drive loop.

    Each conditioned transition sees an effective field tilted by
    cos(theta+-) = (omega+- - omega) / sqrt((omega+- - omega)^2 + omega1^2)
    and picks up gamma+- = -+pi*(1 - cos theta+-) per loop. Their sum
    `shift` obeys |shift| <= 2*pi and flips sign with the coupling; the
    gate angles are phi_1 = 2*shift and phi_2 = -phi_1.
    """
    omega_plus, omega_minus = transition_frequencies(params)
    cos_plus = _cos_tilt(omega_plus - params.drive_omega, params.drive_omega1)
    cos_minus = _cos_tilt(omega_minus - params.drive_omega, params.drive_omega1)
    gamma_plus = -math.pi * (1.0 - cos_plus)
    gamma_minus = math.pi * (1.0 - cos_minus)
    shift = gamma_plus + gamma_minus
    # every output is finite once both cosines are, and shift depends on both
    _finite("Berry phases", shift)
    return BerryPhaseResult(
        cos_theta_plus=cos_plus,
        cos_theta_minus=cos_minus,
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        shift=shift,
        phi_1=2.0 * shift,
        phi_2=-2.0 * shift,
    )


def cphase_gate(phases: BerryPhaseResult) -> DiagonalTwoQubitGate:
    """Controlled-phase gate accumulated by the full sequence: diag entries
    e^{i phi_1} on agreeing bits and e^{i phi_2} on differing bits."""
    return DiagonalTwoQubitGate.from_angles(phases.phi_1, phases.phi_2)
