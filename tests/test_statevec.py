import cmath
import itertools
import math
import random
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (dense_cphase_matrix, exact_norm_sq, random_state, reference_cphase,
                     reference_phase_classes, xnor_class)
from integer_sites import refuses
from toricgate import statevec
from toricgate.spin_model import DiagonalTwoQubitGate
from toricgate.statevec import (GatePlacement, StateVector, apply_cphase,
                                concurrence, extract_phase_classes,
                                state_from_text, state_to_text,
                                uniform_superposition)


def test_uniform_superposition_values():
    for n in (1, 2, 3, 10):
        s = uniform_superposition(n)
        assert s.n_qubits == n
        want = np.full(2 ** n, 1.0 / math.sqrt(2 ** n), complex)
        assert s.amplitudes.tobytes() == want.tobytes()
    # one amplitude broadcast with stride 0, not 2^24 of them
    tracemalloc.start()
    try:
        s = uniform_superposition(24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096
    assert complex(s.amplitudes[-1]) == 2.0 ** -12


def test_uniform_superposition_range():
    with pytest.raises(ValueError):
        uniform_superposition(0)
    with pytest.raises(ValueError):
        uniform_superposition(25)


@pytest.mark.parametrize("n", [True, 3.0, 2.5, "3", None])
def test_uniform_superposition_takes_integer_counts_only(n):
    refuses("uniform_superposition", n)


@pytest.mark.parametrize("n", [np.uint8(3), np.uint8(12), np.int16(16)], ids=repr)
def test_uniform_superposition_reads_numpy_counts_as_ints(n):
    # numpy integers are integers, computed with as ints: 2^12 overflows a uint8
    state, want = uniform_superposition(n), uniform_superposition(int(n))
    assert state.amplitudes.tolist() == want.amplitudes.tolist()
    assert state._norm_range == want._norm_range


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector([1.0, 0.0, 0.0])  # not a power of two
    with pytest.raises(ValueError):
        StateVector([1.0])  # zero qubits
    with pytest.raises(ValueError):
        StateVector([1.0, 1.0])  # unnormalized
    s = StateVector([1.0, 0.0])
    assert not s.amplitudes.flags.writeable


@pytest.mark.parametrize("make", [
    lambda: uniform_superposition(3), lambda: StateVector([0.6, 0.0, 0.0, 0.8j]),
    lambda: state_from_text(state_to_text(uniform_superposition(2))),
    lambda: apply_cphase(uniform_superposition(3), DiagonalTwoQubitGate.from_phi1(0.3),
                         GatePlacement(1, 2))],
    ids=["uniform", "constructor", "text", "gate-on-a-spare"])
def test_amplitudes_cannot_be_made_writeable_again(spares, make):
    # the carried |psi|^2 bounds hold only while the amplitudes keep their values:
    # written over with 5s, uniform_superposition(3) would go through apply_cphase
    # with |psi|^2 = 200 and no check to stop it
    s = make()
    with pytest.raises(ValueError):
        s.amplitudes.flags.writeable = True
    with pytest.raises(ValueError):
        s.amplitudes[:] = 5
    out = apply_cphase(s, DiagonalTwoQubitGate.from_phi1(0.3), GatePlacement(1, 2))
    assert exact_norm_sq(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("amps", [[math.nan, 0.0], [math.inf, 0.0],
                                  [complex(0.0, math.nan), 1.0]])
def test_state_vector_rejects_non_finite(amps):
    with pytest.raises(ValueError):
        StateVector(amps)


@pytest.mark.parametrize("norm_sq", [math.nan, math.inf, -math.inf, 1 + 2e-9, 1 - 2e-9])
def test_state_vector_checks_an_adopted_norm(norm_sq):
    # the |psi|^2 handed in by apply_cphase is checked as a summed one is
    amps = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(amps, _owned=True, _norm_sq=norm_sq)
    assert StateVector(amps, _owned=True, _norm_sq=1 + 5e-10).n_qubits == 1


def test_state_vector_copies_caller_input():
    amps = np.array([1.0, 0.0], dtype=complex)
    s = StateVector(amps)
    assert not np.shares_memory(s.amplitudes, amps)
    amps[0] = 0.0
    assert s.amplitudes[0] == 1.0


def test_placement_validation():
    with pytest.raises(ValueError):
        GatePlacement(1, 1)
    with pytest.raises(ValueError):
        GatePlacement(0, 2)
    with pytest.raises(ValueError):
        apply_cphase(uniform_superposition(2), DiagonalTwoQubitGate.from_phi1(0.1),
                     GatePlacement(1, 3))


@pytest.mark.parametrize("bad", [1.0, True, False, np.True_, np.float64(1), "1", None,
                                 np.array([1])], ids=repr)
def test_placement_slots_must_be_integers(bad):
    refuses("GatePlacement control", bad)
    refuses("GatePlacement target", bad)


def test_placement_takes_numpy_integers_as_ints():
    placement = GatePlacement(np.int64(1), np.uint8(3))
    assert placement == GatePlacement(1, 3)
    assert type(placement.control) is type(placement.target) is int
    s, gate = uniform_superposition(3), DiagonalTwoQubitGate.from_phi1(0.4)
    assert np.array_equal(apply_cphase(s, gate, placement).amplitudes,
                          apply_cphase(s, gate, GatePlacement(1, 3)).amplitudes)


def test_apply_two_qubit_grouping():
    phi1 = 0.9
    gate = DiagonalTwoQubitGate.from_phi1(phi1)
    out = apply_cphase(uniform_superposition(2), gate, GatePlacement(1, 2))
    a = 0.5 * np.exp(1j * phi1)
    b = 0.5 * np.exp(-1j * phi1)
    assert np.allclose(out.amplitudes, [a, b, b, a], atol=1e-14)


def test_apply_identity_gate_is_noop():
    s = uniform_superposition(3)
    out = apply_cphase(s, DiagonalTwoQubitGate.from_phi1(0.0), GatePlacement(2, 3))
    assert np.array_equal(out.amplitudes, s.amplitudes)


@pytest.mark.parametrize("n,control,target", [(3, 1, 2), (3, 2, 3), (4, 1, 2)])
def test_apply_uniform_groupings(n, control, target):
    phi1 = 0.7
    gate = DiagonalTwoQubitGate.from_phi1(phi1)
    out = apply_cphase(uniform_superposition(n), gate,
                       GatePlacement(control, target))
    scale = 1.0 / math.sqrt(2 ** n)
    expect_agree = scale * np.exp(1j * phi1)
    expect_differ = scale * np.exp(-1j * phi1)
    agree = xnor_class(n, control, target, True)
    for x in range(2 ** n):
        want = expect_agree if x in agree else expect_differ
        assert abs(out.amplitudes[x] - want) < 1e-14


def test_apply_placement_symmetric():
    gate = DiagonalTwoQubitGate.from_phi1(1.3)
    s = uniform_superposition(4)
    a = apply_cphase(s, gate, GatePlacement(2, 4))
    b = apply_cphase(s, gate, GatePlacement(4, 2))
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_apply_norm_preserved():
    rng = np.random.default_rng(7)
    gate = DiagonalTwoQubitGate.from_angles(0.8, -0.3)
    for n in (2, 3, 5):
        s = StateVector(random_state(rng, n))
        out = apply_cphase(s, gate, GatePlacement(1, n))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_apply_disjoint_placements_commute():
    rng = np.random.default_rng(11)
    s = StateVector(random_state(rng, 4))
    g1 = DiagonalTwoQubitGate.from_phi1(0.4)
    g2 = DiagonalTwoQubitGate.from_phi1(-1.1)
    p1, p2 = GatePlacement(1, 2), GatePlacement(3, 4)
    ab = apply_cphase(apply_cphase(s, g1, p1), g2, p2)
    ba = apply_cphase(apply_cphase(s, g2, p2), g1, p1)
    assert np.allclose(ab.amplitudes, ba.amplitudes, atol=1e-12)


_angles = st.floats(-math.pi, math.pi)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(4, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.permutations(range(1, n + 1)), st.integers(0, 2**32 - 1))),
    _angles, _angles, _angles, _angles)
def test_disjoint_gates_commute_property(case, a1, b1, a2, b2):
    n, qubits, seed = case
    s = StateVector(random_state(np.random.default_rng(seed), n))
    g1, g2 = DiagonalTwoQubitGate.from_angles(a1, b1), DiagonalTwoQubitGate.from_angles(a2, b2)
    p1, p2 = GatePlacement(*qubits[:2]), GatePlacement(*qubits[2:4])
    ab = apply_cphase(apply_cphase(s, g1, p1), g2, p2)
    ba = apply_cphase(apply_cphase(s, g2, p2), g1, p1)
    assert np.max(np.abs(ab.amplitudes - ba.amplitudes)) <= 1e-15


def test_apply_matches_kronecker_oracle_small():
    rng = np.random.default_rng(23)
    phi1, phi2 = 0.37, -0.37
    gate = DiagonalTwoQubitGate.from_angles(phi1, phi2)
    for control, target in [(1, 2), (2, 1), (1, 3), (3, 2)]:
        s = StateVector(random_state(rng, 3))
        expected = dense_cphase_matrix(3, control, target, phi1, phi2) @ s.amplitudes
        out = apply_cphase(s, gate, GatePlacement(control, target))
        assert np.allclose(out.amplitudes, expected, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 8))
def test_apply_every_ordered_pair_matches_references(n):
    rng = np.random.default_rng(100 + n)
    phi1, phi2 = 0.61, -1.17
    gate = DiagonalTwoQubitGate.from_angles(phi1, phi2)
    s = StateVector(random_state(rng, n))
    before = s.amplitudes.copy()
    for control in range(1, n + 1):
        for target in range(1, n + 1):
            if control == target:
                continue
            out = apply_cphase(s, gate, GatePlacement(control, target))
            want = reference_cphase(s.amplitudes, n, control, target,
                                    gate.equal_bits_factor, gate.unequal_bits_factor)
            assert np.array_equal(out.amplitudes, want)
            dense = dense_cphase_matrix(n, control, target, phi1, phi2) @ s.amplitudes
            assert np.max(np.abs(out.amplitudes - dense)) <= 1e-12
            assert not out.amplitudes.flags.writeable
            assert not np.shares_memory(out.amplitudes, s.amplitudes)
    assert np.array_equal(s.amplitudes, before)


@pytest.mark.parametrize("block", [2, 4, 64])
@pytest.mark.parametrize("n", range(2, 9))
def test_apply_matches_reference_across_blocks(monkeypatch, block, n):
    # small blocks put both bits above a block, one above and one inside, or
    # both inside, so every way of choosing a block's factors is compared
    monkeypatch.setattr(statevec, "_BLOCK", block)
    s = StateVector(random_state(np.random.default_rng(200 + n), n))
    gate = DiagonalTwoQubitGate.from_angles(0.61, -1.17)
    for control in range(1, n + 1):
        for target in range(1, n + 1):
            if control != target:
                out = apply_cphase(s, gate, GatePlacement(control, target))
                want = reference_cphase(s.amplitudes, n, control, target,
                                        gate.equal_bits_factor, gate.unequal_bits_factor)
                assert np.array_equal(out.amplitudes, want)


def test_agreement_kernel_expands_to_the_xnor_classes():
    # the one kernel behind the gate's factors and the phase classes: at every
    # block size, index s + o agrees where its block's answer equals its offset's
    for n in range(2, 13):
        for control, target in itertools.permutations(range(1, n + 1), 2):
            placement = GatePlacement(control, target)
            want = np.zeros(2 ** n, bool)
            want[list(xnor_class(n, control, target, True))] = True
            for block in (2 ** k for k in range(n + 1)):
                within, firsts = statevec._agreement(placement, n, block)
                assert within.shape == (block,) and firsts.shape == (2 ** n // block,)
                assert np.array_equal((firsts[:, None] == within).ravel(), want)
        for placement in (GatePlacement(1, n + 1), GatePlacement(n + 1, 1)):
            message = f"^placement {re.escape(str(placement))} is out of range for {n} qubits$"
            with pytest.raises(ValueError, match=message):
                statevec._agreement(placement, n, 1)


def test_norm_summed_once_by_blocks_matches_vdot(monkeypatch):
    # a state with |psi|^2 = 1 + 6e-10 is accepted, but its bounds leave
    # _NORM_TOL / 2 of 1, so a gate on it hands its output no |psi|^2 and the
    # output's constructor sums every amplitude once, block by block in order;
    # on the same state normalized the bounds stay within, and nothing is summed
    adopted, summed, vdot = [], [], np.vdot

    def recording(amps, **kwargs):
        adopted.append(kwargs["_norm_sq"])
        return StateVector(amps, **kwargs)

    def counting(a, b):
        summed.append(a.copy())
        return vdot(a, b)

    monkeypatch.setattr(statevec, "StateVector", recording)
    rng = np.random.default_rng(41)
    gate = DiagonalTwoQubitGate.from_phi1(0.9)
    for n in range(2, 17):
        amps = random_state(rng, n)
        wide, unit = StateVector(amps * math.sqrt(1 + 6e-10)), StateVector(amps)
        for control, target in ((1, 2), (1, n), (n, n - 1)):
            monkeypatch.setattr(np, "vdot", counting)
            out = apply_cphase(wide, gate, GatePlacement(control, target))
            assert adopted.pop() is None
            assert np.array_equal(np.concatenate(summed), out.amplitudes)
            summed.clear()
            apply_cphase(unit, gate, GatePlacement(control, target))
            assert summed == [] and adopted.pop() is not None
            monkeypatch.setattr(np, "vdot", vdot)
            lo, hi = out._norm_range  # about the sum, 2^-52 times the terms either side
            assert abs((lo + hi) / 2 - np.vdot(out.amplitudes, out.amplitudes).real) <= 1e-12


def test_a_state_and_a_gate_at_n_22_sum_each_amplitude_once(spares, monkeypatch):
    # the constructor's blocked sum leaves bounds about 3.7e-12 either side of
    # |psi|^2, so the gate after it skips its pass; a whole-array sum's bound,
    # (2^22 + 1) 2^-52 or 9.3e-10, would have had the gate sum again
    summed, vdot = [], np.vdot

    def counting(a, b):
        summed.append(a.size)
        return vdot(a, b)

    amps = random_state(np.random.default_rng(22), 22)
    monkeypatch.setattr(np, "vdot", counting)
    state = StateVector(amps)
    apply_cphase(state, DiagonalTwoQubitGate.from_phi1(0.3), GatePlacement(3, 22))
    assert sum(summed) == 2 ** 22
    lo, hi = state._norm_range
    assert 0 < hi - lo < 1e-11


_moduli = st.floats(1 - 1e-12, 1 + 1e-12)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.sampled_from([None, 0.0, 6e-10, -6e-10]),
       st.lists(st.tuples(_moduli, _angles, _moduli, _angles, st.randoms()), max_size=6))
def test_carried_norm_bounds_hold_the_exact_norm_property(n, seed, drift, chain):
    # drift None starts from the uniform superposition, a number from a random
    # state with |psi|^2 = 1 + drift; the gates' moduli span all that a gate accepts
    if drift is None:
        state = uniform_superposition(n)
    else:
        state = StateVector(random_state(np.random.default_rng(seed), n) * math.sqrt(1 + drift))
    lo, hi = state._norm_range
    assert lo <= exact_norm_sq(state.amplitudes) <= hi
    for r_eq, a_eq, r_ne, a_ne, rnd in chain if n > 1 else ():
        eq, ne = r_eq * cmath.exp(1j * a_eq), r_ne * cmath.exp(1j * a_ne)
        try:
            gate = DiagonalTwoQubitGate((eq, ne, ne, eq))
        except ValueError:  # a modulus at the edge, rounded past it
            assume(False)
        control, target = rnd.sample(range(1, n + 1), 2)
        want = reference_cphase(state.amplitudes, n, control, target, eq, ne)
        state = apply_cphase(state, gate, GatePlacement(control, target))
        assert np.array_equal(state.amplitudes, want)
        lo, hi = state._norm_range
        assert lo <= exact_norm_sq(state.amplitudes) <= hi


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_carried_norm_bounds_hold_over_a_long_chain(n):
    # the uniform superposition starts with bounds a few 2^-53 wide, and its
    # equal amplitudes round alike, so within a few hundred unit gates the
    # products' rounding alone would leave bounds that only track the moduli
    rnd = random.Random(n)
    state = uniform_superposition(n)
    for _ in range(400):
        eq, ne = (cmath.exp(1j * rnd.uniform(-math.pi, math.pi)) for _ in range(2))
        state = apply_cphase(state, DiagonalTwoQubitGate((eq, ne, ne, eq)),
                             GatePlacement(*rnd.sample(range(1, n + 1), 2)))
        lo, hi = state._norm_range
        assert lo <= exact_norm_sq(state.amplitudes) <= hi


@pytest.mark.parametrize("n, norm_sq", [(3, "1.0000000010001422"), (12, "1.0000000010001153")])
def test_a_drifting_chain_is_rejected_at_the_same_gate(n, norm_sq):
    # |a|^2 = 1 + 1.8e-12 and |b|^2 = 1 - 4e-13, so |psi|^2 creeps up gate by gate;
    # 701 of the 1428 gates that pass skip the sum. The gate that fails, and its
    # message, are those of a chain that summed |amp|^2 after every gate
    a, b = (1 + 9e-13) * cmath.exp(0.3j), (1 - 2e-13) * cmath.exp(-0.3j)
    gate = DiagonalTwoQubitGate((a, b, b, a))
    state = uniform_superposition(n)
    for k in range(1428):
        state = apply_cphase(state, gate, GatePlacement(1 + k % (n - 1), n))
    message = f"state is not normalized: |psi|^2 = {norm_sq}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        apply_cphase(state, gate, GatePlacement(1 + 1428 % (n - 1), n))


def test_apply_allocates_only_the_output():
    n = 16
    gate = DiagonalTwoQubitGate.from_phi1(0.3)
    # the broadcast uniform state is read in place, and its output is a whole array
    for s in StateVector(random_state(np.random.default_rng(5), n)), uniform_superposition(n):
        tracemalloc.start()
        try:
            out = apply_cphase(s, gate, GatePlacement(11, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.amplitudes.nbytes
        assert out.amplitudes.flags.c_contiguous
        want = reference_cphase(s.amplitudes, n, 11, 3,
                                gate.equal_bits_factor, gate.unequal_bits_factor)
        assert np.array_equal(out.amplitudes, want)


@pytest.fixture
def spares(monkeypatch):
    """Every apply_cphase output is kept as a spare, in this test's own list."""
    monkeypatch.setattr(statevec, "_SPARE_MIN", 1)
    monkeypatch.setattr(statevec, "_spares", [])


def _random_gates(rng, n, count):
    """`count` gates with random angles on random ordered qubit pairs."""
    gates = []
    for _ in range(count):
        control, target = rng.choice(np.arange(1, n + 1), 2, replace=False).tolist()
        gate = DiagonalTwoQubitGate.from_angles(*rng.uniform(-math.pi, math.pi, 2))
        gates.append((gate, GatePlacement(control, target)))
    return gates


def _chain(state, gates):
    for gate, placement in gates:
        state = apply_cphase(state, gate, placement)
    return state


@pytest.mark.parametrize("hold", [
    lambda amps: amps[3:], memoryview, np.asarray, lambda amps: amps[1:].base,
    lambda amps: amps.view(np.float64)[::2], lambda amps: np.asarray(memoryview(amps[2:]))],
    ids=["slice", "memoryview", "asarray", "slice-base", "real-view", "memoryview-array"])
def test_a_held_part_of_a_dead_state_is_never_overwritten(spares, hold):
    rng = np.random.default_rng(7)
    gates = _random_gates(rng, 6, 8)
    state = _chain(StateVector(random_state(rng, 6)), gates[:2])
    held = hold(state.amplitudes)
    want = np.array(held, copy=True)
    for gate, placement in gates[2:]:  # after one more gate, only `held` refers to it
        state = apply_cphase(state, gate, placement)
    assert np.array_equal(np.asarray(held), want)
    assert len(statevec._spares) == 2


@pytest.mark.parametrize("n", range(2, 13))
def test_chains_on_spares_match_reference_chains(spares, n):
    # some states of each chain are kept to its end, and must read as they did
    rng = np.random.default_rng(300 + n)
    for _ in range(4):
        start = StateVector(random_state(rng, n))
        state, want, kept = start, start.amplitudes, []
        for gate, placement in _random_gates(rng, n, int(rng.integers(3, 21))):
            state = apply_cphase(state, gate, placement)
            want = reference_cphase(want, n, placement.control, placement.target,
                                    gate.equal_bits_factor, gate.unequal_bits_factor)
            assert np.array_equal(state.amplitudes, want)
            if rng.random() < 0.3:
                kept.append((state, want))
        for held, values in kept:
            assert np.array_equal(held.amplitudes, values)


def _traced_peak(apply):
    tracemalloc.start()
    try:
        out = apply()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_a_free_spare_is_reused_and_a_held_one_is_not(spares):
    n = 16
    rng = np.random.default_rng(9)
    (g1, p1), (g2, p2), (g3, p3), (g4, p4) = _random_gates(rng, n, 4)
    first = apply_cphase(StateVector(random_state(rng, n)), g1, p1)
    second = apply_cphase(first, g2, p2)
    nbytes = first.amplitudes.nbytes
    # both spares are held, by `first` and by the input `second`
    third, peak = _traced_peak(lambda: apply_cphase(second, g3, p3))
    assert peak >= nbytes
    del first, third  # the spare of `third` is now free
    fourth, peak = _traced_peak(lambda: apply_cphase(second, g4, p4))
    assert peak < nbytes / 4
    want = reference_cphase(second.amplitudes, n, p4.control, p4.target,
                            g4.equal_bits_factor, g4.unequal_bits_factor)
    assert np.array_equal(fourth.amplitudes, want)


def test_a_state_on_a_spare_is_read_only(spares):
    rng = np.random.default_rng(11)
    state = _chain(StateVector(random_state(rng, 5)), _random_gates(rng, 5, 6))
    amps = state.amplitudes
    for array in (amps, amps if amps.base is None else amps.base):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
        with pytest.raises(TypeError):
            memoryview(array).cast("B")[0] = 0


def test_threads_never_share_a_spare(spares):
    rng = np.random.default_rng(13)
    starts = [StateVector(random_state(rng, 10)) for _ in range(4)]
    chains = [_random_gates(rng, 10, 50) for _ in range(4)]
    serial = [_chain(start, gates).amplitudes for start, gates in zip(starts, chains)]
    results, barrier = [None] * 4, threading.Barrier(4)

    def run(k):
        barrier.wait(timeout=60)
        results[k] = _chain(starts[k], chains[k]).amplitudes

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, serial):
        assert np.array_equal(got, want)


def test_concurrence_uniform_is_zero():
    assert concurrence(uniform_superposition(2)) == pytest.approx(0.0, abs=1e-15)


def test_concurrence_bell_state():
    bell = StateVector([1 / math.sqrt(2), 0.0, 0.0, 1 / math.sqrt(2)])
    assert concurrence(bell) == pytest.approx(1.0, abs=1e-15)


def test_concurrence_after_gate_is_sine():
    for phi1 in (0.0, 0.3, math.pi / 4, 2.0, -1.2):
        out = apply_cphase(uniform_superposition(2),
                           DiagonalTwoQubitGate.from_phi1(phi1),
                           GatePlacement(1, 2))
        assert concurrence(out) == pytest.approx(abs(math.sin(2 * phi1)),
                                                 abs=1e-12)


def test_concurrence_range_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        c = concurrence(StateVector(random_state(rng, 2)))
        assert 0.0 <= c <= 1.0


def test_concurrence_wrong_size():
    with pytest.raises(ValueError):
        concurrence(uniform_superposition(3))


def test_extract_phase_classes_uniform():
    classes = extract_phase_classes(uniform_superposition(3))
    assert classes == [frozenset(range(8))]


def test_extract_phase_classes_after_gate():
    out = apply_cphase(uniform_superposition(2),
                       DiagonalTwoQubitGate.from_phi1(math.pi / 4),
                       GatePlacement(1, 2))
    assert extract_phase_classes(out) == [frozenset({0, 3}), frozenset({1, 2})]


def test_extract_phase_classes_skips_zeros():
    s = StateVector([1 / math.sqrt(2), 0.0, 0.0, 1 / math.sqrt(2)])
    assert extract_phase_classes(s) == [frozenset({0, 3})]


def test_extract_phase_classes_tolerance_validation():
    # NaN matches nothing (one class per index), inf matches every amplitude as
    # zero (no class at all) and True would be read as 1, so all are refused
    state = uniform_superposition(3)
    for bad in (0.0, -1e-9, math.nan, math.inf, -math.inf, True):
        with pytest.raises(ValueError, match="^tolerance must be positive$"):
            extract_phase_classes(state, tolerance=bad)
    assert extract_phase_classes(state, tolerance=1e-9) == [frozenset(range(8))]


_TIE_SIZES = (0.0, 1.0, 2.0, 1 + 2.0 ** -52, 1 - 2.0 ** -52)  # offsets, in units of tol


@st.composite
def _near_tie_states(draw):
    """A state of a few centres plus offsets of 0, tol, 2 tol and tol (1 +- 2^-52), in
    random or axis directions, with exact zeros and amplitudes of size tol; its last
    amplitude is real and makes up the norm. Half the centres lie on the grid of a dyadic
    tol, where an axis offset is exact. Returns the state and the tolerances to try: tol,
    one |amp|, and the distance of two amplitudes with the doubles either side of it."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    radius = 2.0 ** -(n // 2 + 2)  # with offsets of up to 2 tol, |psi|^2 stays under 1
    tol = radius * draw(st.sampled_from([2.0 ** -2, 2.0 ** -10, 2.0 ** -30, 0.3]))
    centres = radius * rng.uniform(-1, 1, (draw(st.integers(1, 4)), 2)) @ np.array([1, 1j])
    grid = rng.random(len(centres)) < 0.5
    centres[grid] = np.round(centres[grid] / tol) * tol
    size = 2 ** n - 1
    turn = np.where(rng.random(size) < 0.5, np.array([1, 1j, -1, -1j])[rng.integers(0, 4, size)],
                    np.exp(2j * np.pi * rng.random(size)))
    amps = (centres[rng.integers(0, len(centres), size)]
            + tol * np.array(_TIE_SIZES)[rng.integers(0, len(_TIE_SIZES), size)] * turn)
    kind = rng.integers(0, 6, size)
    amps[kind == 0] = 0.0
    amps[kind == 1] = tol * turn[kind == 1]
    amps = np.append(amps, math.sqrt(1 - float(np.vdot(amps, amps).real)))
    i, j = rng.integers(0, 2 ** n, 2)
    gap = abs(complex(amps[i]) - complex(amps[j]))
    tols = [tol, abs(complex(amps[i]))]
    if gap > 0:
        tols += [gap, math.nextafter(gap, 0), math.nextafter(gap, math.inf)]
    return StateVector(amps), [t for t in tols if t > 0]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_near_tie_states())
def test_phase_classes_are_those_of_the_greedy_scan_at_near_ties(case):
    state, tolerances = case
    for tol in tolerances:
        assert extract_phase_classes(state, tol) == reference_phase_classes(state, tol)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1e-9, 1e-3, 2.0 ** -6, 0.05]))
def test_phase_classes_of_random_states_are_those_of_the_greedy_scan(n, seed, tol):
    state = StateVector(random_state(np.random.default_rng(seed), n))
    assert extract_phase_classes(state, tol) == reference_phase_classes(state, tol)


def test_phase_classes_of_every_placed_gate_are_those_of_the_greedy_scan():
    rng = np.random.default_rng(32)
    for n in range(2, 7):
        for control, target in itertools.permutations(range(1, n + 1), 2):
            gate = DiagonalTwoQubitGate.from_phi1(float(rng.uniform(-math.pi, math.pi)))
            out = apply_cphase(uniform_superposition(n), gate, GatePlacement(control, target))
            classes = extract_phase_classes(out)
            assert classes == reference_phase_classes(out) and len(classes) == 2


def test_text_round_trip():
    rng = np.random.default_rng(5)
    for n in (1, 2, 4):
        s = StateVector(random_state(rng, n))
        back = state_from_text(state_to_text(s))
        assert back.n_qubits == n
        assert np.array_equal(back.amplitudes, s.amplitudes)


def test_text_format_shape():
    text = state_to_text(uniform_superposition(2))
    lines = text.splitlines()
    assert lines[0] == "n=2"
    assert lines[1].startswith("00 ")
    assert lines[4].startswith("11 ")
    assert len(lines) == 5


def test_text_parse_rejects_non_finite():
    with pytest.raises(ValueError):
        state_from_text("n=1\n0 nan 0\n1 0 0\n")


def test_text_parse_rejects_garbage():
    with pytest.raises(ValueError):
        state_from_text("")
    with pytest.raises(ValueError):
        state_from_text("qubits=2\n00 1 0\n")
    with pytest.raises(ValueError):
        state_from_text("n=1\n0 1 0\n")  # missing a line
    with pytest.raises(ValueError):
        state_from_text("n=1\n0 1 0\n0 0 0\n")  # duplicate index
    with pytest.raises(ValueError):
        state_from_text("n=1\n0 1 0\n2 0 0\n")  # bad bit string
