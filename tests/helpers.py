"""Shared oracles for the test suite, independent of the library internals."""
import numpy as np


def dense_cphase_matrix(n, control, target, phi1, phi2):
    """Full 2^n x 2^n operator from a Kronecker product plus an explicit
    qubit permutation; no amplitude-selection shortcuts."""
    gate = np.diag([np.exp(1j * phi1), np.exp(1j * phi2),
                    np.exp(1j * phi2), np.exp(1j * phi1)])
    op = np.kron(gate, np.eye(2 ** (n - 2), dtype=complex))
    order = [control, target] + [q for q in range(1, n + 1)
                                 if q not in (control, target)]
    dim = 2 ** n
    perm = np.zeros((dim, dim))
    for x in range(dim):
        bits = [(x >> (n - q)) & 1 for q in range(1, n + 1)]
        y = 0
        for q in order:
            y = (y << 1) | bits[q - 1]
        perm[y, x] = 1.0
    return perm.T @ op @ perm


def reference_cphase(amps, n, control, target, equal_factor, unequal_factor):
    """Controlled-phase by selecting factors on shifted index bits."""
    idx = np.arange(amps.size)
    control_bits = (idx >> (n - control)) & 1
    target_bits = (idx >> (n - target)) & 1
    # a named temporary: numpy may not elide it and swap the operands of the
    # product, which changes the last bit of complex products on FMA hardware
    factors = np.where(control_bits == target_bits, equal_factor, unequal_factor)
    return amps * factors


def random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return amps / np.linalg.norm(amps)


def hypercube_edges(m):
    """Edges of Q_m as (low, high) pairs."""
    return {(v, v | (1 << b)) for v in range(1 << m)
            for b in range(m) if not v & (1 << b)}


def xnor_class(n, control, target, agree):
    """String-indexing oracle for the phase classes."""
    out = set()
    for x in range(1 << n):
        s = format(x, f"0{n}b")
        if (s[control - 1] == s[target - 1]) == agree:
            out.add(x)
    return out
