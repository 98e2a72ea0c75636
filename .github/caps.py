"""The CI cap checks, one case per CI step, run from the root of a checkout:

    PYTHONPATH=src python .github/caps.py <case>

A case runs a command or a call at a cap the package advertises, prints one
line and exits 1 unless it keeps its time and memory bounds and, where pinned,
its recorded SHA-256; each bound is stated once, in its case. In-process cases
read RUSAGE_SELF, and a child starts its ru_maxrss at its parent's high-water
mark, so no two cases share a process. Quoted times are on 2 shared CPUs, and
each time budget is some 10 times that."""
import hashlib
import os
import random
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

from toricgate import (MAX_FACTORS, DiagonalTwoQubitGate, Fan, GatePlacement, apply_cphase,
                       class_graph, extract_phase_classes, is_connected, is_hypercube_isomorphic,
                       partition_vertices, product_p1_fan, uniform_superposition)
from toricgate.phase_partition import MAX_GRAPH_QUBITS
from toricgate.render import MAX_DOT_QUBITS
from toricgate.statevec import _state_blocks

CHUNK = 1 << 24  # bytes read from a child's stdout, or from a file, at a time


def streamed(argv: list[str], into=None, hold: int = 0) -> tuple[int, float, str, bytes]:
    """Run `python -m toricgate <argv>`, hashing its stdout as it streams but for
    the last `hold` bytes, which it holds back, and writing all of it to the
    binary file `into`, if given: (exit code, wall seconds, hex SHA-256, held)."""
    digest, held = hashlib.sha256(), b""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "toricgate", *argv],
                          stdout=subprocess.PIPE) as proc:
        for chunk in iter(lambda: proc.stdout.read(CHUNK), b""):
            if into is not None:
                into.write(chunk)
            held += chunk
            cut = max(len(held) - hold, 0)  # a bare negative end would count from the end
            digest.update(held[:cut])
            held = held[cut:]
    return proc.returncode, time.perf_counter() - start, digest.hexdigest(), held


def peak_mib(who: int = resource.RUSAGE_CHILDREN) -> float:
    """The high-water RSS in MiB of the waited-for children, or of this process."""
    return resource.getrusage(who).ru_maxrss / 1024


def verdict(title: str, **checks) -> int:
    """Print the case's line and return its exit code, 0 if every check holds.
    A check is a bool, or a (value, bound) pair that holds when value <= bound."""
    shown, failed = [title], []
    for name, check in checks.items():
        if isinstance(check, tuple):
            shown.append(f"{name} {check[0]:.4g} (bound {check[1]})")
            check = check[0] <= check[1]
        failed += [] if check else [name]
    print("; ".join(shown), "FAILED " + ", ".join(failed) if failed else "ok", sep=": ")
    return 1 if failed else 0


def apply_at_cap() -> int:
    """`apply --n 24` starts from one broadcast amplitude and streams its text,
    so it holds one 256 MiB state (about 290 MiB; a full uniform array, 546).
    Its digest was recorded from the '%.17g' writer before the floats were laid
    out as byte tables; it took 14 to 17 s. `apply --input` reads that file in
    blocks and applies a second gate; its stdout must hash as the two gates run
    in process, with no reader: 25.8 to 29.1 s, 18.5-21.1 s user, 5.9-6.1 s sys."""
    gates = ((1, 2, 0.3), (5, 20, 1.1))
    write, again = [["--control", str(control), "--target", str(target), "--phi1", str(phi1)]
                    for control, target, phi1 in gates]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "n24.txt")
        with open(path, "wb") as out:
            code, wall_s, digest, _ = streamed(["apply", "--n", "24", *write], into=out)
        write_mib = peak_mib()
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        code_2, wall_2, digest_2, _ = streamed(["apply", *again, "--input", path])
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
    state = uniform_superposition(24)  # after the children: they would start from its peak
    for control, target, phi1 in gates:
        state = apply_cphase(state, DiagonalTwoQubitGate.from_phi1(phi1),
                             GatePlacement(control, target))
    want = hashlib.sha256()
    for block in _state_blocks(state):
        want.update(block.encode("ascii"))
    return verdict(
        f"apply --n 24 > file: sha256 {digest}; apply --input file: sha256 {digest_2}, CPU user "
        f"{after.ru_utime - before.ru_utime:.2f} sys {after.ru_stime - before.ru_stime:.2f} s",
        exit_0=code == 0,
        recorded=digest == "e48e35d2c2777635af1708a904b0b379cc00f71a3595a07570bc9fd27d6a496a",
        rss_mib=(write_mib, 400), wall_s=(wall_s, 150),
        input_exit_0=code_2 == 0, input_as_in_process=digest_2 == want.hexdigest(),
        rss_mib_of_both=(peak_mib(), 1024), input_wall_s=(wall_2, 360))


def cphase_blocks() -> int:
    """The gate kernel walks the state in blocks: these placements put both bits
    above a block, one above and one inside, and both inside. Each gate acts on
    the real uniform state, so every amplitude is one rounded product, fused
    multiply-adds or not; the digest predates the blocked kernel. Each output
    reuses the last one's buffer: one 256 MiB broadcast state, about 290 MiB."""
    state = uniform_superposition(24)
    gate = DiagonalTwoQubitGate.from_angles(0.3, 1.1)
    digest = hashlib.sha256()
    for control, target in ((1, 2), (1, 24), (23, 24), (12, 23)):
        digest.update(apply_cphase(state, gate, GatePlacement(control, target)).amplitudes)
    return verdict(
        f"apply_cphase at n = 24: sha256 {digest.hexdigest()}",
        recorded=digest.hexdigest() == (
            "5df883fca1c512a0762a20df9c553c21cd6c9b779cdb636e2c8ffb67105e7146"),
        rss_mib=(peak_mib(resource.RUSAGE_SELF), 400))


def chain() -> int:
    """Each gate writes into the buffer of a state nothing refers to any more,
    so 16 gates at n = 24 hold two 256 MiB states, never a third. Amplitudes are
    sampled against their gate factors, not hashed: a chain's last bits may
    differ where multiply-adds fuse. The carried |psi|^2 bounds must hold
    np.vdot's sum: each square is within 2e-15 of 2^-24, so any summation order
    lands about that close to the exact sum; the bounds are some 3e-14 from 1."""
    n, rng = 24, random.Random(24)
    gates = [(DiagonalTwoQubitGate.from_phi1(rng.uniform(-np.pi, np.pi)),
              *rng.sample(range(1, n + 1), 2)) for _ in range(16)]
    before = resource.getrusage(resource.RUSAGE_SELF)
    state = uniform_superposition(n)
    for gate, control, target in gates:
        state = apply_cphase(state, gate, GatePlacement(control, target))
    after = resource.getrusage(resource.RUSAGE_SELF)
    error = 0.0
    for x in rng.sample(range(1 << n), 64):  # each amplitude: 2^(-n/2) times its 16 factors
        want = 2.0 ** (-n / 2)
        for gate, control, target in gates:
            agree = (x >> (n - control)) & 1 == (x >> (n - target)) & 1
            want *= gate.equal_bits_factor if agree else gate.unequal_bits_factor
        error = max(error, abs(complex(state.amplitudes[x]) - want))
    (lo, hi), norm_sq = state._norm_range, float(np.vdot(state.amplitudes, state.amplitudes).real)
    return verdict(
        f"16-gate chain at n = 24: CPU user {after.ru_utime - before.ru_utime:.2f} "
        f"sys {after.ru_stime - before.ru_stime:.2f} s, |psi|^2 [{lo!r}, {hi!r}] vdot {norm_sq!r}",
        rss_mib=(after.ru_maxrss / 1024, 640), largest_error_at_64_indices=(error, 1e-12),
        bounds_hold_vdot=lo <= norm_sq <= hi)


def partition_at_cap() -> int:
    """Each class is checked on the agreement mask one move direction at a time,
    its edges counted, not built. The text's digest (419 MB) predates that: it is
    of a run without --check-hypercube, whose three lines follow. It took 2 to 3 s."""
    tail = b"phi1 isomorphic to Q23: yes\nphi2 isomorphic to Q23: yes\ncrossing edges: 16777216\n"
    code, wall_s, digest, held = streamed(["partition", "--n", "24", "--control", "3",
                                           "--target", "17", "--check-hypercube"], hold=len(tail))
    return verdict(
        f"partition --n 24 --check-hypercube: text sha256 {digest}, tail {held!r}",
        exit_0=code == 0, recorded=held == tail and digest == (
            "dcfe75a11629a36a207dab7ac3f2b35bce4931b47cd7a9d09d9fd90a1b452bfc"),
        rss_mib=(peak_mib(), 1024), wall_s=(wall_s, 30))


def class_graphs() -> int:
    """`class_graph` keeps its arrays as the graph's one array form, which
    `is_connected` (root hooking, pointer jumping) and `is_hypercube_isomorphic`
    read. The three calls took 2.4 s in all, peaking at 500 MiB."""
    partition = partition_vertices(MAX_GRAPH_QUBITS, GatePlacement(3, 16))
    start = time.perf_counter()
    graph = class_graph(partition, "phi1")
    built = time.perf_counter()
    connected = is_connected(graph)
    joined = time.perf_counter()
    match = is_hypercube_isomorphic(graph)
    matched = time.perf_counter()
    return verdict(
        f"one class at n = {MAX_GRAPH_QUBITS}: class_graph {built - start:.2f} s, "
        f"is_connected {joined - built:.2f} s, is_hypercube_isomorphic {matched - joined:.2f} s",
        connected=connected is True, isomorphic_to_cube=match.is_isomorphic,
        rss_mib=(peak_mib(resource.RUSAGE_SELF), 640), wall_s_in_all=(matched - start, 30))


def phase_classes() -> int:
    """`extract_phase_classes` peels one class per array pass; a gated state's
    two classes must be its placement's agreeing and differing indices. It took
    0.99 s and the case peaked at 487 MiB (the greedy scan it replaced: 4.7 s, 445 MiB)."""
    placement = GatePlacement(3, 20)
    state = apply_cphase(uniform_superposition(22), DiagonalTwoQubitGate.from_phi1(0.3),
                         placement)
    start = time.perf_counter()
    classes = extract_phase_classes(state)
    wall_s = time.perf_counter() - start
    rss_mib = peak_mib(resource.RUSAGE_SELF)  # before the checks below build their arrays
    sizes = [len(members) for members in classes]
    agree = np.flatnonzero(partition_vertices(22, placement)._agree)
    return verdict(
        f"phase classes at n = 22: sizes {sizes}", halves=sizes == [1 << 21] * 2,
        agreeing_first=np.array_equal(np.array(sorted(classes[0])), agree),
        rss_mib=(rss_mib, 768), wall_s=(wall_s, 10))


def fan_at_cap() -> int:
    """Every maximal cone of the fan at `MAX_FACTORS` goes back through Fan's
    checks, is_simplicial among them; a signed orthant's pivots are each alone in
    their column, so its elimination does no arithmetic. 2.5 to 3.3 s, 108 MiB."""
    fan = product_p1_fan(MAX_FACTORS)
    start = time.perf_counter()
    again = Fan(fan.dimension, fan.rays, fan.maximal_cones)
    took = time.perf_counter() - start
    return verdict(
        f"(P^1)^{MAX_FACTORS} fan: {len(again.maximal_cones)} cones re-validated",
        equal_to_the_built_fan=again == fan and len(again.maximal_cones) == 1 << MAX_FACTORS,
        wall_s=(took, 40), rss_mib=(peak_mib(resource.RUSAGE_SELF), 512))


def dot_at_cap() -> int:
    """`MAX_DOT_QUBITS` is the largest n whose DOT run stays within 1 GiB; its
    file's digest (610 MiB) predates the byte-table layout. It took 1.0 to 1.3 s.
    --out is rewritten in place, so n = 3 rendered over it must cut the file to
    the n = 3 text, whose digest bench/checks.py records."""
    def render(n: int, out: str) -> tuple[int, float, str]:
        code, wall_s, _, _ = streamed(["render", "--format", "dot", "--n", str(n),
                                       "--control", "1", "--target", "2", "--out", out])
        digest = hashlib.sha256()
        with open(out, "rb") as text:
            for chunk in iter(lambda: text.read(CHUNK), b""):
                digest.update(chunk)
        return code, wall_s, digest.hexdigest()

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "cap.dot")
        code, wall_s, digest = render(MAX_DOT_QUBITS, out)
        rss_mib = peak_mib()  # before the n = 3 child, which starts from this process's peak
        code_3, _, digest_3 = render(3, out)
    return verdict(
        f"render --format dot --n {MAX_DOT_QUBITS}: sha256 {digest}; n = 3 over it: {digest_3}",
        exit_0=code == 0, recorded=MAX_DOT_QUBITS == 20 and digest == (
            "32744c642d4efe46b7c86f7ac988130a62b7f000ae40b0e827c6e3f1742051de"),
        rss_mib=(rss_mib, 1024), wall_s=(wall_s, 20), n3_exit_0=code_3 == 0,
        n3_recorded=digest_3 == "d2ccb954180410db1b660a9cc6458ccce0d07507139b0aaabae0e184d7714725")


CASES = {"apply": apply_at_cap, "cphase-blocks": cphase_blocks, "chain": chain,
         "partition": partition_at_cap, "class-graphs": class_graphs,
         "phase-classes": phase_classes, "fan": fan_at_cap, "dot": dot_at_cap}

if __name__ == "__main__":
    sys.exit(CASES[sys.argv[1]]())
