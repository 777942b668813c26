"""Pauli algebra and sliding-frame checks against dense linear algebra."""
import copy

import numpy as np
import pytest

from csmg.pauli import FrameError, PauliLetter, PauliString, StabilizerFrame

from helpers import (
    cluster_state,
    expectation_dense,
    measurement_distribution,
    pauli_string_matrix,
    total_variation,
)


def test_single_letter_products():
    x = PauliString.single("X", 0)
    y = PauliString.single("Y", 0)
    z = PauliString.single("Z", 0)
    assert x * y == PauliString.single("Z", 0, phase=1j)
    assert y * x == PauliString.single("Z", 0, phase=-1j)
    assert x * z == PauliString.single("Y", 0, phase=-1j)
    assert z * x == PauliString.single("Y", 0, phase=1j)
    assert y * z == PauliString.single("X", 0, phase=1j)
    for p in (x, y, z):
        assert (p * p).is_identity
        assert (p * p).phase == 1


def test_generator_product_example():
    k1 = PauliString({0: "Z", 1: "X", 2: "Z"})
    k2 = PauliString({1: "Z", 2: "X", 3: "Z"})
    prod = k1 * k2
    assert prod == PauliString({0: "Z", 1: "Y", 2: "Y", 3: "Z"})
    assert prod.phase == 1


def test_phase_validation():
    with pytest.raises(ValueError):
        PauliString({0: "X"}, phase=0.5)
    with pytest.raises(ValueError):
        PauliString.identity(phase=2)


def test_commutation_matches_product_order():
    rng = np.random.default_rng(11)
    letters = [None, "X", "Y", "Z"]
    for _ in range(300):
        n = rng.integers(1, 5)
        a = PauliString({q: letters[c] for q, c in
                         enumerate(rng.integers(0, 4, n)) if c},
                        phase=[1, 1j, -1, -1j][rng.integers(0, 4)])
        b = PauliString({q: letters[c] for q, c in
                         enumerate(rng.integers(0, 4, n)) if c})
        ab, ba = a * b, b * a
        if a.commutes_with(b):
            assert ab == ba
        else:
            assert ab == ba.negated()


def test_products_match_dense_matrices():
    rng = np.random.default_rng(5)
    letters = [None, "X", "Y", "Z"]
    phases = [1, 1j, -1, -1j]
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a = PauliString({q: letters[c] for q, c in
                         enumerate(rng.integers(0, 4, n)) if c},
                        phase=phases[rng.integers(0, 4)])
        b = PauliString({q: letters[c] for q, c in
                         enumerate(rng.integers(0, 4, n)) if c},
                        phase=phases[rng.integers(0, 4)])
        lhs = pauli_string_matrix(a * b, n)
        rhs = pauli_string_matrix(a, n) @ pauli_string_matrix(b, n)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_string_repr_is_readable():
    s = PauliString({0: "Z", 2: "Y"}, phase=-1)
    assert str(s) == "-Z0 Y2"
    assert str(PauliString.identity(phase=1j)) == "+iI"


# ---------------------------------------------------------------------------
# Frame construction and chain stabilizers.


def _chain_frame(n: int) -> StabilizerFrame:
    frame = StabilizerFrame()
    for q in range(n):
        frame.emit_qubit(q)
    return frame


def test_chain_generators_stabilize_the_cluster_state():
    for n in range(2, 7):
        frame = _chain_frame(n)
        psi = cluster_state(n)
        assert frame.width == n
        for g in frame.generators:
            assert expectation_dense(psi, g, n) == pytest.approx(1.0)
        frame.check()


def test_boundary_generators_two_qubits():
    frame = _chain_frame(2)
    assert frame.expectation(PauliString({0: "X", 1: "Z"})) == 1
    assert frame.expectation(PauliString({0: "Z", 1: "X"})) == 1
    assert frame.expectation(PauliString({0: "Z", 1: "Z"})) == 0


def test_interior_stabilizers():
    frame = _chain_frame(5)
    for q in range(1, 4):
        k = PauliString({q - 1: "Z", q: "X", q + 1: "Z"})
        assert frame.expectation(k) == 1
    assert frame.expectation(PauliString({0: "X"})) == 0


def test_emit_must_extend_chain():
    frame = _chain_frame(2)
    with pytest.raises(FrameError):
        frame.emit_qubit(5)


def test_pauli_error_flips_anticommuting_stabilizers():
    frame = _chain_frame(4)
    frame.apply_pauli(PauliString.single("X", 1))
    # flips exactly the generators carrying Z on qubit 1
    assert frame.expectation(PauliString({0: "X", 1: "Z"})) == -1
    assert frame.expectation(PauliString({1: "Z", 2: "X", 3: "Z"}).negated()) == 1
    assert frame.expectation(PauliString({0: "Z", 1: "X", 2: "Z"})) == 1


def test_deterministic_measurement_and_repeat():
    frame = StabilizerFrame()
    frame.emit_qubit(0)
    assert frame.measure(0, "X") == 1
    assert frame.measure(0, "X") == 1
    # After projecting on X the Z direction is a fair coin, then sticky.
    out = frame.measure(0, "Z", coin=0.7)
    assert out == -1
    assert frame.measure(0, "Z") == -1


def test_measurement_distribution_matches_dense():
    """Exact joint outcome distributions via branch enumeration."""
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        bases = "".join(rng.choice(list("XYZ"), n))
        dense = measurement_distribution(cluster_state(n), bases)
        dist = np.zeros(2 ** n)
        stack = [(_chain_frame(n), 0, 1.0, 0)]
        while stack:
            fr, q, pr, bits = stack.pop()
            if q == n:
                dist[bits] += pr
                continue
            lo = copy.deepcopy(fr)
            o_lo = lo.measure(q, bases[q], coin=0.25)
            hi = copy.deepcopy(fr)
            o_hi = hi.measure(q, bases[q], coin=0.75)
            if o_lo == o_hi:
                stack.append((lo, q + 1, pr, bits * 2 + (o_lo < 0)))
            else:
                stack.append((lo, q + 1, pr / 2, bits * 2 + (o_lo < 0)))
                stack.append((hi, q + 1, pr / 2, bits * 2 + (o_hi < 0)))
        assert total_variation(dense, dist) < 1e-12


def test_finalize_removes_qubit():
    frame = _chain_frame(3)
    frame.emit_qubit(3)
    frame.finalize(0, "Z", coin=0.2)
    assert frame.active == (1, 2, 3)
    frame.check()
    # remaining chain still carries its interior stabilizer up to signs
    assert frame.expectation(PauliString({1: "Z", 2: "X", 3: "Z"})) in (-1, 1)


def test_delete_entangled_qubit_raises():
    frame = _chain_frame(3)
    with pytest.raises(FrameError):
        frame.delete(1)


def test_trace_out_keeps_trajectories_pure_and_mixes_the_ensemble():
    """Loss collapses each trajectory; the mixture lives in the coin."""
    outcomes = []
    for coin in (0.3, 0.7):
        frame = _chain_frame(2)
        frame.trace_out(0, coin=coin)
        assert frame.is_pure
        x = frame.expectation(PauliString.single("X", 1))
        assert x in (-1, 1)
        assert frame.expectation(PauliString.single("Y", 1)) == 0
        assert frame.expectation(PauliString.single("Z", 1)) == 0
        outcomes.append(x)
    # the two coin branches land in opposite eigenstates: equal-weight
    # average is the maximally mixed marginal
    assert sorted(outcomes) == [-1, 1]


def test_trace_out_product_qubit_keeps_rest_pure():
    frame = _chain_frame(3)
    assert frame.measure(1, "Z", coin=0.1) == 1
    frame.trace_out(1, coin=0.9)
    # Z measurement on the middle cuts the chain into X-basis ends
    assert frame.expectation(PauliString({0: "X"})) in (-1, 1)
    assert frame.expectation(PauliString({2: "X"})) in (-1, 1)


def test_loss_model_choice_is_observationally_equivalent():
    """Forgotten-Z and forgotten-X losses give identical downstream stats.

    Tracing out is basis independent; the frame realizes it as a
    forgotten measurement, and no later observable may depend on which
    basis was forgotten.  Compare exact downstream distributions by
    branch enumeration over the forgotten coin.
    """
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(3, 6))
        lost = int(rng.integers(0, n - 1))
        bases = "".join(rng.choice(list("XYZ"), n))
        dists = []
        for forgotten in ("Z", "X", "Y"):
            dist = np.zeros(2 ** (n - 1))
            for coin in (0.25, 0.75):
                frame = _chain_frame(n)
                frame.measure(lost, forgotten, coin=coin)
                frame.delete(lost)
                stack = [(frame, 0, 0.5, 0)]
                while stack:
                    fr, q, pr, bits = stack.pop()
                    if q == n:
                        dist[bits] += pr
                        continue
                    if q == lost:
                        stack.append((fr, q + 1, pr, bits))
                        continue
                    lo = copy.deepcopy(fr)
                    o_lo = lo.measure(q, bases[q], coin=0.25)
                    hi = copy.deepcopy(fr)
                    o_hi = hi.measure(q, bases[q], coin=0.75)
                    if o_lo == o_hi:
                        stack.append((lo, q + 1, pr, bits * 2 + (o_lo < 0)))
                    else:
                        stack.append((lo, q + 1, pr / 2, bits * 2 + (o_lo < 0)))
                        stack.append((hi, q + 1, pr / 2, bits * 2 + (o_hi < 0)))
            dists.append(dist)
        assert total_variation(dists[0], dists[1]) < 1e-12
        assert total_variation(dists[0], dists[2]) < 1e-12


def test_single_qubit_state_export():
    frame = StabilizerFrame()
    frame.emit_qubit(0)
    assert frame.single_qubit_state(0) == (PauliLetter.X, 1)
    frame.emit_qubit(1)
    assert frame.single_qubit_state(0) is None
    frame.measure(1, "Z", coin=0.8)
    letter, sign = frame.single_qubit_state(1)
    assert (letter, sign) == (PauliLetter.Z, -1)


def test_measure_inactive_qubit_raises():
    frame = _chain_frame(2)
    frame.finalize(0, "Z", coin=0.1)
    with pytest.raises(FrameError):
        frame.measure(0, "Z")
    with pytest.raises(FrameError):
        frame.measure(7, "X")


def test_random_outcome_without_coin_raises():
    # anticommuting branch: Z on a cluster end is a fair coin
    frame = _chain_frame(2)
    gens = frame.generators
    for call in (lambda: frame.measure(0, "Z"),
                 lambda: frame.finalize(0, "Z"),
                 lambda: frame.trace_out(0)):
        with pytest.raises(FrameError, match="requires a coin"):
            call()
        assert frame.generators == gens and frame.active == (0, 1)
    # unconstrained (mixed) branch: no generator touches the qubit
    mixed = StabilizerFrame.from_generators((0,), ())
    with pytest.raises(FrameError, match="requires a coin"):
        mixed.measure(0, "X")
    assert mixed.generators == ()


def test_from_generators_roundtrip():
    frame = _chain_frame(3)
    clone = StabilizerFrame.from_generators(frame.active, frame.generators)
    for g in frame.generators:
        assert clone.expectation(g) == 1
