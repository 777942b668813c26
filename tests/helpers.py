"""Dense brute-force oracles the test suite checks the package against.

Everything here works on explicit state vectors / matrices with numpy,
so it is exponential in qubit count and only usable for small systems.
That is the point: none of the package's sparse bookkeeping is reused.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

from csmg.pauli import PauliString, StabilizerFrame
from csmg.recordio import EVENT_LOST, event_basis, event_outcome
from csmg.stream import _AXES, _apply_step_noise, _finalize_to_byte
from csmg.templates import Template

_ID = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PAULI_MATS = {"I": _ID, "X": _X, "Y": _Y, "Z": _Z}

# rows are the dual basis vectors <e_+|, <e_-| of each measurement basis,
# so applying the matrix maps outcome +1 onto bit 0 and -1 onto bit 1
BASIS_ROTATIONS = {
    "X": _H,
    "Y": np.array([[1, -1j], [1, 1j]], dtype=complex) / np.sqrt(2),
    "Z": _ID,
}


def pauli_string_matrix(ps: PauliString, n_qubits: int,
                        offset: int = 0) -> np.ndarray:
    """Dense matrix of a PauliString on qubits offset..offset+n-1."""
    mat = np.array([[ps.phase]], dtype=complex)
    for q in range(offset, offset + n_qubits):
        letter = ps.letters.get(q)
        mat = np.kron(mat, PAULI_MATS[letter.value if letter else "I"])
    return mat


def cluster_state(n: int) -> np.ndarray:
    """State vector of the n-qubit linear cluster state.

    |+>^n followed by controlled-Z on every adjacent pair; qubit 0 is
    the most significant bit of the index.
    """
    psi = np.full(2 ** n, 2 ** (-n / 2), dtype=complex)
    idx = np.arange(2 ** n)
    for q in range(n - 1):
        bit_a = (idx >> (n - 1 - q)) & 1
        bit_b = (idx >> (n - 2 - q)) & 1
        psi = psi * np.where(bit_a & bit_b, -1.0, 1.0)
    return psi


def apply_single_qubit(psi: np.ndarray, n: int, q: int,
                       u: np.ndarray) -> np.ndarray:
    """Apply the 2x2 operator u to qubit q of an n-qubit state vector."""
    t = psi.reshape((2 ** q, 2, 2 ** (n - q - 1)))
    return np.einsum("ab,ibj->iaj", u, t).reshape(-1)


def measurement_distribution(psi: np.ndarray, bases: str) -> np.ndarray:
    """Joint outcome distribution for a product-basis measurement.

    bases is a string like "XYZZY"; the returned array has 2**n entries
    indexed by outcome bits (qubit 0 most significant, bit 0 <-> +1).
    """
    n = len(bases)
    for q, basis in enumerate(bases):
        psi = apply_single_qubit(psi, n, q, BASIS_ROTATIONS[basis])
    return np.abs(psi) ** 2


def expectation_dense(psi: np.ndarray, ps: PauliString, n: int) -> float:
    mat = pauli_string_matrix(ps, n)
    val = np.vdot(psi, mat @ psi)
    assert abs(val.imag) < 1e-12
    return float(val.real)


def rho_from_moments(mu_yz: float, mu_zy: float, mu_xx: float) -> np.ndarray:
    """The reconstructed two-qubit operator (not necessarily a state)."""
    return (np.kron(_ID, _ID) + mu_yz * np.kron(_Y, _Z)
            + mu_zy * np.kron(_Z, _Y) + mu_xx * np.kron(_X, _X)) / 4.0


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian matrix, negative eigenvalues clipped."""
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def wootters_concurrence(rho: np.ndarray) -> float:
    """Spin-flip concurrence of an arbitrary two-qubit density matrix.

    The square roots of the eigenvalues of rho times its spin flip are the
    singular values of sqrt(rho) sqrt(flip): taken that way, a
    rank-deficient rho loses no digits to a square root of a rounded
    eigenvalue near zero.
    """
    yy = np.kron(_Y, _Y)
    flip = yy @ rho.conj() @ yy
    s = np.linalg.svd(_psd_sqrt(rho) @ _psd_sqrt(flip), compute_uv=False)
    return max(0.0, s[0] - s[1] - s[2] - s[3])


def entropy_of_entanglement(c: float) -> float:
    """Binary-entropy formula for entanglement of formation, in bits."""
    if c <= 0.0:
        return 0.0
    # a concurrence rounded just past 1 is 1
    x = (1.0 + np.sqrt(max(0.0, 1.0 - c * c))) / 2.0
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


def reference_scan(events: Sequence[int], template: Template, *,
                   mode: str = "all",
                   burn_in: int = 0) -> Tuple[int, int, List[int]]:
    """Slow direct scanner: (match_count, signed_sum, offsets)."""
    required = dict(template.required)
    span = template.span
    offsets: List[int] = []
    signed = 0
    blocked_until = -1
    for o in range(burn_in, len(events) - span + 1):
        if mode == "greedy" and o < blocked_until:
            continue
        product = 1
        ok = True
        for pos, want in required.items():
            byte = int(events[o + pos])
            if byte == EVENT_LOST or event_basis(byte) != want:
                ok = False
                break
            product *= event_outcome(byte)
        if not ok:
            continue
        offsets.append(o)
        signed += product
        if mode == "greedy":
            blocked_until = o + span
    return len(offsets), signed, offsets


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def cpus(n: Optional[int]):
    """Patch ``os.cpu_count`` to return ``n``: ``scan`` runs no more
    ranges than that, so a test of the range split asks for the CPUs it
    needs instead of taking the host's."""
    return mock.patch("os.cpu_count", return_value=n)


def events_from_text(text: str) -> bytes:
    """Build an event byte string from tokens like "Z+ Y- L X+"."""
    basis_codes = {"X": 1, "Y": 2, "Z": 3}
    out = bytearray()
    for token in text.split():
        if token == "L":
            out.append(EVENT_LOST)
            continue
        basis, sign = token[0], token[1]
        out.append((basis_codes[basis] << 1) | (0 if sign == "+" else 1))
    return bytes(out)


# ---------------------------------------------------------------------------
# The stream's base chain tables, rebuilt through the stabilizer frame.

_STATE_LETTERS = ("X", "Y", "Z")


def _state_index(letter: str, sign: int) -> int:
    return _STATE_LETTERS.index(letter) * 2 + (0 if sign > 0 else 1)


def _frame_for_state(state: int) -> StabilizerFrame:
    letter = _STATE_LETTERS[state // 2]
    sign = 1 if state % 2 == 0 else -1
    return StabilizerFrame.from_generators(
        [0], [PauliString.single(letter, 0, phase=sign)])


def build_tables_from_frame() -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(init, out, next_state, final) of ``csmg.stream``, each table (6, 64).

    Every entry comes from driving the frame through one pipeline step from
    the frontier state of its row, with the step code of its column.
    """
    frame = StabilizerFrame()
    frame.emit_qubit(0)
    letter, sign = frame.single_qubit_state(0)
    init = _state_index(letter.value, sign)

    out = np.zeros((6, 64), dtype=np.uint8)
    nxt = np.zeros((6, 64), dtype=np.uint8)
    final = np.zeros((6, 64), dtype=np.uint8)
    for state in range(6):
        for sp in range(4):
            for zz in range(2):
                for fin in range(4):
                    for coin in range(2):
                        frame = _frame_for_state(state)
                        frame.emit_qubit(1)
                        _apply_step_noise(frame, 1, sp, zz)
                        byte = _finalize_to_byte(
                            frame, 0, fin, 0.25 if coin == 0 else 0.75)
                        letter, sign = frame.single_qubit_state(1)
                        code = ((sp * 2 + zz) * 4 + fin) * 2 + coin
                        out[state, code] = byte
                        nxt[state, code] = _state_index(letter.value, sign)

            for fin in range(4):
                for coin in range(2):
                    frame = _frame_for_state(state)
                    if sp:
                        frame.apply_pauli(PauliString.single(_AXES[sp - 1], 0))
                    final[state, (sp * 8 + fin) * 2 + coin] = _finalize_to_byte(
                        frame, 0, fin, 0.25 if coin == 0 else 0.75)
    return init, out, nxt, final


def chain_table_literal(init: int, out: np.ndarray, nxt: np.ndarray,
                        final: np.ndarray) -> str:
    """The ``_INIT`` ... ``_FINAL`` assignments of ``csmg/stream.py``."""
    lines = [f"_INIT = {init}  # the first emission leaves the frontier in "
             f"{_STATE_LETTERS[init // 2]}{'+-'[init % 2]}"]
    for name, table in (("_OUT", out), ("_NEXT", nxt), ("_FINAL", final)):
        lines.append(f"{name} = (")
        lines += [f'    "{"".join(map(str, row))}",' for row in table.tolist()]
        lines.append(")")
    return "\n".join(lines)
