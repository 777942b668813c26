"""Exact Pauli-string algebra and a windowed stabilizer-state engine.

Phases are tracked exactly over {+1, -1, +i, -i}; there is no floating
point anywhere in the group arithmetic.  The :class:`StabilizerFrame`
keeps an explicit generating set for the stabilizer group of a small
window of live qubits and supports emission of new cluster qubits,
Pauli errors, destructive measurement and loss (trace-out).  It favours
exactness and clarity over speed: it is the reference engine of
``simulate(method="frame")``.  The high-rate photon stream in
:mod:`csmg.stream` walks transition tables that ship as a constant; a
test rebuilds every entry from this engine, and the table path never
builds a frame.
"""
from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union


class PauliLetter(Enum):
    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"

    def __repr__(self) -> str:  # keeps test output readable
        return self.value


_I, _X, _Y, _Z = PauliLetter.I, PauliLetter.X, PauliLetter.Y, PauliLetter.Z

# Single-qubit products a*b -> (letter, k) with the result i**k * letter.
_LETTER_PRODUCT: Dict[Tuple[PauliLetter, PauliLetter], Tuple[PauliLetter, int]] = {
    (_I, _I): (_I, 0), (_I, _X): (_X, 0), (_I, _Y): (_Y, 0), (_I, _Z): (_Z, 0),
    (_X, _I): (_X, 0), (_X, _X): (_I, 0), (_X, _Y): (_Z, 1), (_X, _Z): (_Y, 3),
    (_Y, _I): (_Y, 0), (_Y, _X): (_Z, 3), (_Y, _Y): (_I, 0), (_Y, _Z): (_X, 1),
    (_Z, _I): (_Z, 0), (_Z, _X): (_Y, 1), (_Z, _Y): (_X, 3), (_Z, _Z): (_I, 0),
}

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

LetterLike = Union[PauliLetter, str]


def _as_letter(value: LetterLike) -> PauliLetter:
    if isinstance(value, PauliLetter):
        return value
    return PauliLetter(str(value).upper())


def _phase_index(phase: complex) -> int:
    phase = complex(phase)
    for k, p in enumerate(_PHASES):
        if phase == p:
            return k
    raise ValueError(f"phase must be one of +1, -1, +i, -i, got {phase!r}")


class PauliString:
    """A phase times a tensor product of Pauli letters on integer sites.

    Sites not present in ``letters`` carry the identity.  Instances are
    treated as immutable; all operations return new strings.
    """

    __slots__ = ("_k", "_letters")

    def __init__(self, letters: Optional[Mapping[int, LetterLike]] = None,
                 phase: complex = 1):
        self._k = _phase_index(phase)
        d: Dict[int, PauliLetter] = {}
        for site, letter in (letters or {}).items():
            lt = _as_letter(letter)
            if lt is not _I:
                d[int(site)] = lt
        self._letters = d

    # -- construction helpers -------------------------------------------------

    @classmethod
    def single(cls, letter: LetterLike, site: int, phase: complex = 1) -> "PauliString":
        return cls({site: letter}, phase)

    @classmethod
    def identity(cls, phase: complex = 1) -> "PauliString":
        return cls({}, phase)

    # -- basic queries ---------------------------------------------------------

    @property
    def phase(self) -> complex:
        return _PHASES[self._k]

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self._letters))

    def letter(self, site: int) -> PauliLetter:
        return self._letters.get(int(site), _I)

    @property
    def letters(self) -> Dict[int, PauliLetter]:
        return dict(self._letters)

    @property
    def is_identity(self) -> bool:
        return not self._letters

    @property
    def is_hermitian(self) -> bool:
        return self._k in (0, 2)

    def with_phase(self, phase: complex) -> "PauliString":
        out = PauliString.__new__(PauliString)
        out._k = _phase_index(phase)
        out._letters = self._letters
        return out

    def negated(self) -> "PauliString":
        out = PauliString.__new__(PauliString)
        out._k = (self._k + 2) % 4
        out._letters = self._letters
        return out

    # -- group operations -------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        k = (self._k + other._k) % 4
        letters = dict(self._letters)
        for site, lb in other._letters.items():
            la = letters.get(site, _I)
            lt, dk = _LETTER_PRODUCT[(la, lb)]
            k = (k + dk) % 4
            if lt is _I:
                letters.pop(site, None)
            else:
                letters[site] = lt
        out = PauliString.__new__(PauliString)
        out._k = k
        out._letters = letters
        return out

    def commutes_with(self, other: "PauliString") -> bool:
        clashes = 0
        a, b = self._letters, other._letters
        if len(b) < len(a):
            a, b = b, a
        for site, la in a.items():
            lb = b.get(site)
            if lb is not None and lb is not la:
                clashes += 1
        return clashes % 2 == 0

    # -- dunder plumbing ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return self._k == other._k and self._letters == other._letters

    def __hash__(self) -> int:
        return hash((self._k, tuple(sorted((s, l.value) for s, l in self._letters.items()))))

    def __str__(self) -> str:
        sign = ("+", "+i", "-", "-i")[self._k]
        if not self._letters:
            return f"{sign}I"
        body = " ".join(f"{self._letters[s].value}{s}" for s in sorted(self._letters))
        return f"{sign}{body}"

    def __repr__(self) -> str:
        return f"<PauliString {self}>"


class FrameError(Exception):
    """Raised on misuse of a StabilizerFrame (bad site, entangled delete, ...)."""


def _coin_outcome(coin: Optional[float]) -> int:
    # coin is a pre-drawn uniform in [0, 1); it makes outcomes reproducible
    # across the reference and table-driven simulation paths.
    if coin is None:
        raise FrameError("random measurement outcome requires a coin")
    return 1 if coin < 0.5 else -1


class StabilizerFrame:
    """Stabilizer state of a small window of live qubits.

    Generators always have phase +1 or -1, mutually commute, and there
    are at most as many of them as live qubits (fewer for mixed states).
    """

    def __init__(self) -> None:
        self._active: list[int] = []
        self._gens: list[PauliString] = []

    @classmethod
    def from_generators(cls, active: Iterable[int],
                        generators: Iterable[PauliString]) -> "StabilizerFrame":
        frame = cls()
        frame._active = sorted(int(q) for q in active)
        frame._gens = list(generators)
        frame.check()
        return frame

    # -- queries -------------------------------------------------------------

    @property
    def active(self) -> Tuple[int, ...]:
        return tuple(self._active)

    @property
    def generators(self) -> Tuple[PauliString, ...]:
        return tuple(self._gens)

    @property
    def width(self) -> int:
        return len(self._active)

    @property
    def is_pure(self) -> bool:
        return len(self._gens) == len(self._active)

    def check(self) -> None:
        """Assert the structural invariants; raises FrameError on violation."""
        if len(self._gens) > len(self._active):
            raise FrameError("more generators than live qubits")
        act = set(self._active)
        for g in self._gens:
            if not g.is_hermitian:
                raise FrameError(f"generator {g} has non-real phase")
            if g.is_identity:
                raise FrameError("identity generator")
            if not set(g.support) <= act:
                raise FrameError(f"generator {g} touches inactive qubits")
        for i, a in enumerate(self._gens):
            for b in self._gens[i + 1:]:
                if not a.commutes_with(b):
                    raise FrameError(f"generators {a} and {b} anticommute")

    # -- state evolution --------------------------------------------------------

    def emit_qubit(self, index: int) -> None:
        """Append qubit ``index`` in |+> and entangle it to its predecessor.

        The entangling step is the controlled-Z conjugation specialised to a
        fresh target: existing generators with X or Y on the predecessor gain
        a Z on the new qubit, and the new generator is Z(prev) X(new).
        """
        index = int(index)
        if self._active:
            prev = self._active[-1]
            if index != prev + 1:
                raise FrameError(f"emit must extend the chain: got {index} after {prev}")
            zt = PauliString.single(_Z, index)
            for i, g in enumerate(self._gens):
                if g.letter(prev) in (_X, _Y):
                    self._gens[i] = g * zt
            self._gens.append(PauliString({prev: _Z, index: _X}))
        else:
            self._gens.append(PauliString.single(_X, index))
        self._active.append(index)

    def apply_pauli(self, p: PauliString) -> None:
        """Conjugate the state by a Pauli error; flips anticommuting signs."""
        if not set(p.support) <= set(self._active):
            raise FrameError(f"error {p} touches inactive qubits")
        for i, g in enumerate(self._gens):
            if not g.commutes_with(p):
                self._gens[i] = g.negated()

    def measure(self, qubit: int, basis: LetterLike,
                coin: Optional[float] = None) -> int:
        """Projective measurement of one qubit; returns +1 or -1.

        A basis operator inside +/- the stabilizer group gives a
        deterministic outcome and leaves the state unchanged; otherwise the
        outcome is a fair coin and the group is updated in place.  The
        measured qubit stays live until :meth:`delete` / :meth:`finalize`.
        """
        qubit = int(qubit)
        lb = _as_letter(basis)
        if lb is _I:
            raise FrameError("measurement basis must be X, Y or Z")
        if qubit not in self._active:
            raise FrameError(f"qubit {qubit} is not live")
        m = PauliString.single(lb, qubit)
        anti = [i for i, g in enumerate(self._gens) if not g.commutes_with(m)]
        if anti:
            outcome = _coin_outcome(coin)
            pivot = self._gens[anti[0]]
            for i in anti[1:]:
                self._gens[i] = self._gens[i] * pivot
            self._gens[anti[0]] = m.with_phase(outcome)
            return outcome
        expressed = self._express(m)
        if expressed is None:
            # The basis direction is unconstrained (mixed): project onto it.
            outcome = _coin_outcome(coin)
            self._gens.append(m.with_phase(outcome))
            return outcome
        return expressed

    def expectation(self, p: PauliString) -> int:
        """Exact expectation of a Hermitian Pauli string: +1, -1 or 0."""
        if not p.is_hermitian:
            raise FrameError("expectation needs a Hermitian string")
        if any(not g.commutes_with(p) for g in self._gens):
            return 0
        expressed = self._express(p)
        return 0 if expressed is None else expressed

    def delete(self, qubit: int) -> None:
        """Remove a disentangled qubit from the window.

        Every generator touching the qubit is reduced using a stabilizer of
        the form +/-B(qubit), which must exist (it does after a measurement
        of that qubit).  Deleting an entangled qubit raises.
        """
        qubit = int(qubit)
        if qubit not in self._active:
            raise FrameError(f"qubit {qubit} is not live")
        if any(g.letter(qubit) is not _I for g in self._gens):
            h = None
            for lb in (_Z, _X, _Y):
                s = self._express(PauliString.single(lb, qubit))
                if s is not None:
                    h = PauliString.single(lb, qubit, phase=s)
                    break
            if h is None:
                raise FrameError(f"qubit {qubit} is still entangled; measure it first")
            reduced = []
            for g in self._gens:
                if g.letter(qubit) is not _I:
                    g = g * h
                if g.is_identity:
                    if g.phase != 1:
                        raise FrameError("inconsistent group: -identity generated")
                    continue
                if g.letter(qubit) is not _I:
                    raise FrameError(f"qubit {qubit} is still entangled; measure it first")
                reduced.append(g)
            self._gens = reduced
        self._active.remove(qubit)

    def finalize(self, qubit: int, basis: LetterLike,
                 coin: Optional[float] = None) -> int:
        """Measure then delete: the destructive detection of one photon."""
        outcome = self.measure(qubit, basis, coin)
        self.delete(qubit)
        return outcome

    def trace_out(self, qubit: int, coin: Optional[float] = None) -> None:
        """Loss of a photon: measure in Z, forget the outcome, drop the qubit.

        Sampling the forgotten outcome reproduces the traced-out reduced
        state exactly, trajectory by trajectory, while keeping the frame
        description pure and small.
        """
        self.measure(qubit, _Z, coin)
        self.delete(qubit)

    def single_qubit_state(self, qubit: int) -> Optional[Tuple[PauliLetter, int]]:
        """(letter, sign) if the qubit is in a pure eigenstate factor, else None.

        A qubit factors out exactly when some +/-B(qubit) lies in the
        group, so this asks :meth:`_express` rather than trusting the
        current generator representation to be reduced.
        """
        qubit = int(qubit)
        if qubit not in self._active:
            raise FrameError(f"qubit {qubit} is not live")
        for lb in (_X, _Y, _Z):
            sign = self._express(PauliString.single(lb, qubit))
            if sign is not None:
                return (lb, sign)
        return None

    # -- internals ----------------------------------------------------------------

    def _express(self, m: PauliString) -> Optional[int]:
        """Solve prod(subset of generators) == +/-m over GF(2); return the sign.

        Returns None when m's letter pattern is not in the group.
        """
        pos = {q: i for i, q in enumerate(self._active)}
        n = len(self._active)

        def bits(p: PauliString) -> int:
            v = 0
            for site, lt in p.letters.items():
                i = pos[site]
                if lt in (_X, _Y):
                    v |= 1 << (2 * i)
                if lt in (_Z, _Y):
                    v |= 1 << (2 * i + 1)
            return v

        rows = [bits(g) for g in self._gens]
        combos = [1 << i for i in range(len(rows))]
        target, tcombo = bits(m), 0
        for col in range(2 * n):
            mask = 1 << col
            pivot = next((i for i in range(len(rows)) if rows[i] & mask), None)
            if pivot is None:
                continue
            prow, pcombo = rows.pop(pivot), combos.pop(pivot)
            for i in range(len(rows)):
                if rows[i] & mask:
                    rows[i] ^= prow
                    combos[i] ^= pcombo
            if target & mask:
                target ^= prow
                tcombo ^= pcombo
        if target:
            return None
        prod = PauliString.identity()
        for i, g in enumerate(self._gens):
            if tcombo & (1 << i):
                prod = prod * g
        if prod.letters != m.letters:
            raise FrameError("internal: GF(2) solution does not reproduce letters")
        ratio = prod.phase / m.phase
        if ratio == 1:
            return 1
        if ratio == -1:
            return -1
        raise FrameError(f"internal: non-real sign {ratio} for {m}")

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self._gens)
        return f"<StabilizerFrame qubits={self._active} gens=[{gens}]>"
