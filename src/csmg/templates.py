"""Detection-basis templates and the sliding-window record scanner.

A template is a short pattern of required detection bases.  Wherever the
pattern occurs in a click record, the product of the matched outcomes
estimates a multi-qubit stabilizer correlator of the emitted chain, and
the sign statistics of that product bound the entanglement surviving
between the template's two endpoint photons.

Two families are provided.  Gamma1(l) needs only Z and Y detections and
certifies a (Z, Y) endpoint pair at separation l; Gamma2(l) adds X
detections and certifies an (X, X) pair.  Both exist for l >= 2 with
l = 2 (mod 3), and both are, by construction, products of chain
generators, so on a noiseless record every matched window must come out
+1.  ``verify_template`` checks exactly that, first algebraically and
then on a short simulated stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .pauli import PauliString
from .recordio import (BASIS_NONE, BASIS_X, BASIS_Y, BASIS_Z, ClickRecord,
                       RecordFile)

# a slot holds the basis code a record byte carries in ``byte >> 1``, so
# the scan compares record bytes with slots directly
SLOT_FREE, SLOT_X, SLOT_Y, SLOT_Z = BASIS_NONE, BASIS_X, BASIS_Y, BASIS_Z
_SLOT_NAMES = ("_", "X", "Y", "Z")

# Window starts per scan block: enough to amortise the per-block trie walk,
# few enough that a block's arrays stay near a 2 MiB L2 cache.
_DEFAULT_CHUNK = 1 << 19
# A trie node's starts turn from a boolean mask into an index array once
# fewer than one window start in _SPARSE_RATIO survives.
_SPARSE_RATIO = 64
# Dense masks made with a scan range's block buffer, for trie depths 2 to
# 1 + _MASK_ROWS.  Each required slot keeps about a third of the starts
# or fewer, so masks turn sparse within a few depths: on the benchmarks'
# records no dense AND runs deeper than depth 4.
_MASK_ROWS = 4


# A family's slots are head + period * k + tail with k = (l - 2) / 3, and
# its certified pair is slots (first, first + l):  head, period, tail, first
_FORMS = {"Gamma1": ("ZYY", "_YY", "Z", 0),
          "Gamma2": ("ZX", "_YY", "_XZ", 1)}
FAMILIES = tuple(_FORMS)
MODES = ("all", "greedy")


class TemplateVerificationError(Exception):
    """A template failed its algebraic or simulated self-check."""


def certifiable_lengths(l_max: int) -> List[int]:
    """Separations the template families support: l >= 2, l = 2 (mod 3)."""
    return [l for l in range(2, l_max + 1) if l % 3 == 2]


def _check_length(l: int) -> None:
    if l < 2 or l % 3 != 2:
        raise ValueError(f"separation {l} is not supported "
                         f"(need l >= 2, l = 2 mod 3)")


def check_family(family: str) -> str:
    """The family's name; rejects a name not in FAMILIES."""
    if family not in FAMILIES:  # a tuple test, so any input gets ValueError
        raise ValueError(f"unknown template family {family!r}")
    return family


def _checked(family: str, l: int) -> str:
    """The family's name; rejects an unknown family or l."""
    check_family(family)
    _check_length(l)
    return family


def check_scan(mode: str, stride: int, threads: int) -> None:
    """The scan settings' rules: a mode in MODES, stride and threads >= 1."""
    if mode not in MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, MODES))}, "
                         f"got {mode!r}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")


def _pattern_counts(pattern: str) -> Tuple[int, int, int, int]:
    """(#X, #Y, #Z, flip-sensitive pairs) of a slot pattern.  A pair error
    Z(i)Z(i+1) flips a matched window's sign exactly when one of the two
    photons sits on an X or Y slot and the other does not (a Z or free
    slot, or a photon outside the window)."""
    anti = [c in "XY" for c in f"_{pattern}_"]
    return (pattern.count("X"), pattern.count("Y"), pattern.count("Z"),
            sum(a != b for a, b in zip(anti, anti[1:])))


def slot_counts(family: str, l: int) -> Tuple[int, int, int, int]:
    """(#X, #Y, #Z, flip-sensitive pairs) of the family's template at l,
    in O(1): each count is affine in the number k of periods, so it is read
    off the two shortest patterns, k = 0 and 1, and no template is built."""
    head, period, tail, _ = _FORMS[_checked(family, l)]
    c0, c1 = _pattern_counts(head + tail), _pattern_counts(head + period + tail)
    k = (l - 2) // 3
    return tuple(a + k * (b - a) for a, b in zip(c0, c1))


def template_id(family: str, l: int) -> str:
    """``make_template(family, l).id``, without building the template."""
    return f"{_checked(family, l)}(l={l})"


@dataclass(frozen=True)
class Template:
    """One basis pattern: slot codes over a window of consecutive photons.

    A template is named by its family and its l; ``make_template`` reads
    its slots from the family's ``_FORMS`` row, and its counts come from
    ``slot_counts(family, l)``.  ``slots[p]`` is SLOT_FREE when photon p
    of the window may carry any byte (detected in any basis, or lost) and
    a basis code otherwise.
    """

    family: str
    l: int
    slots: Tuple[int, ...]

    @property
    def id(self) -> str:
        return template_id(self.family, self.l)

    @property
    def span(self) -> int:
        return len(self.slots)

    @property
    def pattern(self) -> str:
        return "".join(_SLOT_NAMES[c] for c in self.slots)

    @property
    def required(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((p, c) for p, c in enumerate(self.slots) if c != SLOT_FREE)

    @property
    def pair_positions(self) -> Tuple[int, int]:
        """The two slots whose photons the matched correlator certifies;
        they sit exactly ``l`` emissions apart."""
        first = _FORMS[self.family][3]
        return first, first + self.l


def make_template(family: str, l: int) -> Template:
    head, period, tail, _ = _FORMS[_checked(family, l)]
    pattern = head + period * ((l - 2) // 3) + tail
    return Template(family, l, tuple(map(_SLOT_NAMES.index, pattern)))


def template_k_product(template: Template) -> PauliString:
    """The chain stabilizer with the template's X part.

    The product of K_p = Z(p-1) X(p) Z(p+1) over the X and Y slots p, in
    increasing order.  A chain stabilizer carries X or Y exactly on the
    sites of the generators it is made of, so this is the one stabilizer
    the template can measure: it does when the product's letters are the
    slots' and its phase is +1.  The generators are not cut at the window
    edge, so an X or Y slot there leaves a Z outside the window, which no
    slot matches.
    """
    product = PauliString.identity()
    for p, c in template.required:
        if c in (SLOT_X, SLOT_Y):
            product = product * PauliString({p - 1: "Z", p: "X", p + 1: "Z"})
    return product


def verify_template_algebra(template: Template) -> None:
    """Check the template against its own generator product: the product
    must have phase +1 and exactly the template's slot letters."""
    product = template_k_product(template)
    if product.phase != 1:
        raise TemplateVerificationError(
            f"{template.id}: generator product has phase {product.phase}, "
            "expected +1")
    expected = {p: _SLOT_NAMES[c] for p, c in template.required}
    actual = {site: letter.value for site, letter in product.letters.items()}
    if actual != expected:
        raise TemplateVerificationError(
            f"{template.id}: generator product letters {actual} do not "
            f"match slots {expected}")


def verify_template_stream(template: Template, *, windows: int = 256) -> None:
    """Check the template on a simulated noiseless forced-basis stream.

    Every aligned window must match and every match must come out +1.
    """
    if windows < 1:
        raise ValueError("windows must be >= 1")
    from .stream import ExperimentConfig, simulate

    schedule = np.array(
        [c - 1 if c != SLOT_FREE else SLOT_Z - 1 for c in template.slots],
        dtype=np.uint8)
    forced = np.tile(schedule, windows)
    cfg = ExperimentConfig(n_photons=template.span * windows, seed=2026,
                           p_d=1.0, burn_in=0)
    record = simulate(cfg, forced_bases=forced)
    est = scan(record, [template], mode="all", stride=template.span)[0]
    if est.match_count != windows:
        raise TemplateVerificationError(
            f"{template.id}: matched {est.match_count} of {windows} "
            f"aligned windows on a forced-basis stream")
    if est.signed_sum != windows:
        raise TemplateVerificationError(
            f"{template.id}: noiseless stream gave signed sum "
            f"{est.signed_sum}, expected +{windows}")


def verify_template(template: Template, *, windows: int = 256) -> None:
    """Self-check a template; raises TemplateVerificationError on failure.

    Algebraic half: the generator product must have phase +1 and exactly
    the template's slot letters.  Simulated half: a noiseless lossless
    stream detected in the template's own basis schedule must match at
    every aligned window, and every match must come out +1.
    """
    verify_template_algebra(template)
    verify_template_stream(template, windows=windows)


# ---------------------------------------------------------------------------
# Scanning.

@dataclass
class CorrelatorEstimate:
    """Match statistics for one template over one record.

    ``signed_sum`` is the exact integer sum of matched window products, so
    estimates merge across chunks and threads without rounding.
    ``overlap_fraction`` is the fraction of matches starting within
    span - 1 photons of the previous match; overlapping windows share
    photons and are therefore correlated samples.
    """

    family: str
    l: int
    match_count: int
    signed_sum: int
    overlap_fraction: float

    @property
    def template_id(self) -> str:
        return template_id(self.family, self.l)

    @property
    def mean(self) -> float:
        if self.match_count == 0:
            return math.nan
        return self.signed_sum / self.match_count

    @property
    def stderr(self) -> float:
        if self.match_count == 0:
            return math.inf
        return math.sqrt(max(0.0, 1.0 - self.mean ** 2) / self.match_count)


class _Accumulator:
    __slots__ = ("count", "parity", "overlaps", "first_o", "last_o",
                 "greedy_next")

    def __init__(self, greedy_start: int) -> None:
        self.count = 0
        self.parity = 0
        self.overlaps = 0
        self.first_o: Optional[int] = None
        self.last_o: Optional[int] = None
        self.greedy_next = greedy_start

    def merge(self, other: "_Accumulator", span: int) -> None:
        self.count += other.count
        self.parity += other.parity
        self.overlaps += other.overlaps
        if other.first_o is not None:
            if self.last_o is not None and other.first_o - self.last_o < span:
                self.overlaps += 1
            if self.first_o is None:
                self.first_o = other.first_o
            self.last_o = other.last_o


def _consume_block(acc: _Accumulator, span: int, offsets: np.ndarray,
                   parities: np.ndarray, mode: str) -> None:
    """Tally one block's matched window starts, given in increasing order.

    Greedy mode keeps the first start at or past ``acc.greedy_next``, then
    repeatedly the first start at or past the last kept one plus ``span``:
    the orbit of that first start under the successor map ``jump[i] =
    first j with offsets[j] >= offsets[i] + span``.  That first start, and
    every start at least ``span`` past the start before it, is always
    kept, since the last kept start before it is at or before that
    predecessor.  Between two always-kept starts lies a run of close
    starts; the orbit through a run leaves from the always-kept start
    before it, the run's seed, and cannot jump past the one after it.
    Pointer doubling (Wyllie 1979) walks every run's orbit at once, in
    O(log r) vector rounds for a longest run of r starts: while the kept
    set holds the first 2**m steps of each orbit and ``jump`` is the map
    applied 2**m times, one round adds ``jump`` of the kept set and
    squares ``jump``.  A jump out of its run goes to a sentinel that maps
    to itself.  ``acc.greedy_next`` carries the block's last kept start
    plus ``span`` into the next block.
    """
    if offsets.shape[0] == 0:
        return
    if mode == "greedy":
        i0 = int(np.searchsorted(offsets, acc.greedy_next, side="left"))
        offsets, parities = offsets[i0:], parities[i0:]
        k = offsets.shape[0]
        if k == 0:
            return
        # close[i]: start i lies within span of start i - 1 (never i = 0, k)
        close = np.zeros(k + 1, dtype=bool)
        np.less(np.diff(offsets), span, out=close[1:k])
        keep = ~close[:k]
        run = np.flatnonzero(close[:k] | close[1:])
        if run.shape[0]:
            # a run's starts are consecutive in ``run`` as in ``offsets``,
            # so a jump within a run moves both indices by the same step
            c = run.shape[0]
            to = np.searchsorted(offsets, offsets[run] + span, side="left")
            jump = np.empty(c + 1, dtype=np.intp)
            jump[:c] = np.where(close[to], np.arange(c) + (to - run), c)
            jump[c] = c
            seeds = np.flatnonzero(~close[run])
            hit = np.zeros(c + 1, dtype=bool)
            hit[seeds] = True
            while (jump[seeds] != c).any():
                hit[jump[hit]] = True
                jump = jump[jump]
            keep[run[hit[:c]]] = True
        acc.count += int(np.count_nonzero(keep))
        acc.parity += int(parities[keep].sum(dtype=np.int64))
        if acc.first_o is None:
            acc.first_o = int(offsets[0])
        acc.last_o = int(offsets[k - 1 - int(np.argmax(keep[::-1]))])
        acc.greedy_next = acc.last_o + span
        return
    acc.count += int(offsets.shape[0])
    acc.parity += int(parities.sum(dtype=np.int64))
    if acc.last_o is not None:
        gaps = np.diff(offsets, prepend=acc.last_o)
    else:
        gaps = np.diff(offsets)
        acc.first_o = int(offsets[0])
    acc.overlaps += int(np.count_nonzero(gaps < span))
    acc.last_o = int(offsets[-1])


class _TrieNode:
    __slots__ = ("children", "ends")

    def __init__(self) -> None:
        self.children: Dict[Tuple[int, int], "_TrieNode"] = {}
        self.ends: List[int] = []


def _trie(templates: Sequence[Template]) -> _TrieNode:
    """The trie of the templates' required (position, basis) slots.

    Templates that start with the same run of required slots share that
    run's trie path and so its work: Gamma1(l + 3) is Gamma1(l) with one
    more ``_YY`` period before its closing Z, and Gamma2 nests the same
    way.  A node's ``ends`` lists the templates whose last required slot
    leads to it.
    """
    root = _TrieNode()
    for t, template in enumerate(templates):
        node = root
        for key in template.required:
            node = node.children.setdefault(key, _TrieNode())
        node.ends.append(t)
    return root


def _scan_range(record: ClickRecord | RecordFile,
                templates: Sequence[Template], root: _TrieNode, o_lo: int,
                o_hi: int, anchor: int, stride: int, mode: str,
                chunk_size: int) -> List[_Accumulator]:
    """Walk the trie over window starts [o_lo, o_hi), block by block.

    Each block's bytes, with the halo of span - 1 that its last windows
    reach into, are copied by ``record.read`` into a buffer made once per
    range, and its basis codes, per-basis masks and dense masks go to
    buffers made with it, so a scan of any record holds a few blocks'
    worth of memory and makes no block-sized array per block.  A dense
    mask is made for a trie depth only once an AND at that depth needs
    one, so a template's length does not size the buffers.

    Within a block the walk is depth first on an explicit stack, so a
    template of any length needs no recursion.  A node's starts are the
    block's window starts that pass every slot on its path (None at the
    root: every start).  A child's starts keep those of its parent whose
    photon ``pos`` was detected in basis ``code``: a boolean mask, ANDed
    with a shifted view of ``bas == code``, or, once fewer than one start
    in _SPARSE_RATIO is left, a sorted index array filtered by gathering.
    They are made when the child is popped, not when it is pushed, so one
    mask per trie depth is enough: a sibling popped later overwrites a
    node's mask only once the node's subtree is done.  Holding every
    pending sibling's mask cost about 14% of the greedy_lossless
    benchmark's photons/s on a 2-core Xeon.  A node that keeps no start ends its
    subtree: its descendants' starts are subsets of its own, so none of
    its ends is tallied and none of its children is walked.  On the
    rescan_l50 benchmark's record (p_d 0.5, the l <= 50 grid) that leaves
    about 31 of the 119 edges walked per block, 4 of them dense.
    The outcome parity is gathered only at the matches a template reports.
    """
    n = len(record)
    spans = [t.span for t in templates]
    positions = [np.array([p for p, _ in t.required], dtype=np.intp)
                 for t in templates]
    halo = max(spans) - 1
    accs = [_Accumulator(o_lo) for _ in templates]
    size = min(chunk_size, o_hi - o_lo) + halo
    # One allocation holds the block, its basis codes, a mask per basis
    # and _MASK_ROWS dense masks (depth 1 reads the basis masks).  glibc
    # returns free heap memory to the system once more than twice its
    # mmap threshold is free, and raises that threshold to the largest
    # mapped block freed, so after two scans this block stays in the
    # heap.  Six 512 KiB buffers freed together passed that limit on
    # every scan: about 770 pages were faulted in again per rescan_l50
    # scan, about 4 of its 45 ms on a 2-core Xeon VM.
    rows = np.empty((5 + _MASK_ROWS, size), dtype=np.uint8)
    block_buf, bas_buf = rows[0], rows[1]
    hit_bufs = {code: rows[1 + code].view(bool)
                for code in (SLOT_X, SLOT_Y, SLOT_Z)}
    # masks[d - 2] for trie depth d; a deeper dense AND appends its own,
    # kept to the end of the range
    masks = list(rows[5:].view(bool))
    for s0 in range(o_lo, o_hi, chunk_size):
        s1 = min(s0 + chunk_size, o_hi)
        width = s1 - s0
        block = block_buf[:width + halo]
        filled = min(s1 + halo, n) - s0
        record.read(s0, block[:filled])
        # the last blocks are padded so every slot view has full width;
        # starts whose window passes the end are cut at ``limit``
        block[filled:] = 0
        bas = np.right_shift(block, 1, out=bas_buf[:width + halo])
        hits = {}
        # (edge into node, node, its parent's starts, node depth)
        stack: List[tuple] = [(None, root, None, 0)]
        while stack:
            key, node, cur, depth = stack.pop()
            if key is not None:
                pos, code = key
                if cur is not None and cur.dtype != bool:
                    cur = cur[bas[cur + pos] == code]
                    if cur.shape[0] == 0:
                        continue
                else:
                    hit = hits.get(code)
                    if hit is None:
                        hit = hits[code] = np.equal(
                            bas, code, out=hit_bufs[code][:width + halo])
                    sel = hit[pos:pos + width]
                    if cur is not None:
                        while len(masks) <= depth - 2:
                            masks.append(np.empty(size, dtype=bool))
                        sel = np.bitwise_and(sel, cur,
                                             out=masks[depth - 2][:width])
                    alive = np.count_nonzero(sel)
                    if alive == 0:
                        continue
                    if alive * _SPARSE_RATIO < width:
                        sel = np.flatnonzero(sel)
                    cur = sel
            for t in node.ends:
                limit = min(s1, n - spans[t] + 1) - s0
                if limit <= 0:
                    continue
                if cur is None:
                    idx = np.arange(limit)
                elif cur.dtype == bool:
                    idx = np.flatnonzero(cur[:limit])
                else:
                    idx = cur[:np.searchsorted(cur, limit)]
                if stride > 1:
                    idx = idx[(idx + (s0 - anchor)) % stride == 0]
                # the low bit of the XOR of the bytes is the XOR of their
                # signs; gathered slot-major, the XOR runs along the matches
                window = block[positions[t][:, None] + idx]
                parities = np.bitwise_xor.reduce(window, axis=0) & 1
                _consume_block(accs[t], spans[t], s0 + idx, parities, mode)
            for key, child in node.children.items():
                stack.append((key, child, cur, depth + 1))
    return accs


def scan(record: ClickRecord | RecordFile, templates: Sequence[Template], *,
         mode: str = "all", stride: int = 1,
         chunk_size: int = _DEFAULT_CHUNK,
         threads: int = 1) -> List[CorrelatorEstimate]:
    """Slide every template over the record and tally matched windows.

    ``mode="all"`` counts every match (default); ``mode="greedy"`` keeps
    only matches that do not overlap a previously kept one, giving
    independent samples at the cost of statistics.  Window starts begin
    at the record's burn_in, and ``stride`` restricts them to burn_in,
    burn_in + stride, ...; a stride of any size is taken, and one at
    least as long as the run of window starts selects burn_in alone.

    All templates are matched in one pass over the record, ``chunk_size``
    window starts at a time, each block copied out by ``record.read``:
    from memory for a ``ClickRecord``, through the file for a
    ``RecordFile``.  Templates that begin with the same required slots
    share the work for them: the scan walks a trie of the
    templates' required (position, basis) slots, so the l <= 50 grid
    takes at most 119 trie edges per block where one template at a time
    would take 680 slot tests.  A subtree ends where no window start of
    the block survives; on a 10^7-photon record at p_d 0.5 about 31 edges
    per block are walked.
    ``threads > 1`` splits the window starts into that many contiguous
    ranges, scanned concurrently and joined in order.  Greedy mode runs
    as one range, its kept matches computed per block by pointer doubling
    (see ``_consume_block``), so ``threads`` is ignored there.  Counts,
    signed sums and overlap fractions are bit-identical for any ``chunk_size``
    and ``threads``.
    """
    check_scan(mode, stride, threads)
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    anchor = record.burn_in
    templates = list(templates)
    if not templates:
        return []
    spans = [t.span for t in templates]
    o_hi = len(record) - min(spans) + 1
    if o_hi <= anchor:
        return [_estimate_from(t, _Accumulator(anchor)) for t in templates]
    # every stride of at least o_hi - anchor selects the burn-in start
    # alone; capped, the int64 modulus in _scan_range cannot overflow
    stride = min(stride, o_hi - anchor)
    root = _trie(templates)
    if mode == "greedy":
        threads = 1
    bounds = np.linspace(anchor, o_hi, threads + 1).astype(np.int64)
    ranges = [(int(a), int(b)) for a, b in zip(bounds, bounds[1:]) if b > a]

    def run(o_range: Tuple[int, int]) -> List[_Accumulator]:
        return _scan_range(record, templates, root, *o_range, anchor,
                           stride, mode, chunk_size)

    if len(ranges) == 1:
        parts = [run(ranges[0])]
    else:
        # imported here: concurrent.futures loads logging, and a
        # single-range scan never needs the pool
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            parts = list(pool.map(run, ranges))
    totals = parts[0]
    for part in parts[1:]:
        for total, acc, span in zip(totals, part, spans):
            total.merge(acc, span)
    return [_estimate_from(t, a) for t, a in zip(templates, totals)]


def _estimate_from(template: Template, acc: _Accumulator) -> CorrelatorEstimate:
    overlap = acc.overlaps / acc.count if acc.count else 0.0
    return CorrelatorEstimate(
        family=template.family,
        l=template.l,
        match_count=acc.count,
        signed_sum=acc.count - 2 * acc.parity,
        overlap_fraction=overlap,
    )
