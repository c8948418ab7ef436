"""Direct residue implementation of the correlator recursion.

Correlators are stored through their coefficient tensors
F[g,n][(a1,k1),...,(an,kn)] = contraction of the (g,n) correlator with the
coefficient-extraction cycles B[(a,k)].  The recursion computes, for a new
distinguished variable contracted with B[(a,k0)],

    F[g,n+1][(a,k0), S] =
      - sum over orders k, Galois subsets, slot partitions and block data of
        Res_{z->a} (z^k0 / k0) * product(blocks) / product(y - sigma_j* y)

where blocks carry lower correlators (re-expanded through the kernel map),
explicit bilinear-kernel bridges between two slots, or contracted kernel
legs for spectator variables.  The sum runs over the terms themselves, not
over candidate entries: each block is a map from its spectator multiset to
its series, the Cartesian product of the blocks' maps lists every term that
can be nonzero, and one kernel product per term yields the whole k0 row.
A correlator block is contracted with the rotated basis forms one slot at
a time (``OmegaTable.table_block``): partial sums over the entries meet each
distinct remaining index, so no slot ordering is formed twice.

Nor is an order-2 term formed with its twin.  The twin of the term with
slot rotations (0, j) and blocks A, B on slots 0, 1 has rotations
(0, r - j) and B, A; the deck rotation z -> rho^-j z maps one residue onto
the other, so twin[k0] = -rho^(j k0) * term[k0].  This is a change of
variables, so it holds over every coefficient ring and for any times.
One term of each pair is formed and its column scaled by 1 - rho^(j k0)
(``_kernel_terms`` names j).  At a simple point the factor is 0 at even
k0, and a term that is its own twin vanishes there too: table indices at
simple points are odd on every curve.
All arithmetic is exact; windows are asserted at every coefficient
extraction.

Each table takes its own residues: the fill, the Airy tensors and the
higher verifier share its cached factors and blocks, and ``set_entry``
drops the blocks of the level it changes.

Before a term's product is formed, ``OmegaTable.reaches`` rejects it when its
exact supports cannot meet the column: up to z^-2 the product's exponents
lie in the Minkowski sum of the supports of its factors and of the
denominator inverses (at the order the product uses), and the column
reads z^(-1-k0) for k0 = 1 .. reach.  On monomial curves this enforces the
r-spin degree condition, and on the monomial and two-point test curves no
all-zero product is left.  A truncated piece counts as full above its
ceiling, so the guard never hides a precision failure.  The guard sits in
the term loop, not in ``kernel_contract``: the tensor builders and
verifiers that share ``kernel_contract`` are unaffected, and the unpruned
test reference, which calls it directly, stays an unguarded check of the
guard.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .curves import CurveData
from .cycles import bhat, gamma
from .errors import PrecisionError, UnsupportedError
from .series import FORM, LaurentSeries


class OmegaTable:
    """Sparse symmetric tensors F[g,n], indexed by local-cycle labels, and
    the kernel residues that fill and read them.  The residue factors are
    cached per curve, the blocks per level until ``set_entry`` changes
    it."""

    def __init__(self, curve: CurveData, chi_max: int = 0):
        self.curve = curve
        self.field = curve.field
        self.chi_max = chi_max
        self.tables = {}   # (g, n) -> {sorted tuple of (label,k): scalar}
        self._denom = {}      # (label, j, order) -> inverse series
        self._basis = {}      # e -> kernel map of Gamma_e (a LocalForm)
        self._rot = {}        # (at_label, e, j) -> rotated series, j >= 0
        self._bridge = {}     # (label, jp, jq) -> weight-2 series
        self._leg = {}        # (label, k_spec, j) -> rotated monomial
        self._slice = {}      # (gb, mb) -> {(label, rotations): block map}

    def set_entry(self, g: int, n: int, indices, value) -> None:
        key = tuple(sorted(indices))
        if len(key) != n:
            raise ValueError("index tuple length must equal n")
        self._slice.pop((g, n), None)
        tab = self.tables.setdefault((g, n), {})
        if value:
            tab[key] = value
        else:
            tab.pop(key, None)

    def get(self, g: int, n: int, indices):
        tab = self.tables.get((g, n))
        if tab is None:
            return self.field.zero()
        return tab.get(tuple(sorted(indices)), self.field.zero())

    def entries(self, g: int, n: int) -> dict:
        return self.tables.get((g, n), {})

    # -- factor builders -------------------------------------------------
    def denom_inv(self, label: str, j: int, order: int) -> LaurentSeries:
        key = (label, j, order)
        got = self._denom.get(key)
        if got is None:
            got = self._denom[key] = \
                self._difference(label, j).inverse(order)
        return got

    def _difference(self, label: str, j: int) -> LaurentSeries:
        """y - sigma_j* y at ``label``, as the 1-form omega01 - sigma_j*."""
        w01 = self.curve.omega01(label)
        return w01 - w01.rotate(self.curve.order(label), j)

    def rotated_basis(self, at_label: str, e: tuple, j: int) -> LaurentSeries:
        """sigma_j^* of the kernel map of Gamma_e, expanded at ``at_label``."""
        key = (at_label, e, j)
        got = self._rot.get(key)
        if got is None:
            if e not in self._basis:
                self._basis[e] = bhat(gamma(self.curve, *e), self.curve)
            got = self._rot[key] = self._basis[e].at(at_label).rotate(
                self.curve.order(at_label), j)
        return got

    def leg(self, label: str, k_spec: int, j: int) -> LaurentSeries:
        """Contracted bilinear-kernel leg: sigma_j^*(z^(k-1) dz)."""
        key = (label, k_spec, j)
        got = self._leg.get(key)
        if got is None:
            r = self.curve.order(label)
            got = LaurentSeries.monomial(self.field, k_spec - 1,
                                         weight=FORM).rotate(r, j)
            self._leg[key] = got
        return got

    def bridge(self, label: str, jp: int, jq: int) -> LaurentSeries:
        """omega02 with both slots on the kernel point: B(s_p z, s_q z)."""
        key = (label, jp, jq)
        got = self._bridge.get(key)
        if got is not None:
            return got
        fld = self.field
        r = self.curve.order(label)
        rp, rq = fld.root(r, jp), fld.root(r, jq)
        diff = rp - rq
        if not diff:
            raise ValueError("bridge needs distinct rotations")
        pref = (rp * rq) / (diff * diff)
        d = {-2: pref}
        hi = None if self.curve.is_purely_local else self.curve.tail_hi()
        if not self.curve.is_purely_local:
            for (i, jdx), v in self.curve.phi.items():
                pairs = []
                if i[0] == label and jdx[0] == label:
                    pairs.append((i[1], jdx[1]))
                    if i != jdx:
                        pairs.append((jdx[1], i[1]))
                for (k, m) in pairs:
                    ex = k + m - 2
                    if hi is not None and ex > hi:
                        # the diagonal coefficient there would need pairs
                        # beyond the stored truncation square
                        continue
                    rot = fld.root(r, jp * k + jq * m)
                    d[ex] = d.get(ex, fld.zero()) + v * rot
        got = LaurentSeries(fld, d, hi=hi, weight=2)
        self._bridge[key] = got
        return got

    def table_block(self, label: str, gb: int, mb: int,
                    rotations: tuple) -> dict:
        """F[gb,mb] of the table as a kernel block with ``len(rotations)``
        slots at ``label``: {spectator multiset S: sum over slot labels e
        of F[gb,mb][e..., S] * product of rotated basis forms}, nonzero
        series only.  The entries are contracted one slot at a time: each
        partial {rest: series} meets every distinct index e of its rest,
        so every ordering of a slot multiset is met once, and partials
        are summed before the next slot multiplies them.  Only the
        finished block drops zeros: a truncated partial that is zero up
        to its ceiling is unknown above it.  Cached per level until
        ``OmegaTable.set_entry`` changes it (the fill reads only completed
        levels); the value is symmetric in the rotations, so the key
        sorts them."""
        rots = tuple(sorted(rotations))
        level = self._slice.setdefault((gb, mb), {})
        got = level.get((label, rots))
        if got is None:
            partial = self.entries(gb, mb)
            for slot, j in enumerate(rots):
                sums = {}
                for spec, f in partial.items():
                    for e, rest in _drops(spec):
                        if self.curve.is_purely_local and e[0] != label:
                            continue
                        s = self.rotated_basis(label, e, j)
                        piece = s.scale(f) if slot == 0 else s * f
                        sums[rest] = sums[rest] + piece if rest in sums \
                            else piece
                partial = sums
            got = level[label, rots] = {spec: f for spec, f in partial.items()
                                        if not f.is_zero()}
        return got

    # -- the residue core --------------------------------------------------
    def _column(self, label: str, js, factors, k0_max: int | None):
        """(reach, order) of ``kernel_contract``'s column: the largest k0
        the pole order reaches (below 1 when none is, or a factor is
        zero), and the order of the denominator inverses."""
        r = self.curve.order(label)
        lo_f = sum(f.lo for f in factors)
        reach = r * len(js) - 1 - lo_f
        if k0_max is not None:
            reach = min(reach, k0_max)
        if any(f.is_zero() for f in factors):
            reach = 0
        return reach, max(-2 - lo_f + r * (len(js) - 1), -r)

    def reaches(self, label: str, js, factors, k0_max: int | None = None
                ) -> bool:
        """False when ``kernel_contract`` with these arguments can only
        return an all-zero (or empty) column, decided from exact supports:
        the product's exponents up to z^-2 lie in the Minkowski sum of the
        supports of the factors and of the denominator inverses, and the
        column reads z^(-1-k0) for k0 = 1 .. reach.  A truncated piece
        counts as full above its ceiling, so the guard never hides a
        precision failure."""
        reach, order = self._column(label, js, factors, k0_max)
        if reach < 1:
            return False
        pieces = list(factors) + [self.denom_inv(label, j, order) for j in js]
        width = -1 - sum(p.lo for p in pieces)
        if width < 1:
            return False
        window = (1 << width) - 1
        total = 1   # bit i: the product may have a nonzero z^(lo + i)
        for p in pieces:
            bits = sum(1 << (e - p.lo) for e in p.coeffs)
            if p.hi is not None:
                bits |= -1 << (p.hi + 1 - p.lo)
            bits &= window
            grown = 0
            while bits:
                low = bits & -bits
                grown |= total * low
                bits ^= low
            total = grown & window
        return bool(total >> max(width - reach, 0))

    def kernel_contract(self, label: str, js, factors,
                        k0_max: int | None = None) -> dict:
        """-Res_{z->label} (z^k0/k0) * prod(factors) / prod(y - s_j* y)
        for every k0 >= 1 (up to ``k0_max``) that the pole order reaches:
        the contraction of the kernel output with B[(label,k0)].

        ``js``: rotation indices of the kernel slots beyond the first.
        ``factors``: forms at the point, all over one coefficient ring.
        One product, truncated at z^-2, serves the whole column.
        Returns {k0: value}; {} when the residue vanishes structurally
        (an empty factor, or no reachable k0).
        """
        weight = sum(f.weight for f in factors) - len(js)
        if weight != 1:
            raise ValueError(f"kernel integrand has weight {weight}, not 1")
        reach, order = self._column(label, js, factors, k0_max)
        if reach < 1:
            return {}
        ring = factors[0].field
        # denominators last: over HPoly the factor-by-factor products are
        # the costly ones, and this keeps their operands shortest
        pieces = sorted(factors, key=lambda q: len(q.coeffs)) + [
            self.denom_inv(label, j, order).over(ring) for j in js]
        remaining = sum(p.lo for p in pieces)
        prod = None
        for p in pieces:
            remaining -= p.lo
            prod = p if prod is None else prod.mul(p, -2 - remaining)
        return {k0: prod.coeff(-1 - k0) * Fraction(-1, k0)
                for k0 in range(1, reach + 1)}


def _drops(key):
    """(e, key minus one e) for each distinct index e of a sorted key."""
    for i, e in enumerate(key):
        if i == 0 or e != key[i - 1]:
            yield e, key[:i] + key[i + 1:]


def _levels(chi_max):
    """(g, n) of every level 2g - 2 + n = 1 .. chi_max, in fill order."""
    for chi in range(1, chi_max + 1):
        for g in range((chi + 1) // 2 + 1):
            yield g, chi + 2 - 2 * g


def _set_partitions(items):
    """All partitions of a list into nonempty blocks (tuples of tuples)."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield ((first,),) + part
        for i, block in enumerate(part):
            yield part[:i] + (block + (first,),) + part[i + 1:]


def _compositions(total, parts):
    """Nonnegative integer tuples of given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def compute_omega_table(curve: CurveData, chi_max: int) -> OmegaTable:
    """Fill F[g,n] for all 2g-2+n <= chi_max by the residue recursion.

    Each entry is read once, with its smallest index as the distinguished
    one; each level is written in sorted key order.
    """
    if chi_max < 1:
        raise ValueError("chi_max must be >= 1")
    table = OmegaTable(curve, chi_max)
    for g, n1 in _levels(chi_max):
        level = {}
        for label in curve.labels:
            try:
                row = _point_row(table, label, g, n1 - 1)
            except PrecisionError as exc:
                raise PrecisionError(
                    f"insufficient truncation at (g,n)=({g},{n1}), "
                    f"point {label!r}: {exc}") from exc
            level.update({((label, k0),) + spec: value
                          for (k0, spec), value in row.items() if value})
        for key in sorted(level):
            table.set_entry(g, n1, key, level[key])
    return table


def _point_row(table: OmegaTable, label: str, g: int, n: int) -> dict:
    """{(k0, S): F[g,n+1][(label,k0), S]} summed over the kernel terms at
    ``label`` that can be nonzero, with |S| = n and (label,k0) <= min(S).

    A layout (order k, Galois subset, slot partition, block genera and
    spectator counts) with a primary one-form block is dropped before any
    block is built: its other blocks could include F[g,n+1] itself, whose
    slice would be cached while still empty.  The other layouts multiply
    out block maps {S_b: series}.  A term that stands for its twin too
    is summed apart by its twin index and scaled once per entry.
    """
    r = table.curve.order(label)
    rows = {}   # twin index -> {(k0, S): sum of unscaled terms}
    for slot_rot, part, twin in _kernel_terms(r):
        ell = len(part)
        k = len(slot_rot)
        if g - k + ell < 0:
            continue
        for gs in _compositions(g - k + ell, ell):
            for counts in _compositions(n, ell):
                layout = list(zip(part, gs, counts))
                if any(gb == 0 and len(slots) + c == 1
                       for slots, gb, c in layout):
                    continue
                _add_terms(table, label, slot_rot, twin, layout, rows)
    return _fold_twins(table.field, r, rows)


def _kernel_terms(r: int):
    """(slot rotations, slot partition, twin index) of every kernel term at
    a point of order r that is formed: each order k = 2..r, each Galois
    subset of k-1 nontrivial rotations (slot 0 is unrotated), each set
    partition of the k slots.  An order-2 term at rotation j < r - j stands
    for its unlisted twin at r - j (blocks swapped), twin[k0] = -rho^(j k0)
    term[k0], so its index is j: its column takes the factor 1 - rho^(j k0).
    The index is 0 for order k >= 3 and at j = r - j, where only the blocks
    tell twins apart (``_add_terms``)."""
    for k in range(2, r + 1):
        for js in combinations(range(1, r), k - 1):
            if k == 2 and 2 * js[0] > r:
                continue
            twin = js[0] if k == 2 and 2 * js[0] < r else 0
            for part in _set_partitions(list(range(k))):
                yield (0,) + js, part, twin


def _fold_twins(field, r: int, rows: dict) -> dict:
    """{(k0, ...): value} from ``rows`` {j: {(k0, ...): value}}, the sums
    of the terms with each twin index j, each scaled by 1 - rho^(j k0)
    once per entry (row 0 as it is)."""
    out = rows.pop(0, {})
    for j, part in rows.items():
        for key, v in part.items():
            f = field.one() - field.root(r, j * key[0])
            if f:
                got = out.get(key)
                out[key] = v * f if got is None else got + v * f
    return out


def _add_terms(table, label, slot_rot, twin, layout, rows):
    """Add every term of one block layout to ``rows`` {twin index: row}.
    At j = r - j a two-block term and its twin (blocks swapped) are listed
    alike: the one whose blocks' (g, c), then spectator multisets, are
    smaller on slot 0 is formed and takes the factor 1 - rho^(j k0), and
    one whose blocks agree is its own twin."""
    r = table.curve.order(label)
    tie = len(slot_rot) == len(layout) == 2 and not twin
    if tie and layout[0][1:] > layout[1][1:]:
        return
    blocks = [None] * len(layout)
    legs = []
    for b, (slots, gb, c) in enumerate(layout):
        rots = tuple(slot_rot[s] for s in slots)
        if gb == 0 and len(slots) + c == 2:
            if c == 0:
                blocks[b] = {(): table.bridge(label, *rots)}
            else:
                legs.append((b, rots[0]))
        else:
            blocks[b] = table.table_block(label, gb, len(slots) + c, rots)
            if not blocks[b]:
                return
    # the residue reaches k0 = 1 only while the factor orders sum to at
    # most r(k-1) - 2; a block's spare order is what the others' lowest
    # orders leave (a leg z^(k'-1) dz has order k'-1 >= 0), none below 0
    floors = [0 if blk is None else min(f.lo for f in blk.values())
              for blk in blocks]
    spare = r * (len(slot_rot) - 1) - 2 - sum(floors)
    for b, rot in legs:
        blocks[b] = {((label, kp),): table.leg(label, kp, rot)
                     for kp in range(1, spare + 2)}
    blocks = [sorted(((f.lo - floor, spec, f) for spec, f in blk.items()),
                     key=lambda item: item[0])
              for blk, floor in zip(blocks, floors)]
    for combo in _within(blocks, spare):
        j = twin
        if tie:
            sides = [(gb, c, part) for (_, gb, c), (part, _)
                     in zip(layout, combo)]
            if sides[0] > sides[1]:
                continue
            j = slot_rot[1] if sides[0] < sides[1] else 0
        spec = tuple(sorted(x for part, _ in combo for x in part))
        k0_max = None
        if spec:
            if spec[0][0] < label:
                continue
            if spec[0][0] == label:
                k0_max = spec[0][1]
        factors = [f for _, f in combo]
        if not table.reaches(label, slot_rot[1:], factors, k0_max):
            continue
        column = table.kernel_contract(label, slot_rot[1:], factors, k0_max)
        weight = _deal_count([part for part, _ in combo])
        row = rows.setdefault(j, {})
        for k0, v in column.items():
            if v:
                v = v * weight
                got = row.get((k0, spec))
                row[k0, spec] = v if got is None else got + v


def _within(blocks, spare):
    """Choices of one (excess, spec, series) item per block, each block
    sorted by excess, whose excesses sum to at most ``spare``; yields the
    (spec, series) pairs."""
    if not blocks:
        yield ()
        return
    for excess, spec, f in blocks[0]:
        if excess > spare:
            break
        for rest in _within(blocks[1:], spare - excess):
            yield ((spec, f),) + rest


def _deal_count(parts) -> int:
    """Ways to deal distinct spectator variables into blocks so that block
    b receives the labels ``parts[b]``: a multinomial for each label."""
    out = 1
    dealt = {}
    for part in parts:
        for x in set(part):
            c = part.count(x)
            before = dealt.get(x, 0)
            out *= comb(before + c, c)
            dealt[x] = before + c
    return out


def compute_Fg(table: OmegaTable, g: int):
    """The genus-g scalar invariant, from the one-variable correlator."""
    if g < 2:
        raise UnsupportedError(
            "scalar invariants are implemented for genus >= 2 only")
    return _dilaton_sum(table, g, ()) / (2 - 2 * g)


def _dilaton_sum(table: OmegaTable, g: int, key: tuple):
    """sum over the times t_(a,k) of t_(a,k) * F[g,n+1][(a,k), key], with
    n = len(key)."""
    total = table.field.zero()
    for label in table.curve.labels:
        for k, t in table.curve.times(label).items():
            total = total + t * table.get(g, len(key) + 1,
                                          ((label, k),) + key)
    return total

