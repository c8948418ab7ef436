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
legs for spectator variables.  All arithmetic is exact; windows are
asserted at every coefficient extraction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

from .curves import CurveData
from .cycles import LocalForm, bhat, gamma
from .errors import PrecisionError, UnsupportedError
from .series import FORM, LaurentSeries


class OmegaTable:
    """Sparse symmetric tensors F[g,n], indexed by local-cycle labels."""

    def __init__(self, curve: CurveData, chi_max: int = 0):
        self.curve = curve
        self.field = curve.field
        self.chi_max = chi_max
        self.tables = {}   # (g, n) -> {sorted tuple of (label,k): scalar}

    def set_entry(self, g: int, n: int, indices, value) -> None:
        key = tuple(sorted(indices))
        if len(key) != n:
            raise ValueError("index tuple length must equal n")
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

    def gn_list(self):
        return sorted(self.tables)

    def max_index(self, g: int, n: int, label: str) -> int:
        """Largest k appearing at a point in the stored (g,n) support."""
        best = 0
        for key in self.tables.get((g, n), ()):
            for lb, k in key:
                if lb == label and k > best:
                    best = k
        return best

    def local_form(self, g: int, n: int, contracted) -> LocalForm:
        """The (g,n) correlator in one variable, the rest contracted.

        ``contracted``: n-1 labels (a,k); returns sum_e F[e, contracted]
        bhat(Gamma_e) as a LocalForm.
        """
        contracted = tuple(contracted)
        if len(contracted) != n - 1:
            raise ValueError("need n-1 contracted labels")
        out = None
        tab = self.tables.get((g, n), {})
        done = set()
        for key in tab:
            rest = _multiset_diff(key, contracted)
            if rest is None or len(rest) != 1:
                continue
            e = rest[0]
            if e in done:
                continue
            done.add(e)
            v = tab[key]
            piece = bhat(gamma(self.curve, e[0], e[1]), self.curve).scale(v)
            out = piece if out is None else out + piece
        if out is None:
            out = LocalForm(self.curve, {})
        return out


def _multiset_diff(key, part):
    """key minus part as sorted tuple, or None if part is not contained."""
    items = list(key)
    for p in part:
        try:
            items.remove(p)
        except ValueError:
            return None
    return tuple(items)


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


def _integer_partitions(k, largest=None):
    """Partitions of k into nonincreasing positive parts."""
    if largest is None:
        largest = k
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest), 0, -1):
        for rest in _integer_partitions(k - first, first):
            yield (first,) + rest


def _multiset_splits(ms, nparts):
    """Distribute a sorted label multiset into ordered parts.

    Yields (parts, weight) where weight counts the distinct ways to split
    the underlying set variables realizing this label split.
    """
    distinct = sorted(set(ms))
    counts = [ms.count(x) for x in distinct]

    def binom(n, k):
        out = 1
        for i in range(k):
            out = out * (n - i) // (i + 1)
        return out

    def rec(idx):
        if idx == len(distinct):
            yield [[] for _ in range(nparts)], 1
            return
        x, c = distinct[idx], counts[idx]
        for tail, w in rec(idx + 1):
            for comp in _compositions(c, nparts):
                weight = w
                rem = c
                for m in comp:
                    weight *= binom(rem, m)
                    rem -= m
                parts = [list(t) for t in tail]
                for i, m in enumerate(comp):
                    parts[i] = [x] * m + parts[i]
                yield parts, weight

    for parts, w in rec(0):
        yield [tuple(sorted(p)) for p in parts], w


class _Engine:
    """Shared caches for kernel residue evaluation on one curve."""

    def __init__(self, curve: CurveData):
        self.curve = curve
        self.field = curve.field
        self._denom = {}      # (label, j) -> (order, inverse series)
        self._basis = {}      # (at_label, e) -> unrotated kernel-map series
        self._rot = {}        # (at_label, e, j) -> rotated series
        self._bridge = {}     # (label, jp, jq) -> weight-2 series
        self._leg = {}        # (label, k_spec, j) -> rotated monomial
        self._fblock = {}     # (label, gb, mb, sb, rotations) -> series

    # -- factor builders -------------------------------------------------
    def denom_inv(self, label: str, j: int, order: int) -> LaurentSeries:
        key = (label, j)
        got = self._denom.get(key)
        if got is not None and got[0] >= order:
            return got[1].truncate(order)
        w01 = self.curve.omega01(label)
        r = self.curve.order(label)
        d = w01 - w01.rotate(r, j)
        inv = d.inverse(order)
        self._denom[key] = (order, inv)
        return inv

    def basis_form(self, at_label: str, e: tuple) -> LaurentSeries:
        """Expansion at ``at_label`` of the kernel map of Gamma_e."""
        key = (at_label, e)
        got = self._basis.get(key)
        if got is None:
            fld = self.field
            d = {}
            blabel, k = e
            if k >= 1 and blabel == at_label:
                d[-k - 1] = fld.coerce(k)
            if k >= 1:
                for j, v in self.curve.phi_row(at_label, e).items():
                    d[j - 1] = d.get(j - 1, fld.zero()) + v
            hi = None if self.curve.is_purely_local else self.curve.tail_hi()
            got = LaurentSeries(fld, d, hi=hi, weight=FORM)
            self._basis[key] = got
        return got

    def rotated_basis(self, at_label: str, e: tuple, j: int) -> LaurentSeries:
        if j == 0:
            return self.basis_form(at_label, e)
        key = (at_label, e, j)
        got = self._rot.get(key)
        if got is None:
            r = self.curve.order(at_label)
            got = self.basis_form(at_label, e).rotate(r, j)
            self._rot[key] = got
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

    def basis_product(self, label: str, es, rotations) -> LaurentSeries:
        """Sum over the distinct orderings of the labels ``es`` of the
        product of their rotated basis forms, paired with the sorted
        ``rotations`` (the sum is symmetric in the rotations)."""
        rots = sorted(rotations)
        out = None
        for arrangement in set(permutations(es)):
            piece = None
            for e, j in zip(arrangement, rots):
                s = self.rotated_basis(label, e, j)
                piece = s if piece is None else piece * s
            out = piece if out is None else out + piece
        return out

    # -- the residue core --------------------------------------------------
    def kernel_contract(self, label: str, k0s, js, factors) -> dict:
        """-Res_{z->label} (z^k0/k0) * prod(factors) / prod(y - s_j* y)
        for every k0 in ``k0s``: the contraction of the kernel output with
        B[(label,k0)].

        ``js``: rotation indices of the kernel slots beyond the first.
        ``factors``: forms at the point, all over one coefficient ring.
        One product, truncated at z^(-1-min(k0s)), serves every k0.
        Returns {k0: value} over the requested k0 that the product's pole
        order reaches; {} when the residue vanishes structurally (an empty
        factor, or no such k0).
        """
        if min(k0s, default=1) < 1:
            raise ValueError("contraction index must be >= 1")
        r = self.curve.order(label)
        k = len(js) + 1
        weight = sum(f.weight for f in factors) - (k - 1)
        if weight != 1:
            raise ValueError(f"kernel integrand has weight {weight}, not 1")
        if any(f.is_zero() for f in factors):
            return {}
        lo_f = sum(f.lo for f in factors)
        k0s = [k0 for k0 in k0s if k0 <= r * (k - 1) - 1 - lo_f]
        if not k0s:
            return {}
        top = -1 - min(k0s)
        ring = factors[0].field
        order = max(top - lo_f + r * (k - 2), -r)
        # denominators last: over HPoly the factor-by-factor products are
        # the costly ones, and this keeps their operands shortest
        pieces = sorted(factors, key=lambda q: len(q.coeffs)) + [
            self.denom_inv(label, j, order).over(ring) for j in js]
        remaining = sum(p.lo for p in pieces)
        prod = None
        for p in pieces:
            remaining -= p.lo
            prod = p if prod is None else prod.mul(p, top - remaining)
        return {k0: prod.coeff(-1 - k0) * Fraction(-1, k0) for k0 in k0s}

    def pole_bound(self, label: str, g: int, n: int, table: OmegaTable) -> int:
        """Candidate ceiling for indices of the (g,n) table at a point.

        Simple points obey the classical per-variable bound 6g-4+2n; for
        higher orders the ceiling is derived structurally from the maximal
        residue valuation achievable with the already-computed feeders.
        """
        r = self.curve.order(label)
        if r == 2:
            return max(1, 6 * g - 4 + 2 * n)
        chi = 2 * g - 2 + n
        n_spec = n - 1
        best = 1

        def block_pole(gb, s, nb):
            mb = s + nb
            if gb == 0 and mb == 1:
                return None
            if gb == 0 and mb == 2:
                return 2 if s == 2 else 0
            if (gb, mb) not in table.tables:
                return None
            mk = table.max_index(gb, mb, label)
            if mk == 0:
                return None
            return s * (mk + 1)

        for k in range(2, min(r, chi + 1) + 1):
            base = r * (k - 1) - 1
            for shape in _integer_partitions(k):
                ell = len(shape)
                g_total = g - k + ell
                if g_total < 0:
                    continue
                for gs in _compositions(g_total, ell):
                    for nbs in _compositions(n_spec, ell):
                        poles = 0
                        for s, gb, nb in zip(shape, gs, nbs):
                            p = block_pole(gb, s, nb)
                            if p is None:
                                poles = None
                                break
                            poles += p
                        if poles is not None:
                            best = max(best, base + poles)
        return best


def _parity_filter(curve: CurveData) -> bool:
    """True when all points are simple with odd times and no analytic part
    (then every table entry has odd indices)."""
    if not curve.is_purely_local:
        return False
    for label in curve.labels:
        if curve.order(label) != 2:
            return False
        if any(k % 2 == 0 for k in curve.times(label)):
            return False
    return True


def _charge_modulus(curve: CurveData) -> int | None:
    """Selection-rule modulus for single-point curves with all time
    indices congruent to 1 mod r: nonzero entries of F[g,n] then satisfy
    the r-spin degree condition sum(k_i) = 2g - 2 + n mod r (their
    exponent classes are conserved by every kernel residue)."""
    if not curve.is_purely_local or len(curve.labels) != 1:
        return None
    label = curve.labels[0]
    r = curve.order(label)
    if r < 3:
        return None
    if any(k % r != 1 for k in curve.times(label)):
        return None
    return r


def compute_omega_table(curve: CurveData, chi_max: int,
                        check_symmetry: bool = False) -> OmegaTable:
    """Fill F[g,n] for all 2g-2+n <= chi_max by the residue recursion."""
    if chi_max < 1:
        raise ValueError("chi_max must be >= 1")
    engine = _Engine(curve)
    table = OmegaTable(curve, chi_max)
    odd_only = _parity_filter(curve)
    charge_mod = _charge_modulus(curve)
    for chi in range(1, chi_max + 1):
        for g in range(0, (chi + 1) // 2 + 1):
            n1 = chi + 2 - 2 * g
            if n1 < 1:
                continue
            _fill_level(engine, table, g, n1, odd_only, charge_mod,
                        check_symmetry)
    return table


def _fill_level(engine: _Engine, table: OmegaTable, g: int, n1: int,
                odd_only: bool, charge_mod: int | None,
                check_symmetry: bool) -> None:
    curve = engine.curve
    per_point = {}
    for label in curve.labels:
        bound = engine.pole_bound(label, g, n1, table)
        ks = range(1, bound + 1)
        if odd_only:
            ks = [k for k in ks if k % 2 == 1]
        per_point[label] = [(label, k) for k in ks]
    groups = ([cands for cands in per_point.values()]
              if curve.is_purely_local
              else [sorted(sum(per_point.values(), []))])
    for cands in groups:
        for key in combinations_with_replacement(cands, n1):
            if charge_mod is not None and \
                    sum(k for _, k in key) % charge_mod != \
                    (2 * g - 2 + n1) % charge_mod:
                continue
            try:
                value = _entry_value(engine, table, g, key[0], key[1:])
            except PrecisionError as exc:
                raise PrecisionError(
                    f"insufficient truncation at (g,n)=({g},{n1}), "
                    f"indices {key}: {exc}") from exc
            if check_symmetry and len(set(key)) > 1:
                for pos in range(1, len(key)):
                    if key[pos] == key[0]:
                        continue
                    alt = (key[pos],) + key[1:pos] + (key[0],) + key[pos + 1:]
                    other = _entry_value(engine, table, g, alt[0], alt[1:])
                    if other != value:
                        raise AssertionError(
                            f"symmetry violation at F[{g},{n1}]{key}: "
                            f"{value} vs {other}")
            if value:
                table.set_entry(g, n1, key, value)


def _entry_value(engine: _Engine, table: OmegaTable, g: int,
                 i0: tuple, spectators: tuple):
    """F[g, n+1] entry with distinguished contraction i0 = (a, k0)."""
    curve = engine.curve
    label, k0 = i0
    r = curve.order(label)
    total = engine.field.zero()
    spectators = tuple(sorted(spectators))
    for k in range(2, r + 1):
        for js in combinations(range(1, r), k - 1):
            slot_rot = (0,) + js
            for part in _set_partitions(list(range(k))):
                ell = len(part)
                g_total = g - k + ell
                if g_total < 0:
                    continue
                for parts, weight in _multiset_splits(spectators, ell):
                    for gs in _compositions(g_total, ell):
                        term = _term_value(engine, table, label, k0, slot_rot,
                                           part, parts, gs)
                        if term:
                            total = total + term * weight
    return total


def _term_value(engine: _Engine, table: OmegaTable, label: str, k0: int,
                slot_rot, part, parts, gs):
    """One (partition, split, genus) term; None when structurally absent."""
    # classify blocks first: with one-form blocks excluded up front, every
    # correlator block referenced below sits at a strictly lower level, so
    # the block-series cache only ever sees completed tables
    plan = []
    for b_idx, block_slots in enumerate(part):
        gb = gs[b_idx]
        sb = parts[b_idx]
        mb = len(block_slots) + len(sb)
        if gb == 0 and mb == 1:
            return None    # primary one-form factors are excluded
        if gb == 0 and mb == 2 and len(block_slots) == 1:
            if sb[0][0] != label:
                return None    # contracted leg lives at another point
        plan.append((block_slots, gb, sb, mb))
    factors = []
    for block_slots, gb, sb, mb in plan:
        if gb == 0 and mb == 2:
            if len(block_slots) == 2:
                p, q = block_slots
                factors.append(engine.bridge(label, slot_rot[p], slot_rot[q]))
            else:
                factors.append(engine.leg(label, sb[0][1],
                                          slot_rot[block_slots[0]]))
            continue
        series = _fblock_series(engine, table, label, gb, mb,
                                tuple(slot_rot[s] for s in block_slots), sb)
        if series.is_zero():
            return None
        factors.append(series)
    try:
        return engine.kernel_contract(label, (k0,), slot_rot[1:],
                                      factors).get(k0)
    except PrecisionError as exc:
        raise PrecisionError(
            f"insufficient truncation for F entry at point {label!r}, "
            f"k0={k0}: {exc}") from exc


def _fblock_series(engine: _Engine, table: OmegaTable, label: str, gb: int,
                   mb: int, rotations: tuple, sb: tuple) -> LaurentSeries:
    """Series of a lower-correlator block with its spectators contracted.

    sum over e-tuples of F[gb, mb][e..., sb] * prod rotated basis forms.
    Cached per level; the value is symmetric in the slot rotations, so the
    cache key carries them sorted.
    """
    key = (label, gb, mb, sb, tuple(sorted(rotations)))
    cached = engine._fblock.get(key)
    if cached is not None:
        return cached
    nslots = len(rotations)
    out = LaurentSeries.zero(engine.field, weight=nslots)
    for tkey, value in table.entries(gb, mb).items():
        rest = _multiset_diff(tkey, sb)
        if rest is None or len(rest) != nslots:
            continue
        if engine.curve.is_purely_local and any(e[0] != label for e in rest):
            continue
        out = out + engine.basis_product(label, rest, rotations).scale(value)
    engine._fblock[key] = out
    return out


def compute_Fg(table: OmegaTable, curve: CurveData, g: int):
    """The genus-g scalar invariant, from the one-variable correlator."""
    if g < 2:
        raise UnsupportedError(
            "scalar invariants are implemented for genus >= 2 only")
    total = curve.field.zero()
    for label in curve.labels:
        for k, t in curve.times(label).items():
            total = total + t * table.get(g, 1, ((label, k),))
    return total / (2 - 2 * g)


# ---------------------------------------------------------------------------
# Public kernel application on explicit local data.

class PairProduct:
    """W summand f(z) (x) g(z'), the second slot to be Galois-pulled."""

    def __init__(self, first: LaurentSeries, *rest: LaurentSeries):
        self.factors = (first,) + rest


class DiagonalB:
    """W summand omega02(z, sigma z) with both slots on the kernel point."""


def k2_apply(curve: CurveData, label: str, summands) -> LocalForm:
    """Order-2 kernel applied to bivariate local data at one point.

    ``summands``: iterables of PairProduct (two slots) or DiagonalB.
    Returns the output 1-form in the spectator variable as a LocalForm.
    """
    if curve.order(label) != 2:
        raise UnsupportedError(
            "k2_apply needs a simple point; use kk_apply for higher orders")
    return kk_apply(curve, 2, label, summands)


def kk_apply(curve: CurveData, k: int, label: str, summands) -> LocalForm:
    """Order-k kernel applied to k-variate local data at one point.

    Slots beyond the first are pulled back by the Galois subset elements;
    the sum runs over unordered subsets of distinct nontrivial elements.
    Returns zero when k exceeds the point order (empty subset sum).
    """
    engine = _Engine(curve)
    r = curve.order(label)
    if k < 2:
        raise ValueError("kernel order must be >= 2")
    if k > r:
        return LocalForm(curve, {})
    bound = r * (k - 1) - 1
    for s in summands:
        if isinstance(s, PairProduct):
            bound += -min(0, sum(f.lo for f in s.factors))
        else:
            bound += 2
    k0s = range(1, max(bound, 1) + 1)
    totals = {}
    for js in combinations(range(1, r), k - 1):
        slot_rot = (0,) + js
        for s in summands:
            if isinstance(s, DiagonalB):
                if k != 2:
                    raise ValueError("DiagonalB is a two-slot summand")
                factors = [engine.bridge(label, 0, slot_rot[1])]
            elif isinstance(s, PairProduct):
                if len(s.factors) != k:
                    raise ValueError("summand arity != kernel order")
                factors = [f.rotate(r, j)
                           for f, j in zip(s.factors, slot_rot)]
            else:
                raise TypeError(f"unknown summand {s!r}")
            for k0, v in engine.kernel_contract(label, k0s, slot_rot[1:],
                                                factors).items():
                totals[k0] = totals[k0] + v if k0 in totals else v
    out = None
    for k0, v in sorted(totals.items()):
        if v:
            piece = bhat(gamma(curve, label, k0), curve).scale(v)
            out = piece if out is None else out + piece
    return out if out is not None else LocalForm(curve, {})
