"""Unpruned reference for the residue recursion.

Every candidate key with indices up to a fixed ``kmax`` is evaluated, each
one by summing every (kernel order, Galois subset, slot partition,
spectator split, genus split) term for its distinguished index, with no
selection rule, parity filter or pole bound.  It shares the package's
residue core (``OmegaTable.kernel_contract``), so it checks the term
enumeration of ``compute_omega_table``, not the kernel residues
themselves.  It calls ``kernel_contract`` directly and never the support
guard ``OmegaTable.reaches``, on purpose: every term reaches the
residue, so the comparison pins that pruning rule too, including its
treatment of truncated factors on global curves.

It also holds the arrangement-sum block reference, ``_block_series``: for
one spectator multiset, each table entry that contains it, and every
distinct ordering of the remaining slot labels, one product of rotated
basis forms.  The package contracts its blocks one slot at a time
(``OmegaTable.table_block``) and never forms these products, so the two
meet only in the forms ``OmegaTable.rotated_basis`` caches.
"""

from itertools import combinations, combinations_with_replacement, permutations

from trcycles.recursion import (
    OmegaTable,
    _compositions,
    _deal_count,
    _drops,
    _set_partitions,
)
from trcycles.series import LaurentSeries


def unpruned_table(curve, chi_max: int, kmax: int) -> OmegaTable:
    """F[g,n] for 2g-2+n <= chi_max over every key with indices <= kmax.

    Raises AssertionError when an entry has an index above ``kmax - 2``:
    the supports skip at most one index in a row (odd indices at simple
    points, no multiples of r at order r), so such an entry may have a
    neighbour beyond ``kmax`` that was silently clipped.
    """
    table = OmegaTable(curve, chi_max)
    cands = [(label, k) for label in curve.labels
             for k in range(1, kmax + 1)]
    for chi in range(1, chi_max + 1):
        for g in range(0, (chi + 1) // 2 + 1):
            n1 = chi + 2 - 2 * g
            if n1 < 1:
                continue
            for key in combinations_with_replacement(cands, n1):
                value = entry_value(table, g, key[0], key[1:])
                if value:
                    assert max(k for _, k in key) <= kmax - 2, \
                        f"F[{g},{n1}]{key} reaches kmax={kmax}"
                    table.set_entry(g, n1, key, value)
    return table


def entry_value(table, g: int, i0: tuple, spectators: tuple):
    """F[g, n+1] entry with distinguished contraction i0 = (a, k0), from
    the completed levels of ``table`` below it."""
    label, k0 = i0
    r = table.curve.order(label)
    total = table.field.zero()
    spectators = tuple(sorted(spectators))
    splits = {ell: list(_multiset_splits(spectators, ell))
              for ell in range(1, r + 1)}
    for k in range(2, r + 1):
        for js in combinations(range(1, r), k - 1):
            slot_rot = (0,) + js
            for part in _set_partitions(list(range(k))):
                ell = len(part)
                g_total = g - k + ell
                if g_total < 0:
                    continue
                genera = list(_compositions(g_total, ell))
                for parts, weight in splits[ell]:
                    for gs in genera:
                        term = _term_value(table, label, k0, slot_rot,
                                           part, parts, gs)
                        if term:
                            total = total + term * weight
    return total


def check_every_reading(table) -> int:
    """Assert that each stored entry of ``table``, read by ``entry_value``
    with each of its distinct indices as the distinguished one, equals
    the stored value; returns the number of readings."""
    readings = 0
    for (g, n), tab in table.tables.items():
        for key, value in tab.items():
            for e, rest in _drops(key):
                assert entry_value(table, g, e, rest) == value, (g, n, key, e)
                readings += 1
    return readings


def _term_value(table, label, k0, slot_rot, part, parts, gs):
    """One (partition, split, genus) term; None when structurally absent."""
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
                factors.append(table.bridge(label, slot_rot[p], slot_rot[q]))
            else:
                factors.append(table.leg(label, sb[0][1],
                                         slot_rot[block_slots[0]]))
            continue
        series = _block_series(table, table, label, gb, mb,
                               tuple(slot_rot[s] for s in block_slots), sb)
        if series.is_zero():
            return None
        factors.append(series)
    return table.kernel_contract(label, slot_rot[1:], factors, k0).get(k0)


def _block_series(forms, table, label, gb, mb, rotations, sb):
    """sum over e-tuples of F[gb, mb][e..., sb] * prod rotated basis forms,
    the entries read from ``table`` and the forms from the caches of
    ``forms`` (an OmegaTable of the same curve, possibly ``table``).

    Cached on ``forms``: blocks only read completed lower tables, and the
    value is symmetric in the rotations."""
    cache = vars(forms).setdefault("reference_blocks", {})
    key = (label, gb, mb, sb, tuple(sorted(rotations)))
    if key not in cache:
        out = LaurentSeries.zero(forms.field, weight=len(rotations))
        for tkey, value in table.entries(gb, mb).items():
            rest = _multiset_diff(tkey, sb)
            if rest is None or len(rest) != len(rotations):
                continue
            if forms.curve.is_purely_local and \
                    any(e[0] != label for e in rest):
                continue
            out = out + _basis_product(forms, label, rest,
                                       rotations).scale(value)
        cache[key] = out
    return cache[key]


def _basis_product(forms, label, es, rotations):
    """Sum over the distinct orderings of the labels ``es`` of the product
    of their rotated basis forms, paired with the sorted ``rotations``."""
    out = None
    for arrangement in set(permutations(es)):
        piece = None
        for e, j in zip(arrangement, sorted(rotations)):
            s = forms.rotated_basis(label, e, j)
            piece = s if piece is None else piece * s
        out = piece if out is None else out + piece
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


def _multiset_splits(ms, nparts):
    """Distribute a label multiset into ordered parts.

    Yields (parts, weight) where weight counts the distinct ways to split
    the underlying set variables realizing this label split.
    """
    distinct = sorted(set(ms))

    def rec(idx):
        if idx == len(distinct):
            yield [()] * nparts
            return
        x = distinct[idx]
        for tail in rec(idx + 1):
            for comp in _compositions(ms.count(x), nparts):
                yield [(x,) * m + t for m, t in zip(comp, tail)]

    for parts in rec(0):
        yield parts, _deal_count(parts)
