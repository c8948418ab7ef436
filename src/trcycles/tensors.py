"""Quantum Airy tensors, the tensor-form recursion, and order-by-order
verification that the annihilation operators kill the wave function.

Two independent routes to the same tensors meet here: A and D are read
from the correlator table, C and the B-tensor come from fresh kernel
residues.  The tensor recursion then rebuilds correlators by pure
contraction.  Only F[0,3] and F[1,1] are read, so a table filled to
chi 1 gives tensors for any level bound; at simple points ``compute``
takes every level from them, and the residue fill of the whole table is
the other side of ``verify``'s engine equivalence.  The quadratic
verifier reads the same contraction of the stored table at every index;
its difference from the table gives the (hbar, times)-coefficients of
the quadratic annihilation identity, and the higher verifier expands its
identity in them; all must vanish.
Each consumer takes one object: ``compute_airy_tensors`` and the higher
verifier a table, the tensor recursion and the quadratic verifier the
tensors, which keep the table they were read from.  Every kernel
residue, scalar or HPoly-valued, is taken by the table itself, through
the one routine ``OmegaTable.kernel_contract`` that also drives the
correlator recursion.  The higher verifier forms one kernel product per
kernel term: each slot group's block is the recursion's own
``OmegaTable.table_block`` maps summed over every stored level with its
hbar and times weights, plus the bridge for two slots and the one-form
leg for one; the kernel's own weight is a factor of that product.
Blocks the fill built are not built again.

Slot conventions for the stored B-tensor follow its defining residue:
B[i1, i2, i3] contracts the kernel output with i1, feeds the basis form
of i2 into the first kernel slot, and contracts the spectator leg of the
bilinear kernel with i3.  In the recursion and the times-PDE the i2 slot
therefore pairs with derivatives and the i3 slot with time variables.
"""

from __future__ import annotations

from .errors import PrecisionError, UnsupportedError
from .recursion import (
    OmegaTable,
    _deal_count,
    _drops,
    _fold_twins,
    _kernel_terms,
    _levels,
    _set_partitions,
)
from .series import LaurentSeries
from .wavefunction import (
    HPoly,
    HPolyRing,
    assemble_logZ,
    times_polynomial,
)


class AiryTensors:
    """Sparse A, B, C, D over local-cycle labels, dicts to scalars keyed:
    A by sorted triples (totally symmetric), D by labels, C by (i0, e, e')
    in raw slot order, B by (i1, i2, i3) with slots as in the module doc.
    ``table`` is the correlator table they were read from, and its curve
    is theirs; ``chi_max`` is the level bound that fixed their index
    range, and the one ``tensor_recursion`` rebuilds to."""

    __slots__ = ("table", "chi_max", "A", "D", "C", "B")

    def __init__(self, table: OmegaTable, chi_max: int, A, D, C, B):
        self.table, self.chi_max = table, chi_max
        self.A, self.D, self.C, self.B = A, D, C, B

    def copy_with_perturbation(self, name: str, indices, delta):
        data = {"A": dict(self.A), "D": dict(self.D),
                "C": dict(self.C), "B": dict(self.B)}
        if name not in data:
            raise ValueError(f"unknown tensor {name!r}")
        tab = data[name]
        if name == "A":
            key = tuple(sorted(tuple(i) for i in indices))
        elif name == "D":
            key = tuple(indices[0]) if not isinstance(indices[0], str) \
                else tuple(indices)
        else:
            key = tuple(tuple(i) for i in indices)
        fld = self.table.field
        tab[key] = tab.get(key, fld.zero()) + fld.coerce(delta)
        return AiryTensors(self.table, self.chi_max, **data)


def compute_airy_tensors(table: OmegaTable,
                         chi_max: int | None = None) -> AiryTensors:
    """Tensors of the quadratic Airy structure of the table's curve, which
    must have simple ramification: A and D from the table's F[0,3] and
    F[1,1], C and B from kernel residues taken by the table.  Their
    indices reach the pole bound of every level up to ``chi_max`` (by
    default the table's own bound), so a table filled to chi 1 gives
    tensors that rebuild any level."""
    curve = table.curve
    for label in curve.labels:
        if curve.order(label) != 2:
            raise UnsupportedError(
                "the quadratic tensor form needs simple ramification "
                "everywhere; use the order-by-order verifier instead")
    if chi_max is None:
        chi_max = table.chi_max
    # the index bound and the parity fix which entries the tensors have,
    # not only which columns are skipped: entries outside them can be
    # nonzero (unfiltered, airy chi 3 has 21 C and 36 B entries instead
    # of 6 and 18), and the compute output publishes these tensors.  A
    # purely local curve enters only through y - sigma* y, where its even
    # times cancel, so its tensors are odd-indexed whatever its times
    kmax = max((6 * g - 4 + 2 * n for g, n in _levels(chi_max)), default=2)
    odd_only = curve.is_purely_local
    ks = [k for k in range(1, kmax + 1) if not odd_only or k % 2 == 1]

    A = {key: 2 * v for key, v in table.entries(0, 3).items()}
    D = {key[0]: v for key, v in table.entries(1, 1).items()}

    # basis forms at the kernel point can come from any point: when the
    # bilinear kernel has an analytic part, their tails couple the points
    slots = [(lb, k) for lb in curve.labels for k in ks]

    # C and B are order-2 residues at a simple point, where the twin
    # relation (see ``recursion._kernel_terms``) reads
    # twin[k0] = (-1)^(k0+1) term[k0]
    C = {}
    B = {}
    try:
        for label in curve.labels:
            # a slot whose basis form vanishes at the kernel point gives
            # no residue (on a purely local curve, those of the other
            # points)
            live = [e for e in slots
                    if not table.rotated_basis(label, e, 0).is_zero()]
            for a, e in enumerate(live):
                base = table.rotated_basis(label, e, 0)
                for ep in live[a:]:
                    # C[i0, e, e'] = 2 * contraction of K2(basis_e,
                    # basis_e'), and C[i0, e', e] is its twin
                    column = table.kernel_contract(
                        label, (1,),
                        [base, table.rotated_basis(label, ep, 1)])
                    for k0 in ks:
                        if column.get(k0):
                            v = C[((label, k0), e, ep)] = 2 * column[k0]
                            if ep != e:
                                C[((label, k0), ep, e)] = \
                                    v if k0 % 2 else -v
                for ep_k in ks:
                    # B[i1, i2, i3]: the basis form of i2 against the
                    # contracted bilinear-kernel leg of i3 (which only
                    # lives at the kernel point), summed over the two slot
                    # assignments.  They are twins, so the sum is twice
                    # this residue at odd k0 and 0 at even k0, on every
                    # curve
                    first = table.kernel_contract(
                        label, (1,), [base, table.leg(label, ep_k, 1)])
                    for k0 in ks:
                        if k0 % 2 and first.get(k0):
                            B[((label, k0), e, (label, ep_k))] = \
                                2 * first[k0]
    except PrecisionError as exc:
        raise PrecisionError(
            f"insufficient truncation in the Airy tensors at point "
            f"{label!r}: {exc}") from exc
    return AiryTensors(table, chi_max, A, D, C, B)


def tensor_recursion(at: AiryTensors) -> OmegaTable:
    """Rebuild the correlator tensors by pure contraction, up to the
    tensors' level bound ``at.chi_max``: each level is ``_contract`` of
    the levels already rebuilt, read at the rows i0 <= min(rest) (the
    same reading as the residue recursion).  No kernel residue is taken,
    so a table filled to chi 1 and its tensors give every level."""
    table = OmegaTable(at.table.curve, at.chi_max)
    rows = _rows(at)
    for g, n1 in _levels(at.chi_max):
        for (i0, rest), v in _contract(at, rows, table, g, n1,
                                       False).items():
            table.set_entry(g, n1, (i0,) + rest, v / 2)
    return table


def _rows(at: AiryTensors):
    """The tensors' rows as ``_contract`` reads them: C by (e, e') as
    [(i0, C)] sorted by i0, B by j as [(i0, s, B)]."""
    crows, brows = {}, {}
    for (i0, e, ep), v in sorted(at.C.items()):
        crows.setdefault((e, ep), []).append((i0, v))
    for (i0, j, s), v in at.B.items():
        brows.setdefault(j, []).append((i0, s, v))
    return crows, brows


def _contract(at: AiryTensors, rows, table: OmegaTable, g: int, n1: int,
              every: bool) -> dict:
    """{(i0, rest): 2 F[g,n1][i0, rest]} as the tensors give it from the
    entries of ``table`` below (g, n1).

    Seeds: 2 F[0,3] = A and 2 F[1,1] = 2 D; then
    2 F[g,n+1][i0,S] = sum C[i0,e,e'] (F[g-1,n+2][e,e',S]
                        + sum_stable F F)
                     + 2 sum_{s in S} sum_j B[i0,j,s] F[g,n][j, S-s].
    Each level is pushed forward from the stored entries: every C row
    (``_rows``) meets the entries holding e and e', every B row the
    entries holding j, and each term lands on the row (i0, rest) it
    feeds.  Only rows with i0 <= min(rest) are kept unless ``every``.
    """
    crows, brows = rows
    acc = {}

    def add(i0, rest, v):
        key = (i0, rest)
        acc[key] = acc[key] + v if key in acc else v

    def add_c(e, ep, rest, v):
        for i0, c in crows.get((e, ep), ()):
            if rest and i0 > rest[0] and not every:
                break
            add(i0, rest, c * v)

    if (g, n1) == (0, 3):
        for key, v in at.A.items():
            for e, rest in _drops(key):
                if every or e <= rest[0]:
                    add(e, rest, v)
    if (g, n1) == (1, 1):
        for lab, v in at.D.items():
            add(lab, (), 2 * v)
    for key, v in table.entries(g - 1, n1 + 1).items():
        for e, part in _drops(key):
            for ep, rest in _drops(part):
                add_c(e, ep, rest, v)
    for g1 in range(g + 1):
        for m1 in range(1, n1 + 1):
            g2, m2 = g - g1, n1 + 1 - m1
            if 2 * g1 - 2 + m1 <= 0 or 2 * g2 - 2 + m2 <= 0:
                continue
            right = _slots(table.entries(g2, m2))
            for e, lefts in _slots(table.entries(g1, m1)).items():
                for ep, rights in right.items():
                    if (e, ep) not in crows:
                        continue
                    for r1, v1 in lefts:
                        for r2, v2 in rights:
                            add_c(e, ep, tuple(sorted(r1 + r2)),
                                  _deal_count((r1, r2)) * v1 * v2)
    for key, v in table.entries(g, n1 - 1).items():
        for j, part in _drops(key):
            for i0, s, b in brows.get(j, ()):
                rest = tuple(sorted(part + (s,)))
                if every or i0 <= rest[0]:
                    add(i0, rest, 2 * rest.count(s) * b * v)
    return acc


def _slots(entries):
    """{e: [(key minus one e, value)]} over the entries holding e."""
    out = {}
    for key, v in entries.items():
        for e, rest in _drops(key):
            out.setdefault(e, []).append((rest, v))
    return out


# ---------------------------------------------------------------------------
# The disc-free derivative coefficients.

def compute_Uk(k: int) -> dict:
    """Partition expansion of the disc-free k-th derivative coefficient:
    {shape: count} over the set partitions of k slots with every block of
    size >= 2, a shape being the sorted tuple of block sizes."""
    if k < 1:
        raise ValueError("arity must be >= 1")
    counts = {}
    for part in _set_partitions(list(range(k))):
        if any(len(b) < 2 for b in part):
            continue
        shape = tuple(sorted(len(b) for b in part))
        counts[shape] = counts.get(shape, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Quadratic times-PDE verification.

class ResidualReport:
    """Nonzero coefficients of an annihilation-operator residual."""

    __slots__ = ("entries", "checked_orders")

    def __init__(self, checked_orders: tuple = ()):
        self.entries = []
        self.checked_orders = checked_orders

    @property
    def ok(self) -> bool:
        return not self.entries

    def first_nonzero(self):
        return self.entries[0] if self.entries else None


def _airy_index_variables(table: OmegaTable):
    out = set()
    for (_, _), tab in table.tables.items():
        for key in tab:
            out.update(key)
    return sorted(out)


def verify_quadratic_pde(at: AiryTensors, hbar_max: int,
                         deg_max: int) -> ResidualReport:
    """Collect every nonzero (hbar, monomial) coefficient, up to the
    cutoffs, of the quadratic annihilation operator

        d/dt'_i - hbar D[i] - (hbar/4) A[i,j,k] t'_j t'_k
                - hbar B[i,j,k] t'_k d/dt'_j
                - (hbar/2) C[i,j,k] (d2/dt'_j dt'_k + d/dt'_j d/dt'_k)

    applied to log Z, which is read from the table the tensors were read
    from (all sums over the full label set; the reading derived from the
    tensor recursion, the only one with identically vanishing residual).
    Its coefficient at hbar^(2g-1+n) t'^S, |S| = n, is
    (2 F[g,n+1][i,S] - c) / (2 |Aut S|), with c the ``_contract`` of that
    table read at every row (i, S) that the tensors or the table name.
    Entries are (i, hbar order, monomial, value), sorted.  The tensors
    enter at hbar^1, so ``hbar_max`` must be at least 1 and ``deg_max``
    at least 0.
    """
    if hbar_max < 1 or deg_max < 0:
        raise ValueError(f"the quadratic check needs hbar_max >= 1 and "
                         f"deg_max >= 0, got {hbar_max}, {deg_max}")
    table = at.table
    rows = _rows(at)
    top = min(hbar_max, table.chi_max)     # degrees reach top + 1
    report = ResidualReport(checked_orders=(top, min(deg_max, top + 1)))
    for g, n1 in _levels(top):
        if n1 - 1 > deg_max:
            continue
        h = 2 * g - 2 + n1
        c = _contract(at, rows, table, g, n1, True)
        stored = {(e, rest): v for key, v in table.entries(g, n1).items()
                  for e, rest in _drops(key)}
        for row in set(c) | set(stored):
            v = 2 * stored.get(row, 0) - c.get(row, 0)
            # the coefficient is (v/2)/|Aut S|, log Z's normalization
            for mon, r in times_polynomial([(row[1], v / 2)]).items():
                report.entries.append((row[0], h, mon, r))
    report.entries.sort(key=lambda entry: entry[:3])
    return report


# ---------------------------------------------------------------------------
# Order-by-order verification of the higher annihilation operator.

def verify_higher_pde(table: OmegaTable, hbar_max: int) -> ResidualReport:
    """Verify, coefficient by coefficient, that the order-r annihilation
    operator kills the wave function.

    Both sides of the master identity (the single-insertion series equals
    the sum over kernel orders and slot partitions of the kernel applied
    to one block per slot group) are expanded over basis contractions
    with (hbar, times)-polynomial coefficients.  The left side is the
    derivative of log Z (``assemble_logZ``).  On the right, each kernel
    term is one HPoly-valued column of ``OmegaTable.kernel_contract``,
    and each slot group takes one block, ``_slot_block``, summed over
    every stored level.  The kernel is multilinear, so this one product
    per term is the sum over every way of drawing each group's slots
    from one level.  A kernel of order k weighs hbar^(k-2), a shift of
    its first block, so the caps drop the orders it pushes past them.
    ``hbar_max`` must be at least 0.
    """
    if hbar_max < 0:
        raise ValueError(f"the higher check needs hbar_max >= 0, "
                         f"got {hbar_max}")
    curve = table.curve
    if not curve.is_purely_local:
        raise UnsupportedError(
            "order-by-order verification needs a purely local curve")
    hbar_cap = min(hbar_max, table.chi_max - 1)
    deg_cap = hbar_cap + 2
    ring = HPolyRing(curve.field, (hbar_cap, deg_cap))
    variables = _airy_index_variables(table)
    logz = assemble_logZ(table, hbar_cap + 1)
    report = ResidualReport(checked_orders=(hbar_cap, deg_cap))

    for label in curve.labels:
        point_vars = [v for v in variables if v[0] == label]
        lhs = {}    # k0 -> HPoly
        for v in point_vars:
            d = logz.deriv(v).shift(-1)
            if d:
                lhs[v[1]] = d
        blocks = {}     # sorted rotations -> block series
        r = curve.order(label)
        rows = {}       # twin index -> {(k0,): HPoly}
        for slot_rot, part, j in _kernel_terms(r):
            k = len(slot_rot)
            factors = []
            for b in part:
                rots = tuple(sorted(slot_rot[x] for x in b))
                if rots not in blocks:
                    blocks[rots] = _slot_block(table, label, rots, ring,
                                               point_vars)
                factors.append(blocks[rots])
            if k > 2:
                # hbar^(k-2), on a copy: blocks are shared across orders
                f = factors[0]
                factors[0] = LaurentSeries(ring, {
                    ex: c.shift(k - 2) for ex, c in f.coeffs.items()},
                    hi=f.hi, weight=f.weight)
            column = table.kernel_contract(label, slot_rot[1:], factors)
            # every term here is fixed by its rotations and slot groups,
            # so at j = r - j each is its own twin (index 0)
            row = rows.setdefault(j, {})
            for k0, poly in column.items():
                row[k0,] = row[k0,] + poly if (k0,) in row else poly
        rhs = {k0: v for (k0,), v in
               _fold_twins(curve.field, r, rows).items()}
        for k0 in sorted(set(lhs) | set(rhs)):
            res = lhs.get(k0, ring.zero()) - rhs.get(k0, ring.zero())
            report.entries += [((label, k0), h, mon, c) for h in sorted(res)
                               for mon, c in sorted(res[h].items())]
    return report


def _slot_block(table: OmegaTable, label: str, rots: tuple, ring,
                point_vars) -> LaurentSeries:
    """The kernel block of one slot group with rotations ``rots``: over
    every stored level (g, n) with n >= m = len(rots) and hbar order
    h = 2g-2+n within the caps, each spectator multiset S of
    ``OmegaTable.table_block`` weighted by hbar^h t^S/|Aut S|.  The
    disc-free level (0, m) is a form of the hbar-rescaled curve, so the
    same weight gives it hbar^(m-2).  Two slots add the bridge, the
    undressed level (0, 2); one slot adds the contracted-leg part of the
    one-form pairing term, whose hbar^-1 meets the block's hbar^1
    dressing at order zero."""
    caps = ring.caps
    coeffs = {}

    def add(ex, poly):
        coeffs[ex] = coeffs[ex] + poly if ex in coeffs else poly

    m = len(rots)
    for (g, n) in table.tables:
        h = 2 * g - 2 + n
        if n < m or h > caps[0]:
            continue
        for spec, f in table.table_block(label, g, n, rots).items():
            for ex, c in f.coeffs.items():
                add(ex, HPoly({h: times_polynomial([(spec, c)])}, caps))
    if m == 2:
        for ex, c in table.bridge(label, *rots).coeffs.items():
            add(ex, HPoly({0: {(): c}}, caps))
    if m == 1:
        for (lb, kv) in point_vars:
            for ex, c in table.leg(label, kv, rots[0]).coeffs.items():
                add(ex, HPoly({0: {(((lb, kv), 1),): c}}, caps))
    return LaurentSeries(ring, coeffs, weight=m)
