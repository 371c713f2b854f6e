"""Packing/covering decomposition via the product reduction.

A family of matroids on one universe is lifted to a single intersection
instance on the product of the universe with the index set: one matroid
is the direct sum of re-indexed family members, the other allows at
most one copy per original element.  The certificate of the lifted
solve splits the universe into a part that the family packs and a part
it covers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classic import IntersectionCertificate, Trace, verify_certificate
from .core import (
    ElementSet,
    GroundSet,
    InvalidInputPackCov,
    Matroid,
    PartitionMatroid,
    PostconditionFailed,
    RelabelMatroid,
    UniverseMismatch,
    bit_indices,
    direct_sum,
)
from .intersect import solve
from .waves import PairContext


@dataclass(frozen=True)
class MatroidFamily:
    """Matroids sharing one full ground set."""

    ground: GroundSet
    members: tuple[Matroid, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise UniverseMismatch("family needs at least one member")
        for m in self.members:
            if m.ground.labels != self.ground.labels:
                raise UniverseMismatch("family members live on different ground sets")
            if m.universe_mask != self.ground.full_mask:
                raise UniverseMismatch("family members must use the full ground set")

    @property
    def k(self) -> int:
        return len(self.members)


def lift_family(fam: MatroidFamily) -> PairContext:
    """Copies of the members on disjoint slices, against per-element blocks.

    Copy i of element e is product element ``e * k + i``, labelled
    ``"{label}@{i}"``; two labels that print alike, such as 1 and "1",
    raise UniverseMismatch.
    """
    k = fam.k
    base = fam.ground
    owner = {}
    for e in range(base.size):
        for i in range(k):
            label = f"{base.label(e)}@{i}"
            if label in owner:
                raise UniverseMismatch(
                    f"labels {base.label(owner[label])!r} and {base.label(e)!r} both lift to {label!r}"
                )
            owner[label] = e
    ground = GroundSet(tuple(owner))
    copies = []
    for i, member in enumerate(fam.members):
        mapping = {e: e * k + i for e in range(base.size)}
        copies.append(RelabelMatroid(ground, member, mapping))
    m = direct_sum(copies)
    blocks = tuple(
        (((1 << k) - 1) << (e * k), 1) for e in range(base.size)
    )
    return PairContext(m, PartitionMatroid(ground, blocks))


@dataclass(frozen=True)
class PackCovResult:
    """A packing of one part and a covering of the other.

    ``product_labels`` fixes the index mapping used.
    """

    E_p: ElementSet
    E_c: ElementSet
    S: tuple[ElementSet, ...]
    I: tuple[ElementSet, ...]
    product_labels: tuple[str, ...]


def packcov_solve(
    fam: MatroidFamily,
    solver: str = "classic",
    e1: ElementSet | None = None,
    trace: Trace | None = None,
) -> PackCovResult:
    """Solve the lifted instance and extract the two-part decomposition."""
    lifted = lift_family(fam)
    cert = solve(lifted.M, lifted.N, solver, e1, trace)

    base = fam.ground
    k = fam.k
    ec = 0
    for idx in bit_indices(cert.E_N.mask):
        ec |= 1 << idx // k
    ep = base.full_mask & ~ec

    js = [0] * k
    for idx in bit_indices(cert.I.mask):
        js[idx % k] |= 1 << idx // k

    result = PackCovResult(
        ElementSet(base, ep),
        ElementSet(base, ec),
        tuple(ElementSet(base, j & ep) for j in js),
        tuple(ElementSet(base, j & ec) for j in js),
        lifted.ground.labels,
    )
    if not verify_packcov(fam, result):
        raise PostconditionFailed("extracted packing/covering failed verification")
    return result


def verify_packcov(fam: MatroidFamily, res: PackCovResult) -> bool:
    """Re-check every decomposition invariant from raw oracles."""
    base = fam.ground
    ep, ec = res.E_p.mask, res.E_c.mask
    if ep & ec or ep | ec != base.full_mask:
        return False
    if len(res.S) != fam.k or len(res.I) != fam.k:
        return False
    seen = 0
    for i, member in enumerate(fam.members):
        s = res.S[i].mask
        if s & ~ep or s & seen:
            return False
        seen |= s
        # a greedy base of S spans S, so only the rest of E_p is asked
        if not member._spans(member._max_indep(s), ep & ~s):
            return False
    covered = 0
    for part in res.I:
        covered |= part.mask
    # the parts cover E_c and no more, so each member is asked only inside it
    if covered != ec:
        return False
    onto = ElementSet(base, ec)
    return all(member.onto(onto)._indep(part.mask) for member, part in zip(fam.members, res.I))


def derive_intersection(
    m: Matroid, n: Matroid, pc: PackCovResult
) -> IntersectionCertificate:
    """Intersection certificate from a packing/covering of (M, dual of N).

    The packed part carries a base of M from S_0, which spans E_p by
    ``verify_packcov``; the covered part a base of N on E_c - I_1, which
    spans E_c because I_1 is independent in N*/E_p = (N|E_c)*.  The final
    ``verify_certificate`` asks both spans again.
    """
    fam = MatroidFamily(m.ground, (m, n.dual()))
    if not verify_packcov(fam, pc):
        raise InvalidInputPackCov("result is not a packing/covering for (M, N*)")
    s_m = pc.S[0]
    r_n = pc.I[1]
    i_m = m._max_indep(s_m.mask)
    i_n = n._max_indep(pc.E_c.mask & ~r_n.mask)
    cert = IntersectionCertificate(
        ElementSet(m.ground, i_m | i_n), pc.E_p, pc.E_c
    )
    if not verify_certificate(m, n, cert):
        raise PostconditionFailed("derived certificate failed raw verification")
    return cert
