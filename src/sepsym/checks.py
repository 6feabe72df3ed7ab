"""Named verification checks.

Each check is a deterministic computation keyed by the scenario seed; it
returns a :class:`CheckResult` whose status is ``pass`` exactly when
``max_residual <= tolerance``.  Single-bound checks report the raw
residual against their bound, ``SINGLE_BOUNDS``.  Composite checks
(several bounds, decay bands, positivity floors) declare their criteria
to :func:`_judge`, which reports the worst normalised defect against
tolerance 1.0 and writes every criterion's value, limit and defect to
``details["criteria"]``.
"""

from __future__ import annotations

import inspect
import itertools
import math
import sys
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import mixedpow as mp
from .errors import SepsymError
from .evolution import (
    EvolutionConfig,
    extract_indices,
    replaced_level_gaps,
    scaling_test,
    separation_test,
)
from .hierarchy import (
    Generator,
    Hierarchy,
    bracket_hierarchy,
    canonical_decompose,
    lift_J,
    natural_part,
    tensor_derivation_residual,
)
from .mixedpow import IndexPair
from .obstruction import (
    bracket_generator,
    corollary1_obstruction,
    corollary2_obstruction,
    obstruction_lhs,
    obstruction_rhs,
)
from .opcalc import (
    NonlinearOperator,
    check_permutation_property,
    estimate_log_indices,
    euler_log_residual,
    euler_power_residual,
    op_combine,
)
from .operators import (
    cross_ratio_op,
    lambda_op,
    log_modulus_op,
    nonseparating_op,
    relative_log_modulus_op,
    rms_log_modulus_op,
    shift_all_op,
    shifted_log_modulus_op,
    site_matrix_op,
    spin_rms_log_op,
    spin_rotation_op,
)
from .scenario import (
    Scenario,
    build_generator,
    build_point_spec,
    evolution_config,
    random_hermitian,
)
from .space import ConfigSpace, random_batch, random_state, sup_norms
from .symmetry import (
    AffineMap,
    FiniteSymmetry,
    IDENTITY_TIME,
    PointSymmetrySpec,
    index_law_residual,
    inf_symmetry_bracket,
    inf_symmetry_residual,
    lambda_index_symmetry,
    point_symmetry_parts,
    symmetry_residual,
)


@dataclass
class CheckResult:
    name: str
    status: str
    max_residual: float
    tolerance: float
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "details": self.details,
        }


@dataclass
class CheckContext:
    scenario: Scenario
    ordinal: int
    tol_override: float | None = None

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng((self.scenario.seed, self.ordinal, salt))

    @property
    def space(self) -> ConfigSpace:
        return self.scenario.space

    @property
    def hbar(self) -> float:
        return self.scenario.hbar

    @property
    def evolution(self) -> EvolutionConfig:
        return evolution_config(self.scenario.evolution, self.hbar)

    def generator(self, name: str) -> Generator:
        # salted by position, so two random "linear" generators draw two matrices
        salt = 997 + list(self.scenario.generators).index(name)
        return build_generator(self.space, self.scenario.generators[name], self.rng(salt),
                               where=name)

    def point_spec(self, default: PointSymmetrySpec) -> PointSymmetrySpec:
        if self.scenario.symmetry:
            return build_point_spec(self.scenario.symmetry)
        return default


# the default tolerance of each single-bound check; every other check is
# composite and judges its normalised defects against 1.0
SINGLE_BOUNDS = {
    "algebra-table": 1e-12,
    "algebra-brackets": 1e-12,
    "matrix-rep-homomorphism": 1e-12,
    "mixed-power-identities": 1e-12,
    "canonical-decomposition-roundtrip": 1e-8,
    "real-linear-degeneration": 1e-10,
    "lattice-shift-symmetry": 1e-12,
}


def _tolerance(ctx: CheckContext, name: str) -> float:
    # precedence: command-line override > scenario tolerances > check default
    if ctx.tol_override is not None:
        return ctx.tol_override
    return float(ctx.scenario.tolerances.get(name, SINGLE_BOUNDS.get(name, 1.0)))


def _finish(ctx: CheckContext, name: str, residual: float, details: dict) -> CheckResult:
    tol = _tolerance(ctx, name)
    status = "pass" if residual <= tol else "fail"
    return CheckResult(name=name, status=status, max_residual=float(residual),
                       tolerance=tol, details=details)


def _defect(kind: str, value: float, limit) -> float:
    if value != value:  # NaN meets no criterion, whatever its position
        return float("inf")
    if kind == "bound":
        return value / limit
    if kind == "floor":  # <= 1 when value >= limit
        return limit / value if value > 0 else float("inf")
    lo, hi = limit  # a band: 0 inside [lo, hi], >= 2 outside
    if lo <= value <= hi:
        return 0.0
    edge = lo if value < lo else hi
    return 2.0 + abs(value - edge) / abs(edge)


def _judge(ctx: CheckContext, name: str, criteria: dict, details: dict) -> CheckResult:
    """Judge a composite check on its criteria, ``label -> (kind, value,
    limit)`` with ``kind`` one of ``bound``, ``band`` (limit ``(lo, hi)``)
    or ``floor``; a list value is judged entry by entry.  Each label is
    written to ``details["criteria"]`` with its value, limit and defect,
    and the worst defect is the residual against tolerance 1.0."""
    written = details["criteria"] = {}
    for label, (kind, value, limit) in criteria.items():
        values = value if isinstance(value, list) else [value]
        written[label] = {"value": value, kind: list(limit) if kind == "band" else limit,
                          "defect": max(_defect(kind, v, limit) for v in values)}
    return _finish(ctx, name, max(c["defect"] for c in written.values()), details)


# ---------------------------------------------------------------------------
# algebra of mixed powers


def check_algebra_table(ctx: CheckContext) -> CheckResult:
    """Products of +-E, +-B, +-I, +-J against the generator table."""
    worst = 0.0
    names = ["E", "B", "I", "J"]
    products = dict(mp.GENERATOR_TABLE)
    for n in names:
        products[("E", n)] = (1, n)
        products[(n, "E")] = (1, n)
    closure_ok = True
    for (n1, s1), (n2, s2) in itertools.product(
        itertools.product(names, (1, -1)), repeat=2
    ):
        p = s1 * mp.GENERATORS[n1]
        q = s2 * mp.GENERATORS[n2]
        sign, target = products[(n1, n2)]
        expect = (s1 * s2 * sign) * mp.GENERATORS[target]
        got = mp.pair_product(p, q)
        worst = max(worst, abs(got.a - expect.a), abs(got.b - expect.b))
        in_set = any(
            got.close_to(s * mp.GENERATORS[n], 1e-12)
            for s in (1, -1)
            for n in names
        )
        closure_ok = closure_ok and in_set
    details = {"products_checked": 64, "group_closure": closure_ok}
    residual = worst if closure_ok else float("inf")
    return _finish(ctx, "algebra-table", residual, details)


def check_algebra_brackets(ctx: CheckContext) -> CheckResult:
    """sl(2,R) commutators of B, I, J plus the Jacobi identity."""
    worst = 0.0
    for p, q, expect in [(mp.B, mp.I, -2 * mp.J), (mp.I, mp.J, -2 * mp.B), (mp.J, mp.B, 2 * mp.I)]:
        got = mp.pair_bracket(p, q)
        worst = max(worst, abs(got.a - expect.a), abs(got.b - expect.b))
    trials = 200
    # one row per trial: the components (pa, pb, qa, qb, ra, rb), drawn in
    # the order of one standard_normal(2) call per component
    comps = ctx.rng().standard_normal((trials, 12)).view(complex).T
    p, q, r = comps[0:2], comps[2:4], comps[4:6]
    (a1, b1), (a2, b2), (a3, b3) = (
        mp.bracket_components(*x, *mp.bracket_components(*y, *w))
        for x, y, w in ((p, q, r), (q, r, p), (r, p, q))
    )
    scale = np.maximum(1.0, np.abs(comps).max(axis=0))
    jacobi = np.maximum(np.abs(a1 + a2 + a3), np.abs(b1 + b2 + b3)) / scale**2
    worst = max(worst, float(jacobi.max()))
    return _finish(ctx, "algebra-brackets", worst, {"jacobi_triples": trials})


def check_matrix_rep(ctx: CheckContext) -> CheckResult:
    """matrix_components is a product homomorphism with det = Re(a conj b)."""
    trials = 1000
    # one row per trial: p = (pa, pb), q = (qa, qb) and a base z
    pa, pb, qa, qb, z = ctx.rng().standard_normal((trials, 10)).view(complex).T
    pq = mp.product_components(pa, pb, qa, qb)
    rep_p = mp.matrix_components(pa, pb)
    rhs = rep_p @ mp.matrix_components(qa, qb)
    scale = np.maximum(1.0, np.abs(rhs).max(axis=(-2, -1)))
    hom = np.abs(mp.matrix_components(*pq) - rhs).max(axis=(-2, -1))
    det = np.abs(np.linalg.det(rep_p) - (pa * pb.conj()).real)
    act = np.abs(mp.action_components(pa, pb, mp.action_components(qa, qb, z))
                 - mp.action_components(*pq, z)) / np.maximum(1.0, np.abs(z))
    worst = float(np.max(np.maximum(np.maximum(hom, det), act) / scale))
    return _finish(ctx, "matrix-rep-homomorphism", worst, {"pairs": trials})


def check_mixed_power_identities(ctx: CheckContext) -> CheckResult:
    """Composition, product, and logarithm identities on the safe region.

    Bases are kept at |arg z| < pi/4 and indices moderate so no branch
    crossing can occur (the composition law only holds as a germ at 1).
    """
    trials = 300
    # one row per trial: ln r, arg z, then Re and Im of pa, pb, qa, qb
    low = np.array([-0.5, -math.pi / 4] + [-1.0] * 8)
    u = ctx.rng().uniform(low, -low, (trials, 10))
    z = np.exp(u[:, 0]) * (np.cos(u[:, 1]) + 1j * np.sin(u[:, 1]))
    pa, pb, qa, qb = u[:, 2:].view(complex).T
    zp, zq = mp.power_components(z, pa, pb), mp.power_components(z, qa, qb)
    # a trial whose inner power leaves the right half-plane is skipped
    keep = np.abs(np.angle(zq)) <= math.pi / 2
    direct = mp.power_components(z, *mp.product_components(pa, pb, qa, qb))
    comp = np.abs(mp.power_components(zq, pa, pb) - direct) / np.maximum(1.0, np.abs(direct))
    summed = mp.power_components(z, pa + qa, pb + qb)
    prod = np.abs(zp * zq - summed) / np.maximum(1.0, np.abs(summed))
    ln = np.abs(np.log(zp) - mp.action_components(pa, pb, np.log(z)))
    worst = float(np.max(np.maximum(np.maximum(comp, prod), ln), where=keep, initial=0.0))
    return _finish(ctx, "mixed-power-identities", worst, {"samples": trials})


# ---------------------------------------------------------------------------
# operator calculus


def _euler_cases(space: ConfigSpace):
    lam = lambda_op(IndexPair(0.7 + 0.2j, 0.4 - 0.3j), 1, space)
    return [
        ("lambda", lam, lam.indices, "log"),
        ("log-modulus", log_modulus_op(space, 1.0), IndexPair(1.0, 0.0), "log"),
        ("cross-ratio", cross_ratio_op(space, coupling=0.8), IndexPair(1.0, 1.0), "pow"),
        ("rms-log-modulus", rms_log_modulus_op(space, 0.9), IndexPair(0.0, 0.0), "log"),
    ]


def check_euler_identities(ctx: CheckContext) -> CheckResult:
    """Homogeneity Euler identities with closed forms, plus the quadratic
    convergence of the finite-difference route (Richardson ratio near 4).

    Along the scaling direction eta*phi a strictly homogeneous operator
    is exactly affine in the step, so its Euler residual has no quadratic
    term; for those cases the ratio is taken on the finite-difference
    derivative error in a generic direction instead, and the case's
    ``fd_euler_ratio`` is null.
    """
    space = ctx.space
    rng = ctx.rng()
    fd_floor = 1e-11
    band = (3.5, 4.5)
    h0 = 1e-3
    criteria = {}
    details: dict = {"cases": {}}
    for label, op, idx, kind in _euler_cases(space):
        [phi] = random_batch((op.n,), space, [rng])
        euler = euler_log_residual if kind == "log" else euler_power_residual
        worst = max(max(euler(op, 0.0, phi, eta, indices=idx)) for eta in (1.0, 1j, 0.8 - 0.6j))
        criteria[f"{label}.closed_residual"] = ("bound", worst, 1e-10)
        r1, r2 = (max(euler(op, 0.0, phi, 0.8 - 0.6j, indices=idx, fd_step=h))
                  for h in (h0, h0 / 2))
        if r2 > fd_floor:
            euler_ratio = r1 / r2
            criteria[f"{label}.fd_euler_ratio"] = ("band", euler_ratio, band)
        else:
            # affine in the step: exact to round-off, where r1 / r2 would be
            # a ratio of two round-off values, so no ratio is reported
            euler_ratio = None
            criteria[f"{label}.fd_euler_residual"] = ("bound", r1, fd_floor)
        # generic-direction convergence of the finite-difference derivative
        probe = random_state(op.n, space, rng)[..., None]
        closed = op.derivative(0.0, phi, probe)
        e1, e2 = (max(sup_norms(op.derivative(0.0, phi, probe, fd_step=h) - closed))
                  for h in (h0, h0 / 2))
        dir_ratio = e1 / e2 if e2 > 0 else float("inf")
        criteria[f"{label}.fd_derivative_ratio"] = ("band", dir_ratio, band)
        details["cases"][label] = {
            "closed_residual": worst,
            "fd_euler_residual": r1,
            "fd_euler_ratio": euler_ratio,
            "fd_derivative_ratio": dir_ratio,
        }
    return _judge(ctx, "euler-identities", criteria, details)


def _default_bracket_hierarchies(space: ConfigSpace):
    F = Hierarchy.from_generators(
        [Generator(shifted_log_modulus_op(space, 0.8)), Generator(cross_ratio_op(space, coupling=0.5))],
        3,
    )
    G = Hierarchy.from_generators(
        [
            Generator(lambda_op(IndexPair(0.6 + 0.3j, 0.2 - 0.4j), 1, space)),
            Generator(rms_log_modulus_op(space, 0.7)),
        ],
        3,
    )
    return F, G


def check_derivation_bracket(ctx: CheckContext) -> CheckResult:
    """The level-wise bracket of two tensor derivations is again a tensor
    derivation, with logarithmic indices given by the index bracket."""
    space = ctx.space
    F, G = _default_bracket_hierarchies(space)
    Bk = bracket_hierarchy(F, G)
    rng = ctx.rng()
    cap = math.pi / 4  # keep summed arguments on the principal branch
    # four rounds, each drawing the factors of every split in turn
    splits = [(1, 1), (1, 2), (2, 1), (1, 1, 1)]
    factors = iter(random_batch([k for split in splits for k in split], space, [rng] * 4,
                                phase_cap=cap))
    worst_leibniz = max(
        max(tensor_derivation_residual(Bk, 0.0, [next(factors) for _ in split]))
        for split in splits
    )
    [batch] = random_batch((1,), space, [rng] * 4, phase_cap=math.pi / 2)
    est, _ = estimate_log_indices(Bk.op(1), 0.0, batch)
    expect = mp.pair_bracket(
        F.op(1).indices, G.op(1).indices
    )
    index_err = max(abs(est.a - expect.a), abs(est.b - expect.b))
    # threshold of the bracket >= max threshold: a pure 2-threshold
    # hierarchy bracketed against F has a vanishing first level
    H2 = Hierarchy.from_generators([Generator(cross_ratio_op(space, refs=(1, 0), coupling=0.6))], 3)
    Bk2 = bracket_hierarchy(F, H2)
    lvl1 = max(sup_norms(Bk2.op(1).apply(0.0, batch)))
    prod2 = random_batch((1, 1), space, [rng], phase_cap=cap)
    lvl2_on_products = max(tensor_derivation_residual(Bk2, 0.0, prod2))
    return _judge(ctx, "derivation-bracket", {
        "leibniz_residual": ("bound", worst_leibniz, 1e-8),
        "index_error": ("bound", index_err, 1e-6),
        "bracket_level1_norm": ("bound", lvl1, 1e-8),
        "threshold2_product_residual": ("bound", lvl2_on_products, 1e-8),
    }, {})


def check_decomposition_roundtrip(ctx: CheckContext) -> CheckResult:
    """Generators -> hierarchy -> canonical decomposition round trip,
    including idempotence of the threshold projections."""
    space = ctx.space
    rng = ctx.rng()
    gens = [
        Generator(shifted_log_modulus_op(space, 0.9)),
        Generator(cross_ratio_op(space, coupling=0.7)),
    ]
    H = Hierarchy.from_generators(gens, 3)
    recovered = canonical_decompose(H, seed=ctx.rng(1))
    worst = 0.0
    for g_orig, g_rec in zip(gens, recovered):
        [probes] = random_batch((g_orig.ell,), space, [rng] * 4)
        worst = max(
            worst, *sup_norms(g_rec.op.apply(0.0, probes) - g_orig.op.apply(0.0, probes)),
            abs(g_rec.indices.a - g_orig.indices.a), abs(g_rec.indices.b - g_orig.indices.b),
        )
    # idempotence: decomposing the rebuilt hierarchy returns the same parts
    rebuilt = Hierarchy.from_generators(recovered, 3)
    again = canonical_decompose(rebuilt, seed=ctx.rng(2))
    probes = random_batch([g.ell for g in recovered], space, [rng])
    for g1, g2, probe in zip(recovered, again, probes):
        worst = max(worst, *sup_norms(g2.op.apply(0.0, probe) - g1.op.apply(0.0, probe)))
    details = {"levels": 3, "thresholds": [g.ell for g in recovered]}
    return _finish(ctx, "canonical-decomposition-roundtrip", worst, details)


def check_permutation(ctx: CheckContext) -> CheckResult:
    """Hierarchy levels are permutation equivariant; a bare single-slot
    lifting is the counterexample."""
    space = ctx.space
    rng = ctx.rng()
    F, _ = _default_bracket_hierarchies(space)
    [batch2] = random_batch((2,), space, [rng] * 3)
    [batch3] = random_batch((3,), space, [rng] * 2)
    worst_sym = max(
        *check_permutation_property(F.op(2), 0.0, batch2),
        *check_permutation_property(F.op(3), 0.0, batch3),
    )
    lone = lift_J(shifted_log_modulus_op(space, 1.0), (0,), 2)
    asym = max(check_permutation_property(lone, 0.0, batch2))
    return _judge(ctx, "permutation-property", {
        "hierarchy_residual": ("bound", worst_sym, 1e-12),
        "counterexample_residual": ("floor", asym, 0.1),
    }, {})


def check_tensor_derivation(ctx: CheckContext) -> CheckResult:
    """Canonical lifts obey the Leibniz rule on seeded product states; a
    hierarchy with an injected non-separating level does not."""
    space = ctx.space
    rng = ctx.rng()
    F, G = _default_bracket_hierarchies(space)
    worst = max(
        max(tensor_derivation_residual(
            H, 0.0, random_batch(sizes, space, [rng] * 4, phase_cap=math.pi / 4)))
        for H in (F, G) for sizes in [(1, 1), (1, 2), (2, 1), (1, 1, 1)]
    )
    bad_ops = list(F.ops)
    bad_ops[1] = op_combine([bad_ops[1], nonseparating_op(space, 2, 0.5)])
    bad = Hierarchy(tuple(bad_ops))
    bad_residual = max(tensor_derivation_residual(bad, 0.0, random_batch((1, 1), space, [rng])))
    return _judge(ctx, "tensor-derivation-residual", {
        "leibniz_residual": ("bound", worst, 1e-10),
        "counterexample_residual": ("floor", bad_residual, 0.01),
    }, {})


# ---------------------------------------------------------------------------
# obstructions

# a batch's obstruction "vanishes" below this, relative to its largest state
VANISH_TOL = 1e-7


def _fd_warnings(*ops: NonlinearOperator) -> list[str]:
    missing = sorted({op.name for op in ops if not op.has_closed_derivative})
    return [
        f"operator {name!r} lacks a closed-form derivative; finite differences in use"
        for name in missing
    ]


def _default_theorem10_pairs(space: ConfigSpace):
    rms = Generator(rms_log_modulus_op(space, 0.9))
    shifted = Generator(shifted_log_modulus_op(space, 0.8))
    cr0 = Generator(cross_ratio_op(space, refs=(0, 0), coupling=0.6))
    cr1 = Generator(cross_ratio_op(space, refs=(1, 2), coupling=0.5))
    return [
        ("rms-vs-shifted", rms, shifted, (2, 3)),
        ("rms-vs-crossratio", rms, cr0, (3,)),
        ("crossratio-pair", cr0, cr1, (3, 4)),
    ]


def check_liftdeltal_identity(ctx: CheckContext, pairs: list | None = None) -> CheckResult:
    """Direct lift-bracket defect equals the natural-part double sum, for
    generator pairs at every admissible particle number.

    ``pairs`` lists [F-name, G-name, [n, ...]] entries over the scenario's
    named generators; without it the three built-in pairs are checked.
    """
    residuals = []
    details: dict = {"pairs": {}}
    if pairs is None:
        cases = _default_theorem10_pairs(ctx.space)
    else:
        cases = [(f"{fname}-vs-{gname}", ctx.generator(fname), ctx.generator(gname), ns)
                 for fname, gname, ns in pairs]
    for label, F, G, ns in cases:
        warnings = _fd_warnings(natural_part(F), natural_part(G), F.op, G.op)
        for n in ns:
            seed = ctx.scenario.seed % 2**31 + n
            size = 16 if n <= 3 else 6
            [data] = random_batch((n,), F.op.space, [np.random.default_rng(seed)] * size)
            H = bracket_generator(F, G, verify=True, seed=seed)
            lhs = obstruction_lhs(F, G, n, 0.0, data, bracket_gen=H)
            rhs = obstruction_rhs(F, G, n, 0.0, data)
            lhs_norms, rhs_norms = sup_norms(lhs), sup_norms(rhs)
            # the worst gap between the two sides, relative to the larger
            residual = max(
                gap / (1.0 + max(ln, rn))
                for gap, ln, rn in zip(sup_norms(lhs - rhs), lhs_norms, rhs_norms)
            )
            residuals.append(residual)
            details["pairs"][f"{label}-n{n}"] = {
                "ell": F.ell,
                "m": G.ell,
                "n": n,
                "identity_residual": residual,
                "rhs_norm": max(rhs_norms),
                "vanishes": max(rhs_norms) <= VANISH_TOL * max(1.0, *sup_norms(data)),
                "seed": seed,
                "batch_size": size,
                "warnings": warnings,
            }
    return _judge(ctx, "liftdeltal-identity",
                  {"identity_residual": ("bound", residuals, 1e-8)}, details)


def check_real_linear_degeneration(ctx: CheckContext) -> CheckResult:
    """Both obstruction sides collapse below 1e-10 for real-linear pairs."""
    space = ctx.space
    rng = ctx.rng()
    A = Generator(site_matrix_op(space, random_hermitian(space, rng), name="lin-A"))
    Bl = Generator(site_matrix_op(space, random_hermitian(space, rng), name="lin-B"))
    worst = 0.0
    for n in (2, 3):
        [data] = random_batch((n,), space, [ctx.rng(10 * n + k) for k in range(4)])
        scales = [max(1.0, norm) for norm in sup_norms(data)]
        for side in (obstruction_rhs, obstruction_lhs):
            norms = sup_norms(side(A, Bl, n, 0.0, data))
            worst = max(worst, *(norm / scale for norm, scale in zip(norms, scales)))
    return _finish(ctx, "real-linear-degeneration", worst, {"levels": [2, 3]})


def check_corollary1_equivalence(ctx: CheckContext, grid_size: int = 4) -> CheckResult:
    """Vanishing two-particle obstruction forces the higher defect to
    vanish; the spin pair keeps both sides large."""
    space = ctx.space
    F = Generator(shifted_log_modulus_op(space, 0.8))
    K = Generator(relative_log_modulus_op(space, 0.7))
    [data2] = random_batch((2,), space, [ctx.rng(k) for k in range(8)])
    [data3] = random_batch((3,), space, [ctx.rng(100 + k) for k in range(8)])
    two = max(sup_norms(corollary1_obstruction(F, K, 0.0, data2)))
    lifted = max(sup_norms(obstruction_lhs(F, K, 3, 0.0, data3)))
    spin_space = ConfigSpace(2 * grid_size, factors=(2, grid_size), grid=True)
    Fs = Generator(spin_rms_log_op(spin_space, 1.0))
    Ks = Generator(spin_rotation_op(spin_space))
    [spin2] = random_batch((2,), spin_space, [ctx.rng(200 + k) for k in range(8)])
    [spin3] = random_batch((3,), spin_space, [ctx.rng(300 + k) for k in range(8)])
    spin_two = max(sup_norms(corollary1_obstruction(Fs, Ks, 0.0, spin2)))
    spin_lift = max(sup_norms(obstruction_lhs(Fs, Ks, 3, 0.0, spin3)))
    return _judge(ctx, "corollary1-equivalence", {
        "vanishing_pair.two_particle": ("bound", two, 1e-8),
        "vanishing_pair.lifted_n3": ("bound", lifted, 1e-7),
        "spin_pair.two_particle": ("floor", spin_two, 1e-3),
        "spin_pair.lifted_n3": ("floor", spin_lift, 1e-3),
    }, {"spin_space": {"size": spin_space.size, "factors": list(spin_space.factors)}})



# default point-symmetry data for the ladder checks: smooth site profiles
# with both a phase and a genuine drift part
def _default_point_spec() -> PointSymmetrySpec:
    return PointSymmetrySpec(
        eta=lambda pos: 0.7 * np.sin(pos) + 0.3,
        xi=lambda pos: 0.8 * np.sin(pos + 0.5) + 0.2,
    )

def check_corollary2_pointsym(ctx: CheckContext, grid_size: int = 8) -> CheckResult:
    """Added-generator obstruction against point-symmetry parts: the
    multiplication and phase parts vanish to round-off; the discrete
    derivative part stays small and is reported."""
    space = ConfigSpace(grid_size, grid=True)
    G = Generator(cross_ratio_op(space, coupling=0.8))
    spec = ctx.point_spec(_default_point_spec())
    parts = point_symmetry_parts(spec, space)
    [data] = random_batch((3,), space, [ctx.rng(k) for k in range(4)], smooth=True)
    labels = ("phase", "mult", "drift")
    family = [Generator(parts[label]) for label in labels]
    norms = {label: max(sup_norms(val))
             for label, val in zip(labels, corollary2_obstruction(G, family, 0.0, data))}
    zero_gen = Generator(cross_ratio_op(space, coupling=0.0))
    zero_norm = max(sup_norms(corollary2_obstruction(zero_gen, family[0], 0.0, data)))
    return _judge(ctx, "corollary2-pointsym", {
        "norms.phase": ("bound", norms["phase"], 1e-10),
        "norms.mult": ("bound", norms["mult"], 1e-10),
        "zero_generator_norm": ("bound", zero_norm, 1e-10),
    }, {"norms": norms, "grid_size": grid_size})


def check_internal_dof(ctx: CheckContext, grid_size: int = 8) -> CheckResult:
    """Spin-coupled non-linearity vs spin rotation: a strictly positive
    obstruction, stable under reseeding and grid refinement.

    Stability under reseeding compares the mean two-particle obstruction
    norm of two generic batches; under refinement, the mean obstruction
    field of smooth states, which sample one underlying function.
    """
    seed = ctx.scenario.seed % 2**31
    size = 16

    def build(gsize: int) -> tuple[Generator, Generator]:
        space = ConfigSpace(2 * gsize, factors=(2, gsize), grid=True)
        return Generator(spin_rms_log_op(space, 1.0)), Generator(spin_rotation_op(space))

    def smooth_field_mean(F: Generator, K: Generator) -> float:
        # a Riemann mean of the obstruction field of one continuum state,
        # the statistic that genuinely converges under refinement
        return float(np.mean([
            np.abs(corollary1_obstruction(
                F, K, 0.0, random_batch((2,), F.op.space, [(seed, i)], smooth=True)[0]
            )).mean()
            for i in range(size // 2)
        ]))

    F, K = build(grid_size)
    [base] = random_batch((2,), F.op.space, [np.random.default_rng(seed)] * size)
    [reseeded] = random_batch((2,), F.op.space, [np.random.default_rng(seed + 1)] * size)
    norms = sup_norms(corollary1_obstruction(F, K, 0.0, base))
    reseeded_norms = sup_norms(corollary1_obstruction(F, K, 0.0, reseeded))
    smooth_base = smooth_field_mean(F, K)
    smooth_refined = smooth_field_mean(*build(2 * grid_size))
    mean_base = float(np.mean(norms))
    reseed_ratio = float(np.mean(reseeded_norms)) / mean_base if mean_base else float("inf")
    refine_ratio = smooth_refined / smooth_base if smooth_base else float("inf")
    criteria = {
        "norm": ("floor", max(norms), 1e-3),
        "reseed_deviation": ("bound", abs(reseed_ratio - 1.0), 0.10),
        "refine_deviation": ("bound", abs(refine_ratio - 1.0), 0.10),
    }
    details = {
        "reseeded_norm": max(reseeded_norms),
        "refined_norm": smooth_refined,
        "grid_size": grid_size,
        # the base batch summarised at (l, m, n) = (1, 1, 2); only the
        # obstruction side is computed, so no identity is judged here
        "report": {
            "kind": "corollary1",
            "ell": 1,
            "m": 1,
            "n": 2,
            "rhs_norm": max(norms),
            "vanishes": max(norms) <= VANISH_TOL * max(1.0, *sup_norms(base)),
            "seed": seed,
            "batch_size": size,
            "state_norms": [round(norm, 12) for norm in sup_norms(base)],
            "warnings": _fd_warnings(natural_part(F), natural_part(K)),
        },
    }
    return _judge(ctx, "internal-dof-demo", criteria, details)


# ---------------------------------------------------------------------------
# evolution


def check_separation_evolution(ctx: CheckContext) -> CheckResult:
    """Separation residual decays at fourth order for the canonical-lift
    hierarchy and plateaus for a non-separating perturbation."""
    space = ctx.space
    F1 = Generator(log_modulus_op(space, 1.0))
    G2 = Generator(cross_ratio_op(space, coupling=0.25))
    H = Hierarchy.from_generators([F1, G2], 3)
    # residual curves of single state pairs can sit near a cancellation of
    # the leading dt^4 coefficient; the batch sum has a robust one
    phi1, phi2 = random_batch((1, 2), space, [ctx.rng(k) for k in range(4)])
    dts = [0.02, 0.01, 0.005]
    cfgs = [EvolutionConfig(dt=dt, t0=0.0, t1=0.5, hbar=ctx.hbar) for dt in dts]
    runs = separation_test(H, phi1, phi2, cfgs)
    residuals = [sum(run.gaps) for run in runs]
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
    # the perturbed hierarchy differs from H at level 2 only: its level-1
    # and level-3 marches are those of the first pair in the runs above
    bad2 = op_combine([H.op(2), nonseparating_op(space, 2, 0.5)])
    plateau = [gaps[0] for gaps in replaced_level_gaps(runs[:2], bad2, phi2[..., :1], cfgs[:2])]
    # trajectory summary at the finest step: horizon and the evolved first pair
    fine = cfgs[-1]
    evolved = [float(np.abs(psi[..., 0]).max()) for psi in runs[-1].evolved]
    details = {
        "dts": dts,
        "times": [fine.t0, fine.t1],
        "residuals": residuals,
        "evolved_norms": evolved,
        "initial_norms": [float(np.abs(phi[..., 0]).max()) for phi in (phi1, phi2)],
    }
    return _judge(ctx, "separation-evolution", {
        "ratios": ("band", ratios, (12.0, 20.0)),
        "plateau": ("floor", plateau, 1e-2),
    }, details)


def check_scaling_indices(ctx: CheckContext) -> CheckResult:
    """Evolution-operator scaling against the index equations: fourth
    order in dt, with the closed form and index extraction recovered."""
    space = ctx.space
    rng = ctx.rng()
    p = 1.3
    F = lambda_op(IndexPair(p, p), 1, space)
    [phi] = random_batch((1,), space, [rng])
    dts = [0.02, 0.01, 0.005]
    runs = scaling_test(F, phi, 1.4 + 0.3j,
                        [EvolutionConfig(dt=dt, t0=0.0, t1=1.0, hbar=ctx.hbar) for dt in dts])
    residuals = [gaps[0] for gaps, _ in runs]
    trajs = [traj for _, traj in runs]
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
    # the ladder's index laws at dt = 0.02 and 0.01 give the closed form and
    # the extraction, which recovers (p, q) at second order: halving the
    # step quarters the error
    closed = complex(math.cos(p / ctx.hbar), -math.sin(p / ctx.hbar))
    closed_err = abs(complex(trajs[1].a[-1]) - closed)
    extr_errs = []
    for traj in trajs[:2]:
        est = extract_indices(traj)
        extr_errs.append(max(abs(est.a - p), abs(est.b - p)))
    extr_ratio = extr_errs[0] / extr_errs[1] if extr_errs[1] > 0 else float("inf")
    # strictly homogeneous operator: scaling holds to round-off
    strict = rms_log_modulus_op(space, 0.8)
    [([strict_res], _)] = scaling_test(
        strict, phi, 0.7 - 0.4j, [EvolutionConfig(dt=0.01, t0=0.0, t1=0.5, hbar=ctx.hbar)]
    )
    return _judge(ctx, "scaling-indices", {
        "ratios": ("band", ratios, (12.0, 20.0)),
        "closed_form_error": ("bound", closed_err, 1e-8),
        "extraction_error": ("bound", extr_errs[1], 0.01**2),
        "extraction_ratio": ("band", extr_ratio, (3.0, 5.0)),
        "strict_scaling_residual": ("bound", strict_res, 1e-10),
    }, {"dts": dts, "scaling_residuals": residuals, "extraction_errors": extr_errs})


def check_index_evolution(ctx: CheckContext) -> CheckResult:
    """The index-transported Lambda symmetry solves the symmetry equation,
    and its indices satisfy the index evolution law at second order."""
    space = ctx.space
    rng = ctx.rng()
    p, q = 1.1, 0.6
    tau = AffineMap(0.5, 0.2)
    start = IndexPair(0.9, 0.4)
    cfg = ctx.evolution
    H = Hierarchy.from_generators([Generator(lambda_op(IndexPair(p, q), 1, space))], 2)
    K = lambda_index_symmetry(p, q, tau, start, cfg, space, 2)
    # one two-particle state per time
    times = (0.21, 0.5, 0.83)
    worst_sym = max(
        max(inf_symmetry_residual(K, H, t, data, hbar=ctx.hbar))
        for t, data in zip(times, random_batch((2,) * len(times), space, [rng]))
    )
    law_cfg = EvolutionConfig(dt=0.02, t0=0.0, t1=1.0, hbar=ctx.hbar)
    law = index_law_residual(p, q, tau, start, law_cfg)
    return _judge(ctx, "index-evolution", {
        "symmetry_residual": ("bound", worst_sym, 1e-6),
        "index_law_residual": ("bound", law, law_cfg.dt**2),
    }, {})


# ---------------------------------------------------------------------------
# symmetries


def check_lattice_shift(ctx: CheckContext, grid_size: int = 8) -> CheckResult:
    """Exact cyclic translations commute with translation-invariant
    non-linear hierarchies to round-off."""
    space = ConfigSpace(grid_size, grid=True)
    F1 = Generator(log_modulus_op(space, 1.0))
    H = Hierarchy.from_generators([F1], 3)
    V = FiniteSymmetry(
        levels=Hierarchy(tuple(shift_all_op(space, n, 2) for n in (1, 2, 3))),
        tmap=IDENTITY_TIME,
    )
    worst = max(
        max(symmetry_residual(V, H, 0.3, data, hbar=ctx.hbar))
        for n in (1, 2, 3) for data in random_batch((n,), space, [ctx.rng(n)])
    )
    return _finish(ctx, "lattice-shift-symmetry", worst, {"shift": 2, "grid_size": grid_size})


def check_freelift(ctx: CheckContext, grids: tuple[int, ...] = (8, 16, 32)) -> CheckResult:
    """Grid ladder for the point-symmetry obstruction parts: exact
    vanishing of multiplication and phase parts, quadratic decay of the
    discrete-derivative part."""
    spec = ctx.point_spec(_default_point_spec())
    seed = ctx.scenario.seed % 2**31
    c1: dict = {"phase": [], "mult": [], "drift": [], "full": []}
    c2: dict = {"phase": [], "mult": [], "drift": []}
    for gsize in grids:
        space = ConfigSpace(gsize, grid=True)
        F = Generator(rms_log_modulus_op(space, 1.0))
        G = Generator(cross_ratio_op(space))
        parts = point_symmetry_parts(spec, space)
        full = op_combine(list(parts.values()), name="point-natural")
        # one seed per state index, *not* per grid: the band-limited sampler
        # draws its mode coefficients before touching the grid, so the same
        # seed refines one underlying function across the ladder.  One
        # obstruction call per state judges every part, and each state is
        # reduced to its parts' sup norms before the next is drawn: the
        # grid-32 three-particle pass sets the workload's peak memory, and
        # stacking states or parts would hold all their lifted values at once
        for side, ops, n, salts in ((c1, {**parts, "full": full}, 2, range(4)),
                                    (c2, parts, 3, range(100, 102))):
            family = [Generator(op) for op in ops.values()]
            norms: dict = {label: [] for label in ops}
            for salt in salts:
                [data] = random_batch((n,), space, [(seed, salt)], smooth=True)
                vals = (corollary1_obstruction(F, family, 0.0, data) if n == 2
                        else corollary2_obstruction(G, family, 0.0, data))
                for label, val in zip(ops, vals):
                    norms[label].append(max(sup_norms(val)))
                del data, vals
            for label, worst in norms.items():
                side[label].append(max(worst))
    for side in (c1, c2):
        drift = side["drift"]
        side["drift_ratios"] = [
            drift[i] / drift[i + 1] if drift[i + 1] > 0 else float("inf")
            for i in range(len(drift) - 1)
        ]
    return _judge(ctx, "freelift-grid-ladder", {
        "c1.phase": ("bound", c1["phase"], 1e-10),
        "c1.mult": ("bound", c1["mult"], 1e-10),
        "c2.phase": ("bound", c2["phase"], 1e-10),
        "c2.mult": ("bound", c2["mult"], 1e-10),
        "c1.drift_ratios": ("band", c1["drift_ratios"], (3.0, 5.0)),
        "c2.drift_ratios": ("band", c2["drift_ratios"], (3.0, 5.0)),
    }, {"grids": list(grids), "c1": c1, "c2": c2})


def check_symmetry_bracket(ctx: CheckContext) -> CheckResult:
    """The bracket of two infinitesimal symmetries is again one, with the
    time-rate bracket tau_K tau_L' - tau_L tau_K'."""
    space = ctx.space
    rng = ctx.rng()
    p, q = 0.9, 0.5
    cfg = ctx.evolution
    H = Hierarchy.from_generators([Generator(lambda_op(IndexPair(p, q), 1, space))], 2)
    K = lambda_index_symmetry(p, q, AffineMap(0.0, 1.0), IndexPair(0.8, 0.3), cfg, space, 2)
    L = lambda_index_symmetry(p, q, AffineMap(1.0, 0.0), IndexPair(0.2, 0.7), cfg, space, 2)
    M = inf_symmetry_bracket(K, L)
    tau_expected = K.tau.beta * L.tau.alpha - L.tau.beta * K.tau.alpha
    tau_err = abs(M.tau.beta - tau_expected) + abs(M.tau.alpha)
    # one two-particle state per time
    times = (0.3, 0.7)
    worst = max(
        max(inf_symmetry_residual(M, H, t, data, hbar=ctx.hbar))
        for t, data in zip(times, random_batch((2,) * len(times), space, [rng]))
    )
    return _judge(ctx, "symmetry-bracket-closure", {
        "bracket_residual": ("bound", worst, 2e-5),
        "tau_error": ("bound", tau_err, 1e-12),
    }, {})


# ---------------------------------------------------------------------------
# registry

CHECKS: dict[str, tuple[Callable[[CheckContext], CheckResult], str]] = {
    "algebra-table": (check_algebra_table,
                      "generator product table and group closure of the mixed-power algebra"),
    "algebra-brackets": (check_algebra_brackets,
                         "sl(2,R) commutators of the index pairs and the Jacobi identity"),
    "matrix-rep-homomorphism": (check_matrix_rep,
                                "2x2 real matrix representation is a product homomorphism"),
    "mixed-power-identities": (check_mixed_power_identities,
                               "composition/product/logarithm laws of mixed powers on the safe region"),
    "euler-identities": (check_euler_identities,
                         "homogeneity Euler identities, closed-form and finite-difference"),
    "derivation-bracket": (check_derivation_bracket,
                           "bracket of tensor derivations is a tensor derivation; indices bracket"),
    "canonical-decomposition-roundtrip": (check_decomposition_roundtrip,
                                          "threshold generators are recovered by the canonical decomposition"),
    "permutation-property": (check_permutation,
                             "particle-relabeling equivariance of hierarchy levels"),
    "tensor-derivation-residual": (check_tensor_derivation,
                                   "Leibniz rule on product states for canonical lifts"),
    "liftdeltal-identity": (check_liftdeltal_identity,
                            "lift-bracket defect equals the natural-part double sum"),
    "real-linear-degeneration": (check_real_linear_degeneration,
                                 "obstructions collapse for real-linear generator pairs"),
    "corollary1-equivalence": (check_corollary1_equivalence,
                               "two-particle obstruction controls symmetry lifting to all levels"),
    "corollary2-pointsym": (check_corollary2_pointsym,
                            "added-generator obstruction against point-symmetry parts"),
    "internal-dof-demo": (check_internal_dof,
                          "internal degrees of freedom break symmetry lifting"),
    "separation-evolution": (check_separation_evolution,
                             "product states evolve by independent factor evolution"),
    "scaling-indices": (check_scaling_indices,
                        "evolution-operator scaling indices and their extraction"),
    "index-evolution": (check_index_evolution,
                        "index transport along symmetries of the evolution"),
    "lattice-shift-symmetry": (check_lattice_shift,
                               "exact cyclic translations commute with invariant hierarchies"),
    "freelift-grid-ladder": (check_freelift,
                             "point space-time symmetry obstructions vanish (exactly / at grid rate)"),
    "symmetry-bracket-closure": (check_symmetry_bracket,
                                 "infinitesimal symmetries close under the deformed bracket"),
}

CHECK_ORDINALS = {name: k for k, name in enumerate(CHECKS)}


def run_check(name: str, scenario: Scenario, params: dict, tol_override: float | None = None) -> CheckResult:
    fn, _ = CHECKS[name]
    ctx = CheckContext(scenario=scenario, ordinal=CHECK_ORDINALS[name],
                       tol_override=tol_override)
    try:
        return fn(ctx, **params)
    except Exception as exc:
        if not isinstance(exc, SepsymError):
            # an unexpected failure: keep the report, show the trace aside
            traceback.print_exc(file=sys.stderr)
        return CheckResult(
            name=name, status="error", max_residual=float("inf"),
            tolerance=_tolerance(ctx, name), details={"error": f"{type(exc).__name__}: {exc}"},
        )


def list_checks() -> list[tuple[str, str]]:
    """Stable (name, description) listing of every check."""
    return [(name, desc) for name, (_, desc) in CHECKS.items()]


def check_parameters(name: str) -> dict:
    """The parameters a check declares in its signature, with defaults."""
    fn, _ = CHECKS[name]
    return {p.name: p.default for p in list(inspect.signature(fn).parameters.values())[1:]}
