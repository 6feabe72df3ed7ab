"""The lift checks: tensor derivations and canonical decompositions of
hierarchies, and the obstructions to lifting a symmetry."""

from __future__ import annotations

import math

import numpy as np

from .checks import CheckContext, CheckResult, finish, judge
from .hierarchy import (
    Generator,
    Hierarchy,
    bracket_hierarchy,
    canonical_decompose,
    lift_J,
    natural_part,
    tensor_derivation_residual,
)
from .mixedpow import IndexPair, pair_bracket
from .obstruction import (
    bracket_generator,
    corollary1_obstruction,
    corollary2_obstruction,
    obstruction_lhs,
    obstruction_rhs,
)
from .opcalc import NonlinearOperator, check_permutation_property, estimate_log_indices, op_combine
from .operators import (
    cross_ratio_op,
    lambda_op,
    nonseparating_op,
    relative_log_modulus_op,
    rms_log_modulus_op,
    shifted_log_modulus_op,
    site_matrix_op,
    spin_rms_log_op,
    spin_rotation_op,
)
from .scenario import random_hermitian
from .space import ConfigSpace, random_batch, sup_norms
from .symmetry import PointSymmetrySpec, point_symmetry_parts


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
        max(tensor_derivation_residual(Bk, [next(factors) for _ in split]))
        for split in splits
    )
    [batch] = random_batch((1,), space, [rng] * 4, phase_cap=math.pi / 2)
    est, _ = estimate_log_indices(Bk.op(1), batch)
    expect = pair_bracket(F.op(1).indices, G.op(1).indices)
    index_err = max(abs(est.a - expect.a), abs(est.b - expect.b))
    # threshold of the bracket >= max threshold: a pure 2-threshold
    # hierarchy bracketed against F has a vanishing first level
    H2 = Hierarchy.from_generators([Generator(cross_ratio_op(space, refs=(1, 0), coupling=0.6))], 3)
    Bk2 = bracket_hierarchy(F, H2)
    lvl1 = max(sup_norms(Bk2.op(1).apply(batch)))
    prod2 = random_batch((1, 1), space, [rng], phase_cap=cap)
    lvl2_on_products = max(tensor_derivation_residual(Bk2, prod2))
    return judge(ctx, {
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
            worst, *sup_norms(g_rec.op.apply(probes) - g_orig.op.apply(probes)),
            abs(g_rec.indices.a - g_orig.indices.a), abs(g_rec.indices.b - g_orig.indices.b),
        )
    # idempotence: decomposing the rebuilt hierarchy returns the same parts
    rebuilt = Hierarchy.from_generators(recovered, 3)
    again = canonical_decompose(rebuilt, seed=ctx.rng(2))
    probes = random_batch([g.ell for g in recovered], space, [rng])
    for g1, g2, probe in zip(recovered, again, probes):
        worst = max(worst, *sup_norms(g2.op.apply(probe) - g1.op.apply(probe)))
    details = {"levels": 3, "thresholds": [g.ell for g in recovered]}
    return finish(ctx, worst, details)


def check_permutation(ctx: CheckContext) -> CheckResult:
    """Hierarchy levels are permutation equivariant; a bare single-slot
    lifting is the counterexample."""
    space = ctx.space
    rng = ctx.rng()
    F, _ = _default_bracket_hierarchies(space)
    [batch2] = random_batch((2,), space, [rng] * 3)
    [batch3] = random_batch((3,), space, [rng] * 2)
    worst_sym = max(
        *check_permutation_property(F.op(2), batch2),
        *check_permutation_property(F.op(3), batch3),
    )
    lone = lift_J(shifted_log_modulus_op(space, 1.0), (0,), 2)
    asym = max(check_permutation_property(lone, batch2))
    return judge(ctx, {
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
            H, random_batch(sizes, space, [rng] * 4, phase_cap=math.pi / 4)))
        for H in (F, G) for sizes in [(1, 1), (1, 2), (2, 1), (1, 1, 1)]
    )
    bad_ops = list(F.ops)
    bad_ops[1] = op_combine([bad_ops[1], nonseparating_op(space, 2, 0.5)])
    bad = Hierarchy(tuple(bad_ops))
    bad_residual = max(tensor_derivation_residual(bad, random_batch((1, 1), space, [rng])))
    return judge(ctx, {
        "leibniz_residual": ("bound", worst, 1e-10),
        "counterexample_residual": ("floor", bad_residual, 0.01),
    }, {})


# a batch's obstruction "vanishes" below this, relative to its largest state
VANISH_TOL = 1e-7


def _fd_warnings(*ops: NonlinearOperator) -> list[str]:
    missing = sorted({op.name for op in ops if not op.has_closed_derivative})
    return [
        f"operator {name!r} lacks a closed-form derivative; finite differences in use"
        for name in missing
    ]


def check_liftdeltal_identity(ctx: CheckContext, pairs: list) -> CheckResult:
    """Direct lift-bracket defect equals the natural-part double sum, for
    generator pairs at every admissible particle number.

    ``pairs`` lists [F-name, G-name, [n, ...]] entries over the scenario's
    named generators.
    """
    residuals = []
    details: dict = {"pairs": {}}
    named = ctx.scenario.generators
    for fname, gname, ns in pairs:
        label, F, G = f"{fname}-vs-{gname}", named[fname], named[gname]
        warnings = _fd_warnings(natural_part(F), natural_part(G), F.op, G.op)
        for n in ns:
            seed = ctx.scenario.seed % 2**31 + n
            size = 16 if n <= 3 else 6
            [data] = random_batch((n,), F.op.space, [np.random.default_rng(seed)] * size)
            H = bracket_generator(F, G, verify=True, seed=seed)
            lhs = obstruction_lhs(F, G, n, data, bracket_gen=H)
            rhs = obstruction_rhs(F, G, n, data)
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
    return judge(ctx, {"identity_residual": ("bound", residuals, 1e-8)}, details)


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
            norms = sup_norms(side(A, Bl, n, data))
            worst = max(worst, *(norm / scale for norm, scale in zip(norms, scales)))
    return finish(ctx, worst, {"levels": [2, 3]})


def _spin_pair(space: ConfigSpace) -> tuple[Generator, Generator]:
    """The spin-coupled non-linearity and the spin rotation on a factored
    space: a pair whose obstruction stays large."""
    return Generator(spin_rms_log_op(space, 1.0)), Generator(spin_rotation_op(space))


# the space of corollary1-equivalence's spin pair, two spin states times four
# grid sites, whatever the scenario's space (which its vanishing pair uses)
SPIN_SPACE = ConfigSpace(8, factors=(2, 4), grid=True)


def check_corollary1_equivalence(ctx: CheckContext) -> CheckResult:
    """Vanishing two-particle obstruction forces the higher defect to
    vanish; the spin pair keeps both sides large."""
    space = ctx.space
    F = Generator(shifted_log_modulus_op(space, 0.8))
    K = Generator(relative_log_modulus_op(space, 0.7))
    [data2] = random_batch((2,), space, [ctx.rng(k) for k in range(8)])
    [data3] = random_batch((3,), space, [ctx.rng(100 + k) for k in range(8)])
    two = max(sup_norms(corollary1_obstruction(F, K, data2)))
    lifted = max(sup_norms(obstruction_lhs(F, K, 3, data3)))
    Fs, Ks = _spin_pair(SPIN_SPACE)
    [spin2] = random_batch((2,), SPIN_SPACE, [ctx.rng(200 + k) for k in range(8)])
    [spin3] = random_batch((3,), SPIN_SPACE, [ctx.rng(300 + k) for k in range(8)])
    spin_two = max(sup_norms(corollary1_obstruction(Fs, Ks, spin2)))
    spin_lift = max(sup_norms(obstruction_lhs(Fs, Ks, 3, spin3)))
    return judge(ctx, {
        "vanishing_pair.two_particle": ("bound", two, 1e-8),
        "vanishing_pair.lifted_n3": ("bound", lifted, 1e-7),
        "spin_pair.two_particle": ("floor", spin_two, 1e-3),
        "spin_pair.lifted_n3": ("floor", spin_lift, 1e-3),
    }, {"spin_space": {"size": SPIN_SPACE.size, "factors": list(SPIN_SPACE.factors)}})


# the point-symmetry data of a scenario without a symmetry block: smooth site
# profiles with both a phase and a genuine drift part
_SMOOTH_SPEC = PointSymmetrySpec(
    eta=lambda pos: 0.7 * np.sin(pos) + 0.3,
    xi=lambda pos: 0.8 * np.sin(pos + 0.5) + 0.2,
)


def check_corollary2_pointsym(ctx: CheckContext) -> CheckResult:
    """Added-generator obstruction against point-symmetry parts: the
    multiplication and phase parts vanish to round-off; the discrete
    derivative part stays small and is reported."""
    space = ctx.space
    G = Generator(cross_ratio_op(space, coupling=0.8))
    parts = point_symmetry_parts(ctx.scenario.symmetry or _SMOOTH_SPEC, space)
    [data] = random_batch((3,), space, [ctx.rng(k) for k in range(4)], smooth=True)
    labels = ("phase", "mult", "drift")
    family = [Generator(parts[label]) for label in labels]
    norms = {label: max(sup_norms(val))
             for label, val in zip(labels, corollary2_obstruction(G, family, data))}
    zero_gen = Generator(cross_ratio_op(space, coupling=0.0))
    zero_norm = max(sup_norms(corollary2_obstruction(zero_gen, family[0], data)))
    return judge(ctx, {
        "norms.phase": ("bound", norms["phase"], 1e-10),
        "norms.mult": ("bound", norms["mult"], 1e-10),
        "zero_generator_norm": ("bound", zero_norm, 1e-10),
    }, {"norms": norms, "grid_size": space.grid_size})


def check_internal_dof(ctx: CheckContext) -> CheckResult:
    """Spin-coupled non-linearity vs spin rotation on the scenario's
    factored grid: a strictly positive obstruction, stable under reseeding
    and under refinement to twice the grid sites.

    Stability under reseeding compares the mean two-particle obstruction
    norm of two generic batches; under refinement, the mean obstruction
    field of smooth states, which sample one underlying function.
    """
    seed = ctx.scenario.seed % 2**31
    size = 16

    def smooth_field_mean(F: Generator, K: Generator) -> float:
        # a Riemann mean of the obstruction field of one continuum state,
        # the statistic that genuinely converges under refinement
        return float(np.mean([
            np.abs(corollary1_obstruction(
                F, K, random_batch((2,), F.op.space, [(seed, i)], smooth=True)[0]
            )).mean()
            for i in range(size // 2)
        ]))

    F, K = _spin_pair(ctx.space)
    [base] = random_batch((2,), F.op.space, [np.random.default_rng(seed)] * size)
    [reseeded] = random_batch((2,), F.op.space, [np.random.default_rng(seed + 1)] * size)
    norms = sup_norms(corollary1_obstruction(F, K, base))
    reseeded_norms = sup_norms(corollary1_obstruction(F, K, reseeded))
    smooth_base = smooth_field_mean(F, K)
    smooth_refined = smooth_field_mean(*_spin_pair(ctx.space.refined(2)))
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
        "grid_size": ctx.space.grid_size,
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
    return judge(ctx, criteria, details)


# freelift-grid-ladder refines the scenario's grid by these factors: its
# drift band assumes that each rung halves the grid spacing
LADDER = (1, 2, 4)


def check_freelift(ctx: CheckContext) -> CheckResult:
    """Grid ladder for the point-symmetry obstruction parts: exact
    vanishing of multiplication and phase parts, quadratic decay of the
    discrete-derivative part."""
    spec = ctx.scenario.symmetry or _SMOOTH_SPEC
    seed = ctx.scenario.seed % 2**31
    sites = ctx.space.grid_size
    # the drift is compared on the scenario's own sites, which every rung
    # holds at stride k: a finer grid's own sites include points where the
    # error field peaks higher, while on the common sites an O(h^2) error
    # falls by 4 per halving of h
    c1: dict = {"phase": [], "mult": [], "drift": [], "full": []}
    c2: dict = {"phase": [], "mult": [], "drift": []}
    for k in LADDER:
        space = ctx.space.refined(k)
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
                vals = (corollary1_obstruction(F, family, data) if n == 2
                        else corollary2_obstruction(G, family, data))
                for label, val in zip(ops, vals):
                    if label == "drift":
                        val = val[(slice(None, None, k),) * n]
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
    return judge(ctx, {
        "c1.phase": ("bound", c1["phase"], 1e-10),
        "c1.mult": ("bound", c1["mult"], 1e-10),
        "c2.phase": ("bound", c2["phase"], 1e-10),
        "c2.mult": ("bound", c2["mult"], 1e-10),
        "c1.drift_ratios": ("band", c1["drift_ratios"], (3.0, 5.0)),
        "c2.drift_ratios": ("band", c2["drift_ratios"], (3.0, 5.0)),
    }, {"grids": [k * sites for k in LADDER], "drift_sites": sites, "c1": c1, "c2": c2})


FAMILY = {
    "derivation-bracket": check_derivation_bracket,
    "canonical-decomposition-roundtrip": check_decomposition_roundtrip,
    "permutation-property": check_permutation,
    "tensor-derivation-residual": check_tensor_derivation,
    "liftdeltal-identity": check_liftdeltal_identity,
    "real-linear-degeneration": check_real_linear_degeneration,
    "corollary1-equivalence": check_corollary1_equivalence,
    "corollary2-pointsym": check_corollary2_pointsym,
    "internal-dof-demo": check_internal_dof,
    "freelift-grid-ladder": check_freelift,
}
