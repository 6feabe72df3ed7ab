"""Named verification checks: their registry and what they share.

Each check is a deterministic computation keyed by the scenario seed; it
returns a :class:`CheckResult` whose status is ``pass`` exactly when
``max_residual <= tolerance``.  Single-bound checks report the raw
residual against their bound, the default tolerance in the registry.
Composite checks (several bounds, decay bands, positivity floors) declare
their criteria to :func:`judge`, which reports the worst normalised
defect against tolerance 1.0 and writes every criterion's value, limit
and defect to ``details["criteria"]``.

The checks live in family modules (``checks_algebra``, ``checks_lifts``,
``checks_evolution``, ``checks_symmetry``), each imported the first time
one of its checks runs, so a run compiles only the families it uses.
"""

from __future__ import annotations

import importlib
import sys
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import SepsymError
from .evolution import EvolutionConfig
from .scenario import Scenario, evolution_config
from .space import ConfigSpace


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
    name: str

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng((self.scenario.seed, list(_REGISTRY).index(self.name), salt))

    @property
    def space(self) -> ConfigSpace:
        return self.scenario.space

    @property
    def evolution(self) -> EvolutionConfig:
        return evolution_config(self.scenario.evolution, self.scenario.hbar)


def _tolerance(ctx: CheckContext) -> float:
    return float(ctx.scenario.tolerances.get(ctx.name, _REGISTRY[ctx.name][1]))


def finish(ctx: CheckContext, residual: float, details: dict) -> CheckResult:
    tol = _tolerance(ctx)
    status = "pass" if residual <= tol else "fail"
    return CheckResult(name=ctx.name, status=status, max_residual=float(residual),
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


def judge(ctx: CheckContext, criteria: dict, details: dict) -> CheckResult:
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
    return finish(ctx, max(c["defect"] for c in written.values()), details)


# ---------------------------------------------------------------------------
# registry

# check name -> (family module, default tolerance, the names of its required
# parameters, description).  A single-bound check's tolerance is its
# bound; a composite check judges its normalised defects against 1.0.  The
# order fixes each check's position, which salts its draws.
_REGISTRY: dict[str, tuple[str, float, tuple[str, ...], str]] = {
    "algebra-table": ("algebra", 1e-12, (),
                      "generator product table and group closure of the mixed-power algebra"),
    "algebra-brackets": ("algebra", 1e-12, (),
                         "sl(2,R) commutators of the index pairs and the Jacobi identity"),
    "matrix-rep-homomorphism": ("algebra", 1e-12, (),
                                "2x2 real matrix representation is a product homomorphism"),
    "mixed-power-identities": ("algebra", 1e-12, (),
                               "composition/product/logarithm laws of mixed powers on the safe region"),
    "euler-identities": ("algebra", 1.0, (),
                         "homogeneity Euler identities, closed-form and finite-difference"),
    "derivation-bracket": ("lifts", 1.0, (),
                           "bracket of tensor derivations is a tensor derivation; indices bracket"),
    "canonical-decomposition-roundtrip": ("lifts", 1e-8, (),
                                          "threshold generators are recovered by the canonical decomposition"),
    "permutation-property": ("lifts", 1.0, (),
                             "particle-relabeling equivariance of hierarchy levels"),
    "tensor-derivation-residual": ("lifts", 1.0, (),
                                   "Leibniz rule on product states for canonical lifts"),
    "liftdeltal-identity": ("lifts", 1.0, ("pairs",),
                            "lift-bracket defect equals the natural-part double sum"),
    "real-linear-degeneration": ("lifts", 1e-10, (),
                                 "obstructions collapse for real-linear generator pairs"),
    "corollary1-equivalence": ("lifts", 1.0, (),
                               "two-particle obstruction controls symmetry lifting to all levels"),
    "corollary2-pointsym": ("lifts", 1.0, (),
                            "added-generator obstruction against point-symmetry parts"),
    "internal-dof-demo": ("lifts", 1.0, (),
                          "internal degrees of freedom break symmetry lifting"),
    "separation-evolution": ("evolution", 1.0, (),
                             "product states evolve by independent factor evolution"),
    "scaling-indices": ("evolution", 1.0, (),
                        "evolution-operator scaling indices and their extraction"),
    "index-evolution": ("symmetry", 1.0, (),
                        "index transport along symmetries of the evolution"),
    "lattice-shift-symmetry": ("symmetry", 1e-12, (),
                               "exact cyclic translations commute with invariant hierarchies"),
    "freelift-grid-ladder": ("lifts", 1.0, (),
                             "point space-time symmetry obstructions vanish (exactly / at grid rate)"),
    "symmetry-bracket-closure": ("symmetry", 1.0, (),
                                 "infinitesimal symmetries close under the deformed bracket"),
}


def _on_first_call(name: str, family: str) -> Callable[..., CheckResult]:
    """The check ``name``, which imports its family when it is first run."""
    def run(ctx: CheckContext, **params) -> CheckResult:
        module = importlib.import_module(f"{__package__}.checks_{family}")
        return module.FAMILY[name](ctx, **params)
    return run


CHECKS: dict[str, tuple[Callable[..., CheckResult], str]] = {
    name: (_on_first_call(name, family), desc)
    for name, (family, _, _, desc) in _REGISTRY.items()
}


def run_check(name: str, scenario: Scenario, params: dict) -> CheckResult:
    fn, _ = CHECKS[name]
    ctx = CheckContext(scenario=scenario, name=name)
    try:
        return fn(ctx, **params)
    except Exception as exc:
        if not isinstance(exc, SepsymError):
            # an unexpected failure: keep the report, show the trace aside
            traceback.print_exc(file=sys.stderr)
        return CheckResult(
            name=name, status="error", max_residual=float("inf"),
            tolerance=_tolerance(ctx), details={"error": f"{type(exc).__name__}: {exc}"},
        )


def check_parameters(name: str) -> tuple[str, ...]:
    """The names of the parameters a check requires; it takes no others."""
    return _REGISTRY[name][2]
