"""Scenario files: loading, validation, and object factories.

A scenario is a JSON object with a fixed schema (see
docs/scenario-schema.md): a name, a mandatory integer seed (no implicit
entropy anywhere), a configuration-space block, optional evolution and
tolerance blocks, optional named generator specs, and an ordered list of
checks to run.  Bundled scenarios live in the package's ``scenarios/``
directory and can be addressed by bare name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import BadRange, ScenarioError, StepMismatch
from .evolution import EvolutionConfig
from .hierarchy import Generator, check_obstruction_range
from .mixedpow import IndexPair
from .operators import (
    cross_ratio_op,
    lambda_op,
    log_modulus_op,
    nonseparating_op,
    relative_log_modulus_op,
    rms_log_modulus_op,
    shifted_log_modulus_op,
    spin_rms_log_op,
    spin_rotation_op,
    site_matrix_op,
)
from .space import ConfigSpace, state_shape


def _complex_of(value, where: str) -> complex:
    """A JSON number or [re, im] pair as a complex, each part a finite number."""
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0.0)
    try:
        return complex(*(finite_number(v, where) for v in parts))
    except ScenarioError:
        raise ScenarioError(
            f"{where}: expected a finite number or [re, im] pair, got {value!r}"
        ) from None


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    return value


def seed_value(value, where: str) -> int:
    """A seed as given: a non-negative integer (booleans rejected), the
    only kind every generator seeded from it accepts."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ScenarioError(f"{where} must be a non-negative integer (no implicit entropy)")
    return value


def finite_number(value, where: str, positive: bool = False) -> float:
    """A JSON number as a finite float (booleans rejected), optionally > 0."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        number = float(value) if ok else math.nan
    except OverflowError:
        number = math.inf
    if not math.isfinite(number) or (positive and number <= 0):
        kind = "a finite positive number" if positive else "a finite number"
        raise ScenarioError(f"{where}: expected {kind}, got {value!r}")
    return number


# the keys each block may hold; any other key is a scenario error
TOP_LEVEL_KEYS = ("name", "seed", "space", "checks", "hbar", "evolution", "tolerances",
                  "generators", "symmetry")
SPACE_KEYS = ("size", "factors", "grid")
EVOLUTION_KEYS = ("dt", "t0", "t1")
SYMMETRY_KEYS = ("eta", "xi")
PROFILE_KEYS = ("profile", "amplitude", "phase", "offset")
def build_space(spec: dict) -> ConfigSpace:
    if not isinstance(spec, dict) or "size" not in spec:
        raise ScenarioError("space: expected an object with a 'size' field")
    _known_keys(spec, SPACE_KEYS, "space")
    factors = spec.get("factors")
    if factors is not None and not (isinstance(factors, list) and factors):
        raise ScenarioError(f"space.factors: expected a non-empty integer list, got {factors!r}")
    grid = spec.get("grid", False)
    if not isinstance(grid, bool):
        raise ScenarioError(f"space.grid: expected a boolean, got {grid!r}")
    try:
        return ConfigSpace(
            size=_integer(spec["size"], "space.size"),
            factors=None if factors is None
            else tuple(_integer(f, "space.factors") for f in factors),
            grid=grid,
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"space: {exc}") from exc


def evolution_config(evolution: dict, hbar: float) -> EvolutionConfig:
    """The scenario's evolution block, in absolute time over the defaults of
    EvolutionConfig (dt 1e-3, t0 0, t1 1), converted to units of the run's
    hbar: the one place hbar enters the numerics."""
    try:
        return EvolutionConfig(**{f.name: evolution.get(f.name, f.default) / hbar
                                  for f in fields(EvolutionConfig)})
    except (ValueError, StepMismatch) as exc:
        raise ScenarioError(f"evolution at hbar={hbar}: {exc}") from exc


def random_hermitian(space: ConfigSpace, rng: np.random.Generator) -> np.ndarray:
    shape = state_shape(space, 2)  # the flat-size cap, before anything is drawn
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (a + a.conj().T) / 2.0


def _number(spec: dict, key: str, default, where: str) -> complex:
    return _complex_of(spec.get(key, default), where)


def _with_coeff(op):
    """The builder of ``op(space, coeff)``, with coeff 1 unless the spec gives one."""
    return lambda space, spec, where: op(space, _number(spec, "coeff", 1.0, where))


def _linear(space: ConfigSpace, spec: dict, where: str):
    if "matrix" not in spec:
        raise ScenarioError(f"{where}: a linear generator needs its 'matrix' rows")
    rows = [[_complex_of(v, where) for v in row] for row in spec["matrix"]]
    return site_matrix_op(space, np.array(rows, dtype=np.complex128))


def _cross_ratio(space: ConfigSpace, spec: dict, where: str):
    r1, r2 = (_integer(r, f"{where}.refs") for r in spec.get("refs", [0, 0]))
    return cross_ratio_op(space, (r1, r2), _number(spec, "coupling", 1.0, where))


# generator kind -> (the keys its spec may hold, the builder of its operator
# from the space, the spec and where the spec sits in the scenario)
GENERATOR_KINDS = {
    "lambda": (("kind", "a", "b"), lambda space, spec, where: lambda_op(
        IndexPair(_number(spec, "a", 0.0, where), _number(spec, "b", 0.0, where)), 1, space)),
    "log-modulus": (("kind", "coeff"), _with_coeff(log_modulus_op)),
    "shifted-log-modulus": (("kind", "coeff", "shift"), lambda space, spec, where: (
        shifted_log_modulus_op(space, _number(spec, "coeff", 1.0, where),
                               _integer(spec.get("shift", 1), f"{where}.shift")))),
    "relative-log-modulus": (("kind", "coeff"), _with_coeff(relative_log_modulus_op)),
    "rms-log-modulus": (("kind", "coeff"), _with_coeff(rms_log_modulus_op)),
    "spin-rms-log": (("kind", "coeff"), _with_coeff(spin_rms_log_op)),
    "spin-rotation": (("kind",), lambda space, spec, where: spin_rotation_op(space)),
    "linear": (("kind", "matrix"), _linear),
    "cross-ratio": (("kind", "refs", "coupling"), _cross_ratio),
    "non-separating": (("kind", "coupling"), lambda space, spec, where: nonseparating_op(
        space, 2, _number(spec, "coupling", 1.0, where))),
}


def build_generator(space: ConfigSpace, spec: dict, where: str = "generator") -> Generator:
    """Instantiate a generator from its scenario description."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ScenarioError(f"{where}: expected an object with a 'kind' field")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in GENERATOR_KINDS:
        raise ScenarioError(f"{where}: unknown generator kind {kind!r}")
    keys, build = GENERATOR_KINDS[kind]
    _known_keys(spec, keys, where)
    return Generator(build(space, spec, where))


def _known_keys(block: dict, allowed, where: str) -> None:
    """Reject any key of ``block`` outside ``allowed``, naming the allowed set."""
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {unknown}, "
                            f"expected keys among {sorted(allowed)}")


def build_point_spec(doc: dict):
    """Point-symmetry data from its scenario block: eta and xi are named
    profiles ("constant", "linear", "sine") with amplitude/phase/offset
    parameters."""
    from .symmetry import PointSymmetrySpec, named_profile

    def field_profile(block, name):
        if block is None:
            return None
        if not isinstance(block, dict) or "profile" not in block:
            raise ScenarioError(f"{name}: expected a profile object")
        _known_keys(block, PROFILE_KEYS, name)
        shape = {key: finite_number(block.get(key, default), f"{name}.{key}")
                 for key, default in (("amplitude", 1.0), ("phase", 0.0), ("offset", 0.0))}
        try:
            return named_profile(block["profile"], **shape)
        except ValueError as exc:
            raise ScenarioError(f"{name}: {exc}") from exc

    if not isinstance(doc, dict):
        raise ScenarioError(f"symmetry: expected an object, got {doc!r}")
    _known_keys(doc, SYMMETRY_KEYS, "symmetry")
    return PointSymmetrySpec(
        eta=field_profile(doc.get("eta"), "symmetry.eta"),
        xi=field_profile(doc.get("xi"), "symmetry.xi"),
    )


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    space: ConfigSpace
    checks: tuple[dict, ...]
    hbar: float = 1.0
    evolution: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    generators: dict[str, Generator] = field(default_factory=dict)
    symmetry: object = None  # its symmetry.PointSymmetrySpec, None without a block


def _pairs(value, where: str, generators: dict) -> list:
    """[[F, G, [n, ...]], ...] over named generators, each n admissible for
    the obstruction of F against G."""
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{where}: expected a non-empty list, got {value!r}")
    for entry in value:
        if not (isinstance(entry, list) and len(entry) == 3
                and all(isinstance(name, str) and name in generators for name in entry[:2])
                and isinstance(entry[2], list) and entry[2]
                and all(isinstance(n, int) and not isinstance(n, bool) for n in entry[2])):
            raise ScenarioError(f"{where}: expected [F, G, [n, ...]] over the scenario's "
                                f"generators, got {entry!r}")
        fname, gname, ns = entry
        try:
            for n in ns:
                check_obstruction_range(generators[fname].ell, generators[gname].ell, n)
        except BadRange as exc:
            raise ScenarioError(f"{where}: {fname} against {gname}: {exc}") from exc
    return value


_PARAM_VALIDATORS = {"pairs": _pairs}


def _normalise_checks(entries, known: set[str], generators: dict) -> tuple[dict, ...]:
    from .checks import check_parameters

    if not isinstance(entries, (list, tuple)):
        raise ScenarioError(f"checks: expected a list, got {entries!r}")
    checks = []
    for k, entry in enumerate(entries):
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, dict) or not {"name"} <= set(entry) <= {"name", "params"}:
            raise ScenarioError(f"checks[{k}]: expected a name or {{'name': ..., 'params': ...}} object")
        name, params = entry["name"], entry.get("params", {})
        if not isinstance(name, str) or name not in known:
            raise ScenarioError(f"checks[{k}]: unknown check {name!r}")
        required = check_parameters(name)
        if not isinstance(params, dict) or set(params) != set(required):
            raise ScenarioError(f"checks[{k}].params: {name} takes exactly the parameters "
                                f"{sorted(required)}, got {params!r}")
        checks.append({"name": name, "params": {
            key: _PARAM_VALIDATORS[key](value, f"checks[{k}].params.{key}", generators)
            for key, value in params.items()}})
    return tuple(checks)


def tolerance_map(tolerances, known: set[str], where: str) -> dict[str, float]:
    """Check name -> finite positive tolerance: the one validator of the
    scenario's ``tolerances`` block and of ``--tol``."""
    if not isinstance(tolerances, dict):
        raise ScenarioError(f"{where}: expected an object mapping check names to numbers")
    for name in tolerances:
        if name not in known:
            raise ScenarioError(f"{where}: unknown check {name!r}")
    return {name: finite_number(value, f"{where}.{name}", positive=True)
            for name, value in tolerances.items()}


def _built_generators(specs, space: ConfigSpace) -> dict[str, Generator]:
    """Each named generator built once, at load: a malformed spec fails
    there, and every check of the scenario shares what was built."""
    if not isinstance(specs, dict):
        raise ScenarioError(f"generators: expected an object, got {specs!r}")
    built = {}
    for name, spec in specs.items():
        try:
            built[name] = build_generator(space, spec, where=f"generators.{name}")
        except ScenarioError:
            raise
        except Exception as exc:
            raise ScenarioError(f"generators.{name}: {type(exc).__name__}: {exc}") from exc
    return built


def parse_scenario(doc: dict, known_checks: set[str], origin: str = "<scenario>") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError(f"{origin}: top level must be a JSON object")
    _known_keys(doc, TOP_LEVEL_KEYS, origin)
    for key in ("name", "seed", "space", "checks"):
        if key not in doc:
            raise ScenarioError(f"{origin}: missing required field {key!r}")
    seed = seed_value(doc["seed"], f"{origin}: seed")
    space = build_space(doc["space"])
    generators = _built_generators(doc.get("generators", {}), space)
    checks = _normalise_checks(doc["checks"], known_checks, generators)
    if not checks:
        raise ScenarioError(f"{origin}: empty check list")
    tolerances = tolerance_map(doc.get("tolerances", {}), known_checks,
                               f"{origin}: tolerances")
    hbar = finite_number(doc.get("hbar", 1.0), f"{origin}: hbar", positive=True)
    evolution = doc.get("evolution", {})
    if not isinstance(evolution, dict):
        raise ScenarioError(f"{origin}: evolution must be an object, got {evolution!r}")
    _known_keys(evolution, EVOLUTION_KEYS, f"{origin}: evolution")
    evolution = {key: finite_number(value, f"{origin}: evolution.{key}", positive=key == "dt")
                 for key, value in evolution.items()}
    try:
        evolution_config(evolution, hbar)
    except ScenarioError as exc:
        raise ScenarioError(f"{origin}: {exc}") from exc
    symmetry = doc.get("symmetry", {})
    # the default block needs no symmetry code
    symmetry = None if symmetry == {} else build_point_spec(symmetry)
    return Scenario(
        name=str(doc["name"]),
        seed=seed,
        space=space,
        checks=checks,
        hbar=hbar,
        evolution=evolution,
        tolerances=tolerances,
        generators=generators,
        symmetry=symmetry,
    )


def bundled_scenario_names() -> list[str]:
    root = resources.files("sepsym").joinpath("scenarios")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_scenario(path_or_name: str, known_checks: set[str]) -> Scenario:
    """Load a scenario from a file path or a bundled name."""
    p = Path(path_or_name)
    if p.suffix == ".json" or p.exists():
        try:
            text = p.read_text()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario {path_or_name!r}: {exc}") from exc
        origin = str(p)
    else:
        res = resources.files("sepsym").joinpath(f"scenarios/{path_or_name}.json")
        if not res.is_file():
            raise ScenarioError(
                f"no scenario file or bundled scenario named {path_or_name!r}; "
                f"bundled: {', '.join(bundled_scenario_names())}"
            )
        text = res.read_text()
        origin = f"bundled:{path_or_name}"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{origin}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_scenario(doc, known_checks, origin=origin)
